"""The committed benchmark records, ``BENCH_*.json`` at the root of the
checkout, the tool that writes them, ``tools/record_bench.py``, and the
in-process timer ``tools/alternate.py``.

A record is checked for its fields only, never for its values: the numbers
belong to the machine and the revision they were measured on.
"""

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conespec.formats import config_template

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def load_tool(name="record_bench"):
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_records_are_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_holds_its_fields(path):
    record = json.loads(path.read_text())
    assert {"revision", "machine", "seeds", "workloads"} <= record.keys()
    assert record["seeds"] and record["workloads"]
    for workload in record["workloads"].values():
        assert {"metrics", "fail_ratio"} <= workload.keys()
        assert "value" in workload["fail_ratio"]
        for metric in workload["metrics"].values():
            assert {"unit", "median"} <= metric.keys()
            # the first record, transcribed from perfbench/RESULTS.md, has
            # the spread (Q3 - Q1) / median in place of the quartiles
            assert {"q1", "q3"} <= metric.keys() or "spread" in metric


def run_record(workload, seed, value, failed=0):
    return {"workload": workload, "seed": seed, "revision": "abc",
            "machine": {"nproc": 2},
            "metrics": {"ops_per_s": {"value": value, "unit": "ops/s",
                                      "samples": 5}},
            "fail_ratio": {"failed": failed, "attempted": 10,
                           "value": failed / 10}}


def test_tool_folds_run_records(tmp_path):
    runs = tmp_path / "out"
    runs.mkdir()
    for seed, value in enumerate((4.0, 1.0, 3.0, 2.0, 5.0), start=1):
        record = run_record("scan-grid", seed, value, failed=int(seed == 2))
        (runs / f"scan-grid-seed{seed}-trace0.json").write_text(
            json.dumps(record))
    # a traced run's record is not folded
    (runs / "scan-grid-seed9-trace1.json").write_text(
        json.dumps(run_record("scan-grid", 9, 100.0)))
    out = tmp_path / "BENCH_1.json"
    assert load_tool().main([str(out), "--runs", str(runs)]) == 0
    bench = json.loads(out.read_text())
    assert bench["revision"] == "abc" and bench["seeds"] == [1, 2, 3, 4, 5]
    grid = bench["workloads"]["scan-grid"]
    assert grid["runs"] == 5
    assert grid["metrics"]["ops_per_s"] == {"unit": "ops/s", "median": 3.0,
                                            "q1": 1.5, "q3": 4.5}
    assert grid["fail_ratio"] == {"failed": 1, "attempted": 50,
                                  "value": 0.02}


def test_tool_refuses_runs_of_two_revisions(tmp_path):
    for seed, revision in ((1, "abc"), (2, "def")):
        record = dict(run_record("scan-grid", seed, 1.0), revision=revision)
        (tmp_path / f"scan-grid-seed{seed}-trace0.json").write_text(
            json.dumps(record))
    with pytest.raises(SystemExit, match="revision"):
        load_tool().main([str(tmp_path / "BENCH_1.json"),
                          "--runs", str(tmp_path)])


def test_tool_refuses_runs_without_a_revision(tmp_path):
    """A run measured outside a git checkout reports a null revision; the
    record folded from it could not say which tree it measured."""
    for seed in (1, 2):
        record = dict(run_record("scan-grid", seed, 1.0), revision=None)
        (tmp_path / f"scan-grid-seed{seed}-trace0.json").write_text(
            json.dumps(record))
    out = tmp_path / "BENCH_1.json"
    with pytest.raises(SystemExit, match="no revision; measure a git "
                       "checkout of the commit"):
        load_tool().main([str(out), "--runs", str(tmp_path)])
    assert not out.exists()


@pytest.mark.parametrize("revision", ["abc", None])
def test_compare_refuses_two_sides_of_one_revision(revision):
    """Two sides that report one revision, null included, were not each
    measured in a checkout of their own commit."""
    old, new = paired_records({"parent": [1.0] * 4, "change": [1.0] * 4})
    for record in old + new:
        record["revision"] = revision
    metrics = {"m": {"better": "lower", "bound": 0.25}}
    with pytest.raises(SystemExit, match=f"both sides report revision "
                       f"{revision}; measure each side in a git checkout"):
        load_tool().compare(old, new, metrics)


def write_runs(directory, revision, values):
    """One untraced record per seed; `values` maps a metric to its value
    on seeds 1, 2, ..."""
    directory.mkdir()
    units = {"reduced_p50_ms": "ms", "ops_per_s": "ops/s", "made_up": "s"}
    for seed in range(1, len(next(iter(values.values()))) + 1):
        record = dict(run_record("weighted-reduced", seed, 0.0),
                      revision=revision)
        record["metrics"] = {m: {"value": v[seed - 1], "unit": units[m],
                                 "samples": 5} for m, v in values.items()}
        (directory / f"weighted-reduced-seed{seed}-trace0.json").write_text(
            json.dumps(record))
    return directory


def test_tool_compares_runs_pair_by_pair(tmp_path, capsys):
    parent = write_runs(tmp_path / "parent", "abc", {
        "reduced_p50_ms": [7.0, 7.5, 8.0, 7.2, 7.4, 7.1, 7.9, 7.3, 7.6, 7.8],
        "ops_per_s": [100.0] * 10,
        "made_up": [1.0] * 10})
    change = write_runs(tmp_path / "change", "def", {
        # lower is better: 9 wins and a tie; seed 11 has no parent run
        "reduced_p50_ms": [5.0, 5.5, 6.0, 5.2, 5.4, 5.1, 7.9, 5.3, 5.6, 5.8,
                           1.0],
        "ops_per_s": [99.0] * 9 + [101.0, 500.0],
        "made_up": [0.5] * 11})
    tool = load_tool()
    assert tool.main(["--compare", str(parent), str(change)]) == 0
    lines = capsys.readouterr().out.splitlines()
    # the failure shares, then the metrics of BENCHMARK.json in its order;
    # others are left out
    assert [line.split(":")[0] for line in lines] == [
        "weighted-reduced fail_ratio", "weighted-reduced ops_per_s",
        "weighted-reduced reduced_p50_ms"]
    fails, ops, reduced = lines
    assert fails == ("weighted-reduced fail_ratio: parent 0 (0 of 100), "
                     "change 0 (0 of 100), share kept")
    assert ops == ("weighted-reduced ops_per_s: parent 100 (Q1-Q3 100-100), "
                   "change 99, ratio 0.990, wins 1 of 10, gain not shown, "
                   "bound 0.25 kept")
    assert reduced == (
        "weighted-reduced reduced_p50_ms: parent 7.45 (Q1-Q3 7.175-7.825), "
        "change 5.45, ratio 0.732, wins 9 of 10, gain shown, bound 0.25 kept")


def paired_records(values, failed=(0, 0)):
    """Run records of workload ``w`` per side: `values` maps "parent" and
    "change" to one value of the metric ``m`` per seed, and each side's
    runs fail `failed` of 10 operations."""
    return [[{"workload": "w", "seed": seed, "revision": side,
              "fail_ratio": {"failed": fails, "attempted": 10},
              "metrics": {"m": {"value": v}}}
             for seed, v in enumerate(values[side], start=1)]
            for side, fails in zip(("parent", "change"), failed)]


@pytest.mark.parametrize("better, parent, change, verdict", [
    # lower is better: the median 12.6 is worse by 26 % of 10
    ("lower", [10.0] * 10, [12.6] * 10, "exceeded"),
    ("lower", [10.0] * 10, [12.4] * 10, "kept"),
    # higher is better: 7.4 is worse by 26 % of 10
    ("higher", [10.0] * 10, [7.4] * 10, "exceeded"),
    ("higher", [10.0] * 10, [7.6] * 10, "kept"),
    # the parent's quartiles 8-12 lie wider apart than the bound allows
    ("lower", [8.0, 12.0] * 5, [10.0, 10.5] * 5, "unresolved"),
    # unless every run of the change reads better than every parent run
    ("lower", [8.0, 12.0] * 5, [7.0, 7.5] * 5, "kept"),
])
def test_compare_checks_each_bound(better, parent, change, verdict):
    old, new = paired_records({"parent": parent, "change": change})
    metrics = {"m": {"better": better, "bound": 0.25}}
    _, line = load_tool().compare(old, new, metrics)
    assert line.endswith(f", bound 0.25 {verdict}")


def test_compare_prints_each_side_failure_share():
    old, new = paired_records({"parent": [1.0] * 4, "change": [1.0] * 4},
                              failed=(1, 2))
    metrics = {"m": {"better": "lower", "bound": 0.25}}
    line, _ = load_tool().compare(old, new, metrics)
    assert line == ("w fail_ratio: parent 0.1 (4 of 40), change 0.2 (8 of 40), "
                    "share grew")
    line, _ = load_tool().compare(new, old, metrics)
    assert line.endswith("share kept")


def test_compare_needs_a_gap_wider_than_the_parent_spread(tmp_path):
    old = [7.0, 9.0, 7.5, 8.5, 7.2, 8.8, 7.4, 8.6, 7.6, 8.4]
    metrics = {"m": {"better": "lower", "bound": 0.25}}
    parent, change = paired_records({"parent": old,
                                     "change": [v - 0.3 for v in old]})
    _, line = load_tool().compare(parent, change, metrics)
    assert "wins 10 of 10, gain not shown" in line
    with pytest.raises(SystemExit, match="one pair"):
        load_tool().compare(parent[:1], change, metrics)


@pytest.mark.parametrize("parent, change, failed, verdict, code", [
    ([100.0] * 4, [100.0] * 4, 0, "bound 0.25 kept", 0),
    # ops_per_s worse by 26 %
    ([100.0] * 4, [74.0] * 4, 0, "bound 0.25 exceeded", 1),
    ([100.0] * 4, [100.0] * 4, 1, "share grew", 1),
    # the parent's quartiles 60-140 lie wider apart than the bound allows
    ([60.0, 140.0] * 2, [100.0] * 4, 0, "bound 0.25 unresolved", 0),
], ids=["kept", "exceeded", "share-grew", "unresolved"])
def test_compare_exit_code(tmp_path, capsys, parent, change, failed, verdict,
                           code):
    """``--compare`` exits 1 on an exceeded bound or a grown failure share
    and 0 otherwise: an unresolved bound is printed and does not fail."""
    sides = {"parent": (parent, 0), "change": (change, failed)}
    for side, (values, fails) in sides.items():
        (tmp_path / side).mkdir()
        for seed, value in enumerate(values, start=1):
            record = dict(run_record("scan-grid", seed, value, fails),
                          revision=side)
            (tmp_path / side / f"scan-grid-seed{seed}-trace0.json").write_text(
                json.dumps(record))
    assert load_tool().main(["--compare", str(tmp_path / "parent"),
                             str(tmp_path / "change")]) == code
    assert verdict in capsys.readouterr().out


def test_alternate_times_one_case_on_two_trees():
    """One round of the tiny case, this tree against itself, both imported
    into one interpreter: one line for the round, then the median ratio and
    the win count."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "alternate.py"), "tiny",
         str(ROOT), str(ROOT), "--rounds", "1", "--repeat", "1"],
        capture_output=True, text=True, timeout=120, check=True)
    lines = done.stdout.splitlines()
    assert len(lines) == 3
    assert re.fullmatch(r"round 1: A \d+\.\d{6} s  B \d+\.\d{6} s  "
                        r"B/A \d+\.\d{3}", lines[0])
    assert re.fullmatch(r"median B/A: \d+\.\d{3}", lines[1])
    assert re.fullmatch(r"B faster: [01] of 1", lines[2])


def test_ordinary_reduced_case_is_the_sextic_pencil_view():
    """The ``ordinary-reduced`` case of ``tools/alternate.py`` is the n = 2
    view of ``sextic-pencil`` at a = b = c = 1, as the benchmark writes its
    reduced views: the reduced degree, then one ``localwh`` line per point
    (the curve has no nodes), at power 53."""
    text = (ROOT / "fixtures" / "sextic-pencil.vectors").read_text()
    cfg = config_template(text)({"a": 1, "b": 1, "c": 1})
    assert cfg.nodes == 0
    lines = [f"reduced n=2 degree={cfg.reduced_degree} power=53"]
    lines += [f"localwh weights={','.join(map(str, p.weights))} "
              f"degree={sum(b.weighted_degree for b in p.branches)}"
              for p in cfg.points]
    assert load_tool("alternate").ORDINARY_REDUCED == "\n".join(lines) + "\n"
