"""The committed benchmark records, ``BENCH_*.json`` at the root of the
checkout, and the tool that writes them, ``tools/record_bench.py``.

A record is checked for its fields only, never for its values: the numbers
belong to the machine and the revision they were measured on.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "record_bench", ROOT / "tools" / "record_bench.py")
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
