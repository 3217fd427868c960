"""Fold benchmark run records into one ``BENCH_<n>.json``, or compare two
sets of them.

Usage::

    python3 tools/record_bench.py BENCH_21.json [--runs perfbench/out]
    python3 tools/record_bench.py --compare PARENT_RUNS CHANGE_RUNS

Reads every untraced run record ``<workload>-seed<n>-trace0.json`` that
``perfbench/run.py`` wrote to the runs directory and writes one JSON file:

* ``revision`` and ``machine``, which every run must share; a run whose
  ``revision`` is null (``perfbench/run.py`` measured a tree outside a git
  checkout) is refused, since the record could not say what it measured;
* ``seeds``, every seed read;
* ``workloads``: per workload, the number of ``runs``, per metric its
  ``unit`` and the ``median``, ``q1`` and ``q3`` over the runs
  (``statistics.quantiles(n=4)``, as ``perfbench/RESULTS.md`` uses), and
  ``fail_ratio`` as ``failed`` over ``attempted`` summed over the runs.

A workload needs at least two runs.

``--compare`` pairs the untraced records of two runs directories, the
parent's and the change's, by workload and seed. Each side's runs must
share one revision, and the two sides must report different ones: two
equal revisions (two nulls included) mean at least one side was not
measured in a git checkout of its own commit. For each workload it
prints each side's ``fail_ratio`` over the paired runs, and whether the
change's share of failed operations grew. For each end-to-end metric of
``BENCHMARK.json`` (which says whether higher or lower is better, and by
what share of the parent's median a metric may worsen, its ``bound``) it
prints the parent's median with its quartiles, the change's median and its
ratio to the parent's, how many pairs the change wins (ties count for
neither), whether a gain is shown (the change wins at least nine tenths of
the pairs and the medians differ by more than the parent's interquartile
range) and whether the bound holds:

* ``exceeded``: the change's median is worse than the parent's by more than
  the bound times the parent's median;
* ``unresolved``: it is not, but the parent's interquartile range is wider
  than that, and some run of the change reads no better than some run of
  the parent;
* ``kept`` otherwise.

``--compare`` exits 1 when some bound is ``exceeded`` or some workload's
failure share grew, and 0 otherwise; ``unresolved`` is printed and does not
fail.

``BENCHMARK.json`` is only read. Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def one(values: list, what: str):
    """The value every run shares; runs that disagree cannot be folded."""
    distinct = {json.dumps(v, sort_keys=True) for v in values}
    if len(distinct) != 1:
        raise SystemExit(f"record_bench: the runs differ in {what}: "
                         f"{sorted(distinct)}")
    return values[0]


def fold(records: list[dict]) -> dict:
    """The bench record of the run records `records`."""
    by_workload: dict[str, list[dict]] = {}
    for record in records:
        by_workload.setdefault(record["workload"], []).append(record)
    workloads = {}
    for name, runs in sorted(by_workload.items()):
        if len(runs) < 2:
            raise SystemExit(f"record_bench: {name} has one run; quartiles "
                             "need at least two")
        metrics = {}
        for metric, first in runs[0]["metrics"].items():
            values = [run["metrics"][metric]["value"] for run in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            metrics[metric] = {"unit": first["unit"], "median": median,
                               "q1": q1, "q3": q3}
        failed = sum(run["fail_ratio"]["failed"] for run in runs)
        attempted = sum(run["fail_ratio"]["attempted"] for run in runs)
        workloads[name] = {
            "runs": len(runs), "metrics": metrics,
            "fail_ratio": {"failed": failed, "attempted": attempted,
                           "value": failed / attempted}}
    revision = one([r["revision"] for r in records], "revision")
    if revision is None:
        raise SystemExit("record_bench: the runs have no revision; measure "
                         "a git checkout of the commit")
    return {"revision": revision,
            "machine": one([r["machine"] for r in records], "machine"),
            "seeds": sorted({r["seed"] for r in records}),
            "workloads": workloads}


def compare(parent: list[dict], change: list[dict],
            metrics: dict[str, dict]) -> list[str]:
    """Per workload, one line for the `fail_ratio` of both sides and one
    line per metric of `metrics` (name -> its ``BENCHMARK.json`` entry, with
    `better` "higher" or "lower" and a `bound`): the paired comparison of
    the `change` runs with the `parent` runs of the same workload and
    seed."""
    revision, other = (one([r["revision"] for r in side], "revision")
                       for side in (parent, change))
    if revision == other:
        raise SystemExit(f"record_bench: both sides report revision "
                         f"{revision}; measure each side in a git checkout "
                         "of its commit")
    after = {(r["workload"], r["seed"]): r for r in change}
    pairs: dict[str, list[tuple[dict, dict]]] = {}
    for run in sorted(parent, key=lambda r: (r["workload"], r["seed"])):
        if (run["workload"], run["seed"]) in after:
            pairs.setdefault(run["workload"], []).append(
                (run, after[run["workload"], run["seed"]]))
    lines = []
    for workload, runs in sorted(pairs.items()):
        if len(runs) < 2:
            raise SystemExit(f"record_bench: {workload} has one pair; "
                             "quartiles need at least two")
        shares, texts = [], []
        for name, side in zip(("parent", "change"), zip(*runs)):
            failed = sum(run["fail_ratio"]["failed"] for run in side)
            attempted = sum(run["fail_ratio"]["attempted"] for run in side)
            shares.append(failed / attempted)
            texts.append(f"{name} {shares[-1]:.6g} ({failed} of {attempted})")
        grew = "grew" if shares[1] > shares[0] else "kept"
        lines.append(f"{workload} fail_ratio: {', '.join(texts)}, share {grew}")
        for metric, entry in metrics.items():
            if metric not in runs[0][0]["metrics"]:
                continue
            old, new = ([run["metrics"][metric]["value"] for run in side]
                        for side in zip(*runs))
            sign = 1 if entry["better"] == "higher" else -1
            wins = sum(sign * (b - a) > 0 for a, b in zip(old, new))
            q1, median, q3 = statistics.quantiles(old, n=4)
            changed = statistics.median(new)
            shown = wins * 10 >= 9 * len(runs) and sign * (changed - median) > q3 - q1
            allowed = entry["bound"] * abs(median)
            if sign * (median - changed) > allowed:
                bound = "exceeded"
            elif q3 - q1 > allowed and not all(sign * (b - a) > 0
                                               for a in old for b in new):
                bound = "unresolved"
            else:
                bound = "kept"
            ratio = f"{changed / median:.3f}" if median else "n/a"
            lines.append(
                f"{workload} {metric}: parent {median:.6g} (Q1-Q3 {q1:.6g}-"
                f"{q3:.6g}), change {changed:.6g}, ratio {ratio}, wins "
                f"{wins} of {len(runs)}, gain {'shown' if shown else 'not shown'}"
                f", bound {entry['bound']:g} {bound}")
    return lines


def read_runs(directory: Path) -> list[dict]:
    """The untraced run records in `directory`."""
    return [json.loads(p.read_text())
            for p in sorted(directory.glob("*-seed*-trace0.json"))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, nargs="?",
                        help="the BENCH_<n>.json to write")
    parser.add_argument("--runs", type=Path,
                        default=ROOT / "perfbench" / "out",
                        help="directory of the run records")
    parser.add_argument("--compare", type=Path, nargs=2,
                        metavar=("PARENT_RUNS", "CHANGE_RUNS"),
                        help="compare two runs directories pair by pair")
    args = parser.parse_args(argv)
    if (args.out is None) == (args.compare is None):
        parser.error("give either the BENCH_<n>.json to write or --compare")
    directories = args.compare or [args.runs]
    sides = [read_runs(directory) for directory in directories]
    for directory, records in zip(directories, sides):
        if not records:
            print(f"record_bench: no run records in {directory}", file=sys.stderr)
            return 2
    if args.compare:
        end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
        lines = compare(*sides, {m["name"]: m for m in end_to_end})
        if not lines:
            print("record_bench: no workload and seed was run on both sides",
                  file=sys.stderr)
            return 2
        print("\n".join(lines))
        return int(any(line.endswith((" exceeded", "share grew"))
                       for line in lines))
    records, = sides
    bench = fold(records)
    args.out.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"{args.out}: {len(records)} runs, workloads "
          f"{', '.join(bench['workloads'])}, seeds {bench['seeds']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
