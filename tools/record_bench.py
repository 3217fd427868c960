"""Fold benchmark run records into one ``BENCH_<n>.json``.

Usage::

    python3 tools/record_bench.py BENCH_21.json [--runs perfbench/out]

Reads every untraced run record ``<workload>-seed<n>-trace0.json`` that
``perfbench/run.py`` wrote to the runs directory and writes one JSON file:

* ``revision`` and ``machine``, which every run must share;
* ``seeds``, every seed read;
* ``workloads``: per workload, the number of ``runs``, per metric its
  ``unit`` and the ``median``, ``q1`` and ``q3`` over the runs
  (``statistics.quantiles(n=4)``, as ``perfbench/RESULTS.md`` uses), and
  ``fail_ratio`` as ``failed`` over ``attempted`` summed over the runs.

A workload needs at least two runs. Only the standard library is used.
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
    return {"revision": one([r["revision"] for r in records], "revision"),
            "machine": one([r["machine"] for r in records], "machine"),
            "seeds": sorted({r["seed"] for r in records}),
            "workloads": workloads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="the BENCH_<n>.json to write")
    parser.add_argument("--runs", type=Path,
                        default=ROOT / "perfbench" / "out",
                        help="directory of the run records")
    args = parser.parse_args(argv)
    paths = sorted(args.runs.glob("*-seed*-trace0.json"))
    if not paths:
        print(f"record_bench: no run records in {args.runs}", file=sys.stderr)
        return 2
    bench = fold([json.loads(p.read_text()) for p in paths])
    args.out.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"{args.out}: {len(paths)} runs, workloads "
          f"{', '.join(bench['workloads'])}, seeds {bench['seeds']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
