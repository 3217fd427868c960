"""conespec benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                  # every workload, each in its own process

Run from the root of a source checkout; the package is imported from
``src/``. Each workload is a closed loop with one client: it calls
``conespec.cli.main(argv)`` in this process with stdout captured, one
operation at a time, in as many whole cycles as take S seconds at the
reference speed on the seed code (see ``end_to_end``). Every operation's
output is checked outside its timed region (see ``gate.py``).

``--trace 0`` measures the end-to-end metrics. ``--trace 1`` runs the
first cycle twice, each time in a fresh process with the same seed: once
untraced and once traced (see ``tracing.py``). Both passes are checked, their
outputs must agree, and the per-layer metrics come from the traced pass.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit). A run record with the
machine, the revision, the seed and the sample counts is written to
``perfbench/out/``, and the spans of a traced run next to it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from hashlib import sha256
from pathlib import Path
from time import perf_counter

from calibrate import REFERENCE_S, Speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_RUNS = 21
MIN_CYCLES = 2
WALL_FACTOR = 3
PASS_TIMEOUT_S = 85
WORKLOADS = ("ordinary-large", "scan-grid", "weighted-reduced")
COMMANDS = ("compute", "verify", "oracle", "reduced", "scan")
IMPORT_SNIPPET = """import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import conespec.cli
took = time.perf_counter() - start
sys.path.insert(0, sys.argv[2])
import calibrate
print(took, min(calibrate.kernel() for _ in range(5)))
"""


def check_checkout() -> None:
    """Refuse to run anywhere but a source checkout (exit 2, no result)."""
    needed = [ROOT / "src" / "conespec" / "cli.py", ROOT / "fixtures",
              ROOT / "tests" / "golden"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        print(f"perfbench: not a conespec checkout, missing: {', '.join(missing)}",
              file=sys.stderr)
        raise SystemExit(2)


def setup_seconds() -> tuple[list[float], list[float]]:
    """Import time of conespec.cli in fresh interpreters, raw and scaled by
    the kernel timed in the same interpreter. The first import (which may
    write bytecode caches) is not counted."""
    raw, scaled = [], []
    for k in range(SETUP_RUNS + 1):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_SNIPPET, str(ROOT / "src"), str(HERE)],
            capture_output=True, text=True, timeout=60, check=True)
        took, kernel_s = map(float, done.stdout.split())
        if k:
            raw.append(took)
            scaled.append(took * REFERENCE_S / kernel_s)
    return raw, scaled


def revision() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=30,
                              capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


class Runner:
    """Runs operations through the CLI, times them and checks their output."""

    def __init__(self):
        from conespec import cli
        import gate
        self.cli, self.gate = cli, gate
        self.attempted = 0
        self.failures: list[str] = []
        self.speed = Speed()
        self.kernels: list[float] = []     # kernel time that scaled each call

    def call(self, argv, tracer=None, op_id=0, command=""):
        """One CLI call with stdout and stderr captured; returns the exit
        code, stdout, and the seconds it took raw and at the reference
        speed (calibrate.py). It starts from a collected heap, as a fresh
        process would, so that no collection owed by earlier work is charged
        to it."""
        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        scope = (tracer.installed(op_id, command) if tracer is not None
                 else contextlib.nullcontext())
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), scope, \
                self.speed.timed() as took:
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        self.kernels.append(took["kernel"])
        return code, out.getvalue(), took["raw"], took["scaled"]

    def run(self, op, tracer=None, op_id=0) -> tuple[str, int, float, float]:
        """Time one operation and check its output; returns stdout, the exit
        code, and its seconds raw and at the reference speed."""
        self.attempted += 1
        try:
            code, out, raw, at_reference = self.call(op.argv, tracer, op_id, op.command)
            problem = self.gate.check(op, code, out)
        except Exception:  # noqa: BLE001 - a crash is a failed operation
            code, out, raw, at_reference = None, "", 0.0, 0.0
            problem = traceback.format_exc(limit=3).strip().splitlines()[-1]
        if problem:
            self.record_failure(op, problem)
        return out, code, raw, at_reference

    def record_failure(self, op, problem: str) -> None:
        line = f"{' '.join(op.argv)}: {problem}"
        self.failures.append(line)
        print(f"FAILED {line}", file=sys.stderr)


def end_to_end(workload, runner, seconds: float) -> tuple[dict, dict]:
    """Untraced operations in whole cycles, as many as take `seconds` at the
    reference speed on the seed code (at least MIN_CYCLES; fewer only if the
    run, checks included, passes WALL_FACTOR times `seconds` of wall time).
    The count does not follow the measured speed, so every run of a seed
    measures the same inputs, before and after a change to the package.
    Each operation's time is scaled to the reference speed (calibrate.py)."""
    planned = max(MIN_CYCLES, round(seconds / workload.CYCLE_S))
    samples = {c: [] for c in COMMANDS}
    cycles = ops = cells = points = 0
    raw_total = 0.0
    start = perf_counter()
    while cycles < MIN_CYCLES or (cycles < planned
                                  and perf_counter() - start < WALL_FACTOR * seconds):
        for op in workload.cycle(cycles):
            _, _, raw, at_reference = runner.run(op)
            samples[op.command].append(at_reference)
            ops += 1
            cells += op.cells
            points += op.points
            raw_total += raw
        cycles += 1
    wall = perf_counter() - start

    total = lambda c: sum(samples[c])  # noqa: E731
    ms = lambda c: 1000 * statistics.median(samples[c])  # noqa: E731
    metrics = {
        "ops_per_s": (ops / sum(total(c) for c in COMMANDS), "ops/s", ops),
        "cells_per_s": (cells / total("compute"), "cells/s", len(samples["compute"])),
        "compute_p50_ms": (ms("compute"), "ms", len(samples["compute"])),
        "verify_p50_ms": (ms("verify"), "ms", len(samples["verify"])),
        "oracle_p50_ms": (ms("oracle"), "ms", len(samples["oracle"])),
        "reduced_p50_ms": (ms("reduced"), "ms", len(samples["reduced"])),
        "scan_points_per_s": (points / total("scan"), "points/s", len(samples["scan"])),
    }
    return metrics, {"cycles": cycles, "planned_cycles": planned, "wall_s": wall,
                     "operations": ops, "cells": cells, "scan_points": points,
                     "raw_op_s": raw_total,
                     "samples_ms": {c: [round(1000 * t, 3) for t in samples[c]]
                                    for c in COMMANDS},
                     "kernel_median_s": statistics.median(runner.kernels)}


def count_checks(out: str) -> tuple[int, int]:
    """(checks run, checks failed) in a verify or oracle report; the final
    ``result:`` line is not a check."""
    lines = [ln for ln in out.splitlines() if not ln.startswith("result:")
             and (ln.endswith(": PASS") or ": FAIL" in ln)]
    return len(lines), sum(": FAIL" in ln for ln in lines)


def first_cycle_pass(workload, runner, traced: bool, tag: str) -> dict:
    """Cycle 0, traced or not, each operation checked like any other.
    Returns per-operation exit codes, stdout digests and times; a traced
    pass adds its per-layer metrics and writes its spans."""
    from tracing import Tracer, layer_metrics
    tracer = Tracer() if traced else None
    if tracer is not None:
        runner.speed.on_tick = tracer.exclude
    ops = []
    checks_run = checks_failed = 0
    for k, op in enumerate(workload.cycle(0)):
        out, code, raw, at_reference = runner.run(op, tracer, k)
        if tracer is not None and raw:
            tracer.commit(at_reference / raw)
        if op.command in ("verify", "oracle"):
            run_, failed_ = count_checks(out)
            checks_run += run_
            checks_failed += failed_
        ops.append({"argv": op.argv, "code": code, "raw_s": raw, "s": at_reference,
                    "stdout_sha256": sha256(out.encode()).hexdigest()})
    result = {"ops": ops, "attempted": runner.attempted, "failures": runner.failures}
    if tracer is not None:
        spans_path = OUT / f"{tag}-spans.jsonl"
        tracer.write(spans_path)
        result["spans"] = len(tracer.spans)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
        result["metrics"] = layer_metrics(tracer, checks_run, checks_failed)
    return result


def traced_run(args, tag: str) -> tuple[dict, dict, int, list]:
    """The untraced and the traced pass of cycle 0, each in a fresh process
    of its own; compares their outputs and times."""
    passes = {}
    for name in ("plain", "traced"):
        path = OUT / f"{tag}-{name}.json"
        path.unlink(missing_ok=True)
        subprocess.run([sys.executable, __file__, "--workload", args.workload,
                        "--seed", str(args.seed), "--seconds", str(args.seconds),
                        "--trace", "1", "--pass", name],
                       cwd=ROOT, timeout=PASS_TIMEOUT_S, check=False)
        if not path.exists():
            raise SystemExit(f"perfbench: the {name} pass wrote no result")
        passes[name] = json.loads(path.read_text())
    plain, traced = passes["plain"], passes["traced"]
    failures = plain["failures"] + traced["failures"]
    for a, b in zip(plain["ops"], traced["ops"]):
        if (a["code"], a["stdout_sha256"]) != (b["code"], b["stdout_sha256"]):
            failures.append(f"{' '.join(a['argv'])}: traced output differs "
                            "from untraced output")
            print(f"FAILED {failures[-1]}", file=sys.stderr)
    if len(plain["ops"]) != len(traced["ops"]):
        failures.append("the passes ran different numbers of operations")
    plain_s = sum(op["s"] for op in plain["ops"])
    traced_s = sum(op["s"] for op in traced["ops"])
    n = len(traced["ops"])
    metrics = {k: (v, unit, n) for k, (v, unit) in traced["metrics"].items()}
    metrics["trace.overhead_ratio"] = (traced_s / plain_s, "ratio", n)
    detail = {"operations": n, "untraced_s": plain_s, "traced_s": traced_s,
              "spans": traced["spans"], "spans_file": traced["spans_file"]}
    return metrics, detail, plain["attempted"] + traced["attempted"], failures


def run_workload(args) -> int:
    check_checkout()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace and args.pass_ is None:
        metrics, detail, attempted, failures = traced_run(args, tag)
        return report(args, tag, metrics, detail, attempted, failures, None)

    import workloads
    inputs = OUT / "inputs" / (tag if args.pass_ is None else f"{tag}-{args.pass_}")
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    runner = Runner()
    workload = workloads.make(args.workload, ROOT, args.seed, inputs)
    for op in workload.prelude():
        runner.run(op)
    if args.pass_ is not None:
        result = first_cycle_pass(workload, runner, args.pass_ == "traced", tag)
        (OUT / f"{tag}-{args.pass_}.json").write_text(json.dumps(result) + "\n")
        return 0

    setup_raw, setup = setup_seconds()
    metrics, detail = end_to_end(workload, runner, args.seconds)
    metrics["setup_s"] = (statistics.median(setup), "s", len(setup))
    detail["setup_raw_s"] = setup_raw
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1)
    return report(args, tag, metrics, detail, runner.attempted, runner.failures, setup)


def report(args, tag: str, metrics: dict, detail: dict, attempted: int,
           failures: list, setup) -> int:
    """Write the run record and print every metric, then the result line."""
    failed = len(failures)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "revision": revision(),
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "implementation": platform.python_implementation(),
                    "platform": platform.platform()},
        "metrics": {k: {"value": v, "unit": u, "samples": n}
                    for k, (v, u, n) in metrics.items()},
        "setup_samples_s": setup,
        "fail_ratio": {"failed": failed, "attempted": attempted,
                       "value": failed / attempted},
        "failures": failures, **detail,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"revision {record['revision']}  nproc {os.cpu_count()}  "
          f"python {platform.python_version()}")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit:9s} n={n}")
    print(f"  {'fail_ratio':32s} {failed / attempted:14.6g} "
          f"{'ratio':9s} base={attempted}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload in a fresh process of its own."""
    check_checkout()
    status = 0
    for name in WORKLOADS:
        done = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], cwd=ROOT, check=False)
        status = status or done.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # one pass of a traced run, started by the run itself
    parser.add_argument("--pass", dest="pass_", choices=("plain", "traced"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
