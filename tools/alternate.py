"""Time one case on two source trees, alternating, in one interpreter or
in fresh processes.

Usage::

    python3 tools/alternate.py CASE TREE_A TREE_B [--rounds N] [--repeat K]
    python3 tools/alternate.py CASE TREE_A TREE_B --cold [--rounds N]

Both trees are timed in this one interpreter: each tree's ``src/conespec``
is imported as a package of its own name (``conespec_a``, ``conespec_b``),
and each round gives each tree one untimed run, which warms it, and K
timed ones, and takes the best; which tree goes first alternates from
round to round. The inputs are this checkout's fixtures, the same for
both trees. Printed: one line per round (A's and B's seconds and B/A),
then the median of B/A and the number of rounds in which B took less time.

One interpreter removes the process clusters: on a shared machine a whole
process lands in a fast or a slow cluster, about 1.5x apart, on either
tree, so a round that ran each tree in a fresh interpreter read anywhere
from 0.6 to 1.7. Here both sides of every round run in the same process
and share its fast or slow phase. They also share one heap (and one
garbage collector, and the standard library's modules), so an allocation
pattern of one tree can move the other's timing; a tree against itself
shows how much. A change to interpreter-wide state (garbage-collector
settings, ``sys`` flags, an import-time side effect) is not isolated here:
time it with ``--cold``.

``--cold`` times whole commands instead: each round runs every argv of the
case once per tree as a fresh ``python -S -m conespec`` process, trees in
alternating order, and takes the summed wall time of that tree's
processes. ``-S`` keeps ``site`` out: a site-packages ``.pth`` file may
import modules (``re``, ``enum``, ``functools``) before any command code
runs, which would hide a cut of those imports. Bytecode is cached under a
temporary ``PYTHONPYCACHEPREFIX`` (``PYTHONDONTWRITEBYTECODE`` is dropped
for these processes), written by one untimed run per tree, so every timed
process finds it.
Printed: one line per round, then each tree's median and minimum
milliseconds and the median of B/A. Single rounds land in the process
clusters above; read the medians and minima of many rounds.

Cases (``CASES``):

* ``scan``: ``scan`` of ``five-lines`` over a = 1..30, b = 1..30, c = 1;
* ``reduced``: ``reduced`` at n = 3, d' = 40, power 45, four points;
* ``ordinary-reduced``: ``reduced`` on the n = 2 view of
  ``sextic-pencil`` (its reduced curve, d' = 19, with four ordinary
  points of multiplicities 10, 10, 9 and 9) at power 53, the
  d' * power ~ 1000 of the benchmark's ``ordinary-large`` reduced views;
* ``reduced-views``: three ``reduced`` runs with the shapes of the
  benchmark's ``ordinary-large`` reduced views: d' = 8 at power 125 with
  four ordinary points of multiplicity 4 and one of multiplicity 2
  (a conic pencil's view), d' = 5 at power 199 with two points of
  multiplicity 3 and four of multiplicity 2, and the input of
  ``ordinary-reduced``;
* ``csv``: ``compute --format csv`` of ``sextic-pencil`` at a = 148,
  b = c = 1 (d = 901);
* ``rows``: ``compute --format rows`` of ``five-lines`` at a = 996,
  b = 500, c = 1 (d = 1500);
* ``scan-grid``: the three scans of the first cycle of the benchmark's
  ``scan-grid`` workload, 2025 grid points: ``five-lines`` over
  a, b = 1..30 at c = 0; ``five-lines`` over a = 1..30, c = 0..29 at
  b = 1 with ``--predicate n3d_zero``; ``lines-conic`` over a = 1..15,
  b = 11..25 at c = 2;
* ``verify``: ``verify`` of ordinary vector fixtures that pass every
  check: ``sextic-pencil`` at a = 148, b = c = 1 (d = 901),
  ``quartic-pencil`` at a = 300, b = c = 1 (d = 1206) and
  ``sextic-pencil`` at a = 248, b = c = 1 (d = 1501);
* ``oracle``: ``oracle`` of ``sextic-pencil`` at a = 300, b = c = 1
  (d = 1813) and of ``five-lines`` at a = 996, b = 500, c = 1 (d = 1500);
* ``weighted-oracle``: ``oracle`` of three native curves of reduced degree
  d' = 24 with the semi-weighted-homogeneous points of the benchmark's
  ``weighted-reduced`` workload: a reduced curve, a curve whose
  components all have multiplicity 25 and one with multiplicities 30, 40
  and 50;
* ``weighted-verify``: ``verify`` of the five kinds of the benchmark's
  ``weighted-reduced`` cycle: the three curves of ``weighted-oracle``, a
  reduced input at n = 3, d' = 40, power 46 with four Brieskorn-Pham
  points (exponents (2, 3, 7), (3, 3, 4), (2, 5, 5) and (3, 3, 5)), and
  the n = 2 view of the reduced curve of ``weighted-oracle`` (d' = 24,
  one weight system per point and one node spectrum per node) at power
  25;
* ``tiny``: ``scan`` of ``five-lines`` over a 2 x 2 grid;
* ``small``: ``compute``, ``verify`` and ``oracle`` of each of the three
  pencils at d = 120 with three ``--param``, the small tables of the
  benchmark's ``scan-grid`` workload: ``conic-pencil`` at a = 24, b = 69,
  ``cubic-pencil`` at a = 20, b = 56 and ``quartic-pencil`` at a = 16,
  b = 51, each with c = 1.

Only the standard library is used.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

REDUCED = ("reduced n=3 degree=40 power=45\n"
           "localwh weights=6,4,3 degree=12\n"
           "localwh weights=15,10,6 degree=30\n"
           "localwh weights=3,3,2 degree=6\n"
           "localwh weights=3,2,2 degree=6\n")
ORDINARY_REDUCED = ("reduced n=2 degree=19 power=53\n"
                    "localwh weights=1,1 degree=10\n"
                    "localwh weights=1,1 degree=10\n"
                    "localwh weights=1,1 degree=9\n"
                    "localwh weights=1,1 degree=9\n")
CONIC_VIEW = ("reduced n=2 degree=8 power=125\n"
              + "localwh weights=1,1 degree=4\n" * 4
              + "localwh weights=1,1 degree=2\n")
QUINTIC_VIEW = ("reduced n=2 degree=5 power=199\n"
                + "localwh weights=1,1 degree=3\n" * 2
                + "localwh weights=1,1 degree=2\n" * 4)
# the points of the weighted curves below, with their branch multiplicities
WEIGHTED_POINTS = ("point weights=2,3 branches=(6:{0})\n"
                   "point weights=2,3 branches=(6:{1})\n"
                   "point weights=1,3 branches=(3:{2})(3:{3})\n"
                   "point weights=1,1 branches=(1:{4})(1:{5})(1:{6})\n")
WEIGHTED = ("component degree=12 mult=1\ncomponent degree=3 mult=1\n"
            "component degree=9 mult=1\n"
            + WEIGHTED_POINTS.format(*[1] * 7)
            + "point weights=5,7 branches=(35:1)\n"
            "point weights=2,7 branches=(2:1)(14:1)\nnodes 5\n")
THICKENED = ("component degree=6 mult=25\ncomponent degree=9 mult=25\n"
             "component degree=9 mult=25\n"
             + WEIGHTED_POINTS.format(*[25] * 7)
             + "point weights=5,7 branches=(35:25)\n"
             "point weights=2,5 branches=(2:25)(10:25)\nnodes 8\n")
MIXED = ("component degree=9 mult=30\ncomponent degree=9 mult=40\n"
         "component degree=6 mult=50\n"
         + WEIGHTED_POINTS.format(50, 40, 30, 50, 40, 50, 30)
         + "point weights=4,7 branches=(28:30)\n"
         "point weights=3,4 branches=(3:30)(12:50)\nnodes 7\n")
BRIESKORN_N3 = ("reduced n=3 degree=40 power=46\n"
                "localwh weights=21,14,6 degree=42\n"
                "localwh weights=4,4,3 degree=12\n"
                "localwh weights=5,2,2 degree=10\n"
                "localwh weights=5,5,3 degree=15\n")
WEIGHTED_VIEW = ("reduced n=2 degree=24 power=25\n"
                 + "localwh weights=2,3 degree=6\n" * 2
                 + "localwh weights=1,3 degree=6\n"
                 "localwh weights=1,1 degree=3\n"
                 "localwh weights=5,7 degree=35\n"
                 "localwh weights=2,7 degree=16\n"
                 + "localwh weights=1,1 degree=2\n" * 5)
# "{name}" in an argv of CASES is a file holding INPUTS[name]
INPUTS = {"reduced": REDUCED, "ordinary": ORDINARY_REDUCED,
          "conic": CONIC_VIEW, "quintic": QUINTIC_VIEW,
          "weighted": WEIGHTED, "thickened": THICKENED, "mixed": MIXED,
          "brieskorn": BRIESKORN_N3, "weighted_view": WEIGHTED_VIEW}


def _scan(name: str, *args: str) -> list[str]:
    return ["scan", str(FIXTURES / f"{name}.vectors"), *args]


def _fixture(command: str, name: str, a: int, b: int = 1) -> list[str]:
    return [command, str(FIXTURES / f"{name}.vectors"), "--param", f"a={a}",
            "--param", f"b={b}", "--param", "c=1"]


def _five_lines(hi: int) -> list[str]:
    return _scan("five-lines", "--range", f"a=1..{hi}", "--range",
                 f"b=1..{hi}", "--param", "c=1")


# case -> the argvs of `conespec.cli.main` that one run makes, in turn
CASES = {
    "scan": [_five_lines(30)],
    "scan-grid": [
        _scan("five-lines", "--range", "a=1..30", "--range", "b=1..30",
              "--param", "c=0"),
        _scan("five-lines", "--range", "a=1..30", "--range", "c=0..29",
              "--param", "b=1", "--predicate", "n3d_zero"),
        _scan("lines-conic", "--range", "a=1..15", "--range", "b=11..25",
              "--param", "c=2")],
    "reduced": [["reduced", "{reduced}"]],
    "ordinary-reduced": [["reduced", "{ordinary}"]],
    "reduced-views": [["reduced", "{conic}"], ["reduced", "{quintic}"],
                      ["reduced", "{ordinary}"]],
    "csv": [["compute", str(FIXTURES / "sextic-pencil.vectors"),
             "--param", "a=148", "--param", "b=1", "--param", "c=1",
             "--format", "csv"]],
    "rows": [["compute", str(FIXTURES / "five-lines.vectors"),
              "--param", "a=996", "--param", "b=500", "--param", "c=1",
              "--format", "rows"]],
    "verify": [_fixture("verify", "sextic-pencil", 148),
               _fixture("verify", "quartic-pencil", 300),
               _fixture("verify", "sextic-pencil", 248)],
    "oracle": [_fixture("oracle", "sextic-pencil", 300),
               _fixture("oracle", "five-lines", 996, 500)],
    "weighted-oracle": [["oracle", "{weighted}"], ["oracle", "{thickened}"],
                        ["oracle", "{mixed}"]],
    "weighted-verify": [["verify", "{weighted}"], ["verify", "{thickened}"],
                        ["verify", "{mixed}"], ["verify", "{brieskorn}"],
                        ["verify", "{weighted_view}"]],
    "tiny": [_five_lines(2)],
    "small": [_fixture(command, name, a, b)
              for name, a, b in (("conic-pencil", 24, 69),
                                 ("cubic-pencil", 20, 56),
                                 ("quartic-pencil", 16, 51))
              for command in ("compute", "verify", "oracle")],
}


def case_argvs(case: str, workdir: str) -> list[list[str]]:
    """The argvs of `case`, each ``{name}`` a file of `workdir` written with
    INPUTS[name]."""
    paths = {name: Path(workdir) / f"{name}.cfg" for name in INPUTS}
    for name, path in paths.items():
        path.write_text(INPUTS[name])
    return [[arg.format(**paths) for arg in argv] for argv in CASES[case]]


def best_of(main, argvs: list[list[str]], repeat: int) -> float:
    """The best of `repeat` timed runs of `argvs` through `main`, after one
    untimed run."""
    best = float("inf")
    for k in range(repeat + 1):
        sink = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            statuses = [main(argv) for argv in argvs]
        took = time.perf_counter() - start
        if any(statuses):
            raise SystemExit(f"alternate: {argvs} exited {statuses}")
        if k:
            best = min(best, took)
    return best


def load_main(tree: str, name: str):
    """`cli.main` of `tree`'s ``src/conespec``, imported as package `name`."""
    package = Path(tree) / "src" / "conespec"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py",
        submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli").main


def cold(case: str, trees: list[str], rounds: int) -> None:
    """Print each round's wall milliseconds of the case's argvs as fresh
    ``python -S -m conespec`` processes per tree, then per tree the median
    and minimum, and the median of B/A."""
    with tempfile.TemporaryDirectory() as workdir:
        argvs = case_argvs(case, workdir)
        cache = str(Path(workdir) / "pycache")

        def run_tree(tree: str) -> float:
            env = dict(os.environ, PYTHONPYCACHEPREFIX=cache,
                       PYTHONPATH=str(Path(tree) / "src"))
            env.pop("PYTHONDONTWRITEBYTECODE", None)
            took = 0.0
            for argv in argvs:
                start = time.perf_counter()
                done = subprocess.run([sys.executable, "-S", "-m",
                                       "conespec", *argv], env=env,
                                      stdout=subprocess.DEVNULL)
                took += time.perf_counter() - start
                if done.returncode:
                    raise SystemExit(f"alternate: {' '.join(argv)} exited "
                                     f"{done.returncode} on {tree}")
            return took * 1000

        for tree in trees:
            run_tree(tree)
        times: dict[str, list[float]] = {tree: [] for tree in trees}
        for k in range(rounds):
            for tree in (trees[::-1] if k % 2 else trees):
                times[tree].append(run_tree(tree))
            a, b = (times[tree][-1] for tree in trees)
            print(f"round {k + 1}: A {a:.1f} ms  B {b:.1f} ms  "
                  f"B/A {b / a:.3f}")
    for label, tree in zip("AB", trees):
        print(f"{label}: median {statistics.median(times[tree]):.1f} ms, "
              f"minimum {min(times[tree]):.1f} ms")
    ratios = [b / a for a, b in zip(*times.values())]
    print(f"median B/A: {statistics.median(ratios):.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("case", choices=sorted(CASES))
    parser.add_argument("trees", nargs=2, metavar="TREE")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--cold", action="store_true",
                        help="time fresh `python -S -m conespec` "
                             "processes")
    args = parser.parse_args(argv)
    if args.cold:
        cold(args.case, args.trees, args.rounds)
        return 0
    mains = [load_main(tree, f"conespec_{label}")
             for label, tree in zip("ab", args.trees)]
    ratios, wins = [], 0
    with tempfile.TemporaryDirectory() as workdir:
        argvs = case_argvs(args.case, workdir)

        def timed(side: int) -> float:
            return best_of(mains[side], argvs, args.repeat)

        for k in range(args.rounds):
            if k % 2:
                tb, ta = timed(1), timed(0)
            else:
                ta, tb = timed(0), timed(1)
            ratios.append(tb / ta)
            wins += tb < ta
            print(f"round {k + 1}: A {ta:.6f} s  B {tb:.6f} s  "
                  f"B/A {tb / ta:.3f}")
    print(f"median B/A: {statistics.median(ratios):.3f}")
    print(f"B faster: {wins} of {args.rounds}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
