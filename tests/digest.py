"""One digest of the CLI's behaviour on a fixed, seeded corpus.

Usage::

    python3 tests/digest.py SRC [--seed N]

`conespec` is imported from the directory SRC (for example ``src`` of this
checkout, or of another one), and the input generators from this checkout,
so the same inputs go to two versions of the package and their digests can
be compared. The inputs are written to a temporary directory:

* the shipped fixtures, the vector ones at a few bindings;
* seeded configs from the three generators of ``generators.py`` and
  constant-multiplicity thickenings of the reduced ones, as native text
  (``reference.emit_native``);
* the n = 2 ``reduced`` view of every one of them whose multiplicities are
  all equal;
* seeded reduced cones at n = 1, 3 and 4 whose points are Brieskorn-Pham
  germs (``localwh`` lines), half of them at power 1 and half at a power
  above 1;
* seeded ordinary configs whose incidence pairs are redrawn, so that the
  incidence middle row differs from the balance row by a nonzero constant.

`conespec.cli.main` runs in-process on each: ``compute`` (rows, csv and
``--middle cor2``), ``verify`` and ``oracle`` on a curve, ``reduced``,
``verify`` and ``oracle`` on a reduced view, ``reduced`` and ``verify`` on a
Brieskorn-Pham cone, and ``compute --middle cor2``, ``verify`` and
``oracle`` on a redrawn-incidence config. ``scan`` runs on the vector
fixtures over small grids, with and without a predicate; on each reduced
generator curve written as a native template whose every multiplicity is
``m``, over m = 1..3; on one native template whose slots are parenthesized
expressions with spaces, ``div``, unary minus and a non-ASCII name; and on
one native template that fails at one grid point only. The script prints
the number of calls and one SHA-256 over (case, argv, exit code, stdout,
stderr) of every call. It uses only the standard library and is not
collected by pytest; ``tests/test_digest.py`` runs `corpus_digest` on this
checkout at the default seed and pins both values.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import re
import shutil
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

TESTS = Path(__file__).resolve().parent
FIXTURES = TESTS.parent / "fixtures"

BINDINGS = ((1, 1, 0), (2, 3, 1), (3, 2, 2))
CONFIGS_PER_GENERATOR = 20
CURVE_COMMANDS = (("compute",), ("compute", "--format", "csv"),
                  ("compute", "--middle", "cor2"), ("verify",), ("oracle",))
REDUCED_COMMANDS = (("reduced",), ("verify",), ("oracle",))
BRIESKORN_DIMS = (1, 3, 4)
BRIESKORN_CONFIGS = 6           # per dimension; every other one at power 1
BRIESKORN_COMMANDS = (("reduced",), ("verify",))
REDRAWN_CONFIGS = 4
REDRAWN_COMMANDS = (("compute", "--middle", "cor2"), ("verify",), ("oracle",))
SCAN_GRID = ("--range", "a=1..3", "--range", "b=1..2", "--param", "c=1")
SCAN_PREDICATES = ((), ("--predicate", "n3d_zero"))
# slots that are not one literal or name: the tokenizer keeps each
# parenthesized group whole and the expression parser compiles it
PAREN_SCAN = ("component degree=( m + 1 ) mult=(\u00e9 div 2)\n"
              "component degree=-(-(m)) mult=1 count=( 2 - 1 )\n"
              "point weights=1,1 branches=(1:( \u00e9 div 2 ))(1: 1)\n"
              "nodes (m * (\u00e9 - 1) div 3)\n")
# the last grid point, a = 2, gives a component of degree 0
FAILING_SCAN = "component degree=1 mult=1\ncomponent degree=2-a mult=1\n"


def reduced_view(cfg):
    """The n = 2 reduced-cone input of a curve whose multiplicities are all
    m, built here from the public API: the local spectra, one {1:1} per
    node, and power m; None when the multiplicities differ."""
    from conespec.engine import ReducedConeConfig
    from conespec.spectrum import SpectrumVector
    mults = ({c.multiplicity for c in cfg.components}
             | {b.multiplicity for p in cfg.points for b in p.branches})
    if len(mults) != 1:
        return None
    spectra = [p.local_spectrum() for p in cfg.points]
    spectra += [SpectrumVector({Fraction(1): 1}, ambient_dim=2)] * cfg.nodes
    return ReducedConeConfig(2, cfg.reduced_degree, tuple(spectra),
                             power=mults.pop())


def brieskorn_text(rng: random.Random, n: int, power: int) -> str:
    """Native text of a reduced cone in projective n-space with one to three
    Brieskorn-Pham points x_1^a_1 + ... + x_n^a_n: weights lcm/a_j, degree
    lcm of the a_j."""
    lines = [f"reduced n={n} degree={rng.randint(2, 20)} power={power}"]
    for _ in range(rng.randint(1, 3)):
        exponents = [rng.randint(2, 6) for _ in range(n)]
        lcm = math.lcm(*exponents)
        weights = ",".join(str(lcm // a) for a in exponents)
        lines.append(f"localwh weights={weights} degree={lcm}")
    return "\n".join(lines) + "\n"


def cases(workdir: Path, seed: int):
    """(case, argv) of every call, with the input files written to workdir
    and named relative to it."""
    from generators import (random_mixed_swh_config, random_ordinary_config,
                            random_redrawn_incidence_config,
                            random_reduced_swh_config)
    from reference import emit_native, thicken

    out = []
    for path in sorted(FIXTURES.iterdir()):
        shutil.copy(path, workdir / path.name)
        if path.suffix == ".vectors":
            for a, b, c in BINDINGS:
                params = ["--param", f"a={a}", "--param", f"b={b}",
                          "--param", f"c={c}"]
                out += [(f"{path.name}:{a},{b},{c}", [*cmd, path.name, *params])
                        for cmd in CURVE_COMMANDS]
            out += [(f"{path.name}:scan",
                     ["scan", path.name, *SCAN_GRID, *predicate])
                    for predicate in SCAN_PREDICATES]
        else:
            commands = (REDUCED_COMMANDS
                        if "reduced" in path.read_text() else CURVE_COMMANDS)
            out += [(path.name, [*cmd, path.name]) for cmd in commands]

    rng = random.Random(seed)
    curves = []
    for make in (random_ordinary_config, random_reduced_swh_config,
                 random_mixed_swh_config):
        for k in range(CONFIGS_PER_GENERATOR):
            cfg = make(rng)
            curves.append((f"{make.__name__}-{k}", cfg))
            if make is random_reduced_swh_config:
                curves += [(f"{make.__name__}-{k}-m{m}", thicken(cfg, m))
                           for m in (2, 3)]
                name = f"{make.__name__}-{k}-template"
                (workdir / f"{name}.cfg").write_text(re.sub(
                    r":\d+\)", ":m)",
                    re.sub(r"mult=\d+", "mult=m", emit_native(cfg))))
                out.append((name,
                            ["scan", f"{name}.cfg", "--range", "m=1..3"]))
    for name, cfg in curves:
        (workdir / f"{name}.cfg").write_text(emit_native(cfg))
        out += [(name, [*cmd, f"{name}.cfg"]) for cmd in CURVE_COMMANDS]
        view = reduced_view(cfg)
        if view is not None:
            (workdir / f"{name}.reduced.cfg").write_text(emit_native(view))
            out += [(f"{name}.reduced", [*cmd, f"{name}.reduced.cfg"])
                    for cmd in REDUCED_COMMANDS]
    for n in BRIESKORN_DIMS:
        for k in range(BRIESKORN_CONFIGS):
            name = f"brieskorn-n{n}-{k}"
            power = 1 if k % 2 == 0 else rng.randint(2, 12)
            (workdir / f"{name}.cfg").write_text(brieskorn_text(rng, n, power))
            out += [(name, [*cmd, f"{name}.cfg"]) for cmd in BRIESKORN_COMMANDS]
    for k in range(REDRAWN_CONFIGS):
        name = f"redrawn-incidence-{k}"
        (workdir / f"{name}.cfg").write_text(
            emit_native(random_redrawn_incidence_config(rng)))
        out += [(name, [*cmd, f"{name}.cfg"]) for cmd in REDRAWN_COMMANDS]
    (workdir / "paren-scan.cfg").write_text(PAREN_SCAN)
    out.append(("paren-scan", ["scan", "paren-scan.cfg", "--range", "m=1..3",
                               "--param", "\u00e9=4"]))
    (workdir / "failing-scan.cfg").write_text(FAILING_SCAN)
    out.append(("failing-scan",
                ["scan", "failing-scan.cfg", "--range", "a=0..2"]))
    return out


def run(main, argv) -> tuple[object, str, str]:
    """Exit code, stdout and stderr of one in-process call."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:    # an escaped error is behaviour too
            code = f"raised {type(exc).__name__}: {exc}"
    return code, stdout.getvalue(), stderr.getvalue()


def corpus_digest(seed: int = 0) -> tuple[int, str]:
    """(number of calls, SHA-256 hex digest) of the corpus at `seed`, run
    through the `conespec` and the generators that are importable now."""
    from conespec.cli import main as cli_main

    digest = hashlib.sha256()
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            calls = cases(Path(tmp), seed)
            for case, call in calls:
                code, out, err = run(cli_main, call)
                record = json.dumps([case, call, code, out, err])
                digest.update(record.encode() + b"\n")
        finally:
            os.chdir(here)
    return len(calls), digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", help="directory that holds the conespec package")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(Path(args.src).resolve()), str(TESTS)]
    calls, hexdigest = corpus_digest(args.seed)
    print(f"calls: {calls}")
    print(f"sha256: {hexdigest}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
