"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines directly. Every comparison is exact integer/rational equality; the
stated runtime budgets are asserted.
"""

import math
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from conespec.cli import ScanSpec, main, run_scan
from conespec.engine import (CurveConfig, GlobalComponent, binom2, curve_table,
                             euler_complement, ordinary_middle_row,
                             reduced_cone_spectrum, thickened_spectrum)
from conespec.formats import parse_singular, parse_vector_text
from conespec.local import (WeightSystem, lattice_count, weighted_spectrum,
                            window_count)
from conespec.oracle import as_reduced_cone, reference_ordinary
from generators import random_ordinary_config, random_reduced_swh_config
from reference import euler_generic_union, product, thicken, weighted_milnor

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"

GOLDEN_CASES = [
    ("conic-pencil.vectors", dict(a=2, b=5, c=2), "conic-pencil_a2_b5_c2.rows"),
    ("cubic-pencil.vectors", dict(a=3, b=2, c=2), "cubic-pencil_a3_b2_c2.rows"),
    ("sextic-pencil.vectors", dict(a=3, b=2, c=1), "sextic-pencil_a3_b2_c1.rows"),
    ("five-lines.vectors", dict(a=4, b=2, c=0), "five-lines_a4_b2_c0.rows"),
    ("five-lines.vectors", dict(a=5, b=1, c=0), "five-lines_a5_b1_c0.rows"),
    ("lines-conic.vectors", dict(a=1, b=1, c=4), "lines-conic_a1_b1_c4.rows"),
]


def report(num, slug, ok, detail=""):
    line = f"criterion {num} {slug}: {'PASS' if ok else 'FAIL'}"
    if detail and not ok:
        line += f" [{detail}]"
    print(line)


def fixture_config(name, params):
    text = (FIXTURES / name).read_text()
    return parse_singular(parse_vector_text(text), params)


def golden_configs():
    return [(name, params, fixture_config(name, params))
            for name, params, _ in GOLDEN_CASES]


def run_compute(capsys, name, params):
    argv = ["compute", str(FIXTURES / name)]
    for key, value in params.items():
        argv += ["--param", f"{key}={value}"]
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def _golden_criterion(capsys, num, slug, cases):
    start = time.monotonic()
    ok = True
    detail = ""
    for name, params, golden in cases:
        code, out = run_compute(capsys, name, params)
        want = (GOLDEN / golden).read_text()
        if code != 0 or out != want:
            ok = False
            detail = f"{golden} differs"
            break
    elapsed = time.monotonic() - start
    if elapsed >= 1.0 * len(cases):
        ok, detail = False, f"took {elapsed:.2f}s"
    report(num, slug, ok, detail)
    assert ok, detail


def test_criterion_1_golden_conic_pencil(capsys):
    _golden_criterion(capsys, 1, "golden-conic-pencil", GOLDEN_CASES[0:1])


def test_criterion_2_golden_cubic_pencil(capsys):
    _golden_criterion(capsys, 2, "golden-cubic-pencil", GOLDEN_CASES[1:2])


def test_criterion_3_golden_sextic_pencil(capsys):
    name, params, golden = GOLDEN_CASES[2]
    code, out = run_compute(capsys, name, params)
    ok = code == 0 and out == (GOLDEN / golden).read_text()
    lines = out.splitlines()
    ok = ok and lines[1] == "e=1: " + ",".join(["9"] * 36 + ["-9"])
    ok = ok and lines[3] == "chi(U)=17"
    report(3, "golden-sextic-pencil", ok)
    assert ok


def test_criterion_4_golden_five_lines_and_scan(capsys):
    start = time.monotonic()
    ok = True
    detail = ""
    for case in GOLDEN_CASES[3:6]:
        name, params, golden = case
        code, out = run_compute(capsys, name, params)
        if code != 0 or out != (GOLDEN / golden).read_text():
            ok, detail = False, f"{golden} differs"

    # the scan must flag exactly the grid points whose i=3 top-row cell is 0
    template = (FIXTURES / "five-lines.vectors").read_text()
    spec = ScanSpec(template=template,
                    ranges={"a": (1, 5), "b": (1, 5), "c": (0, 0)},
                    fixed={}, predicates=("n3d_zero",))
    import io
    buf = io.StringIO()
    run_scan(spec, buf)
    flagged = set()
    for line in buf.getvalue().splitlines()[1:]:
        a, b, c = map(int, line.split(",")[:3])
        flagged.add((a, b, c))
    expected = set()
    for a in range(1, 6):
        for b in range(1, 6):
            cfg = fixture_config("five-lines.vectors", dict(a=a, b=b, c=0))
            if curve_table(cfg).rows[0][2] == 0:
                expected.add((a, b, 0))
    if flagged != expected:
        ok, detail = False, f"scan flags {flagged ^ expected} wrongly"
    if (4, 2, 0) not in flagged or (5, 1, 0) not in flagged:
        ok, detail = False, "expected vanishing points missing"
    elapsed = time.monotonic() - start
    if elapsed >= 4.0:
        ok, detail = False, f"took {elapsed:.2f}s"
    report(4, "golden-five-lines-and-scan", ok, detail)
    assert ok, detail


def test_criterion_5_oracle_equivalence(capsys):
    start = time.monotonic()
    mismatches = 0
    detail = ""

    def check(cfg):
        nonlocal mismatches, detail
        table = curve_table(cfg)
        ref = reference_ordinary(cfg)
        middle = ordinary_middle_row(cfg, table)
        if (table.rows[0] != ref.rows[0] or table.rows[2] != ref.rows[2]
                or list(ref.rows[1]) != middle):
            mismatches += 1
            if not detail:
                detail = f"mismatch on {cfg}"

    for _, params, cfg in golden_configs():
        check(cfg)
    rng = random.Random(20260810)
    for trial in range(500):
        check(random_ordinary_config(rng, with_matrix=(trial % 3 == 0)))
    elapsed = time.monotonic() - start
    ok = mismatches == 0 and elapsed < 60.0
    report(5, "oracle-equivalence", ok,
           detail or (f"took {elapsed:.2f}s" if elapsed >= 60 else ""))
    assert ok, detail


def _representable_degrees(w, wp, dmax):
    out = set()
    for has_w in (0, 1):
        for has_wp in (0, 1):
            c = 0
            while (d := has_w * w + has_wp * wp + c * w * wp) <= dmax:
                if has_w + has_wp + c >= 1 and d > max(w, wp):
                    out.add(d)
                c += 1
    return sorted(out)


def test_criterion_6_local_spectrum_suite():
    start = time.monotonic()
    ok = True
    detail = ""
    pairs = [(w, wp) for w in range(1, 9) for wp in range(w, 9)
             if math.gcd(w, wp) == 1]
    for w, wp in pairs:
        for d in _representable_degrees(w, wp, 60):
            ws = WeightSystem((w, wp), d)
            spec = weighted_spectrum(ws)
            if not (spec.has_valid_support() and spec.is_symmetric()
                    and spec.total() == weighted_milnor(ws)):
                ok, detail = False, f"pair ({w},{wp}) degree {d}"
                break
            if d % (w * wp) == 0:
                split = product(weighted_spectrum(WeightSystem((w,), d)),
                                weighted_spectrum(WeightSystem((wp,), d)))
                if split != spec:
                    ok, detail = False, f"factorization ({w},{wp}) degree {d}"
                    break
        if not ok:
            break
    if ok:
        for d in range(2, 13):
            ws = WeightSystem((1, 1, 1), d)
            spec = weighted_spectrum(ws)
            factor = weighted_spectrum(WeightSystem((1,), d))
            if not (spec.has_valid_support() and spec.is_symmetric()
                    and spec.total() == weighted_milnor(ws)
                    and product(product(factor, factor), factor) == spec):
                ok, detail = False, f"triple degree {d}"
                break
    elapsed = time.monotonic() - start
    if elapsed >= 30.0:
        ok, detail = False, f"took {elapsed:.2f}s"
    report(6, "local-spectrum-suite", ok, detail)
    assert ok, detail


def test_criterion_7_bridge_identity():
    start = time.monotonic()
    ok = True
    detail = ""
    xs = sorted({Fraction(i, d) for d in range(1, 41)
                 for i in range(1, d + 1)})
    pairs = [(w, wp) for w in range(1, 6) for wp in range(w, 6)
             if math.gcd(w, wp) == 1]
    checked = 0
    for w, wp in pairs:
        for dj in _representable_degrees(w, wp, 40):
            spec = weighted_spectrum(WeightSystem((w, wp), dj))
            for x in xs:
                lhs = lattice_count(w, wp, math.ceil(dj * x) - 1)
                rhs = window_count(spec, x)
                checked += 1
                if lhs != rhs:
                    ok, detail = False, f"({w},{wp}) d_j={dj} x={x}"
                    break
            if not ok:
                break
        if not ok:
            break
    elapsed = time.monotonic() - start
    if elapsed >= 30.0:
        ok, detail = False, f"took {elapsed:.2f}s"
    report(7, "bridge-identity", ok,
           detail + (f" ({checked} cases)" if not ok else ""))
    assert ok, detail


def test_criterion_8_row_sum_and_nonnegativity():
    ok_sum = True
    ok_nonneg = True
    detail = ""
    corpus = [cfg for _, _, cfg in golden_configs()]
    rng = random.Random(20260810)
    corpus += [random_ordinary_config(rng, with_matrix=(t % 3 == 0))
               for t in range(500)]
    for cfg in corpus:
        table = curve_table(cfg)
        if not table.row_sums_ok():
            ok_sum = False
            detail = f"row sum broken for {cfg}"
            break
        if not table.nonnegative_ok() and ok_nonneg:
            ok_nonneg = False
            bad = [(i + 1, e) for e in range(3)
                   for i in range(table.d - 1) if table.rows[e][i] < 0]
            detail = (f"negative cell {bad[0]} in a config with components "
                      f"{[(c.degree, c.multiplicity) for c in cfg.components]}")
    ok = ok_sum and ok_nonneg
    report(8, "row-sum-and-nonnegativity", ok, detail)
    if ok_sum and not ok_nonneg:
        pytest.fail(
            "row sums hold everywhere, but nonnegativity at i < d fails on "
            "geometrically plausible configs: the cone germ has a "
            "non-isolated singularity, so its multiplicities are "
            "alternating sums and genuinely go negative (e.g. every column "
            "of a pencil of six concurrent lines must sum to chi(U) = -4; "
            "a doubled line+conic has a -1 at exponent 3/2). First hit: "
            + detail)
    assert ok, detail


def test_criterion_9_thickening_consistency():
    start = time.monotonic()
    ok = True
    detail = ""
    rng = random.Random(4242)
    count = 0
    while count < 50 and ok:
        reduced = random_reduced_swh_config(rng)
        for m in (2, 3):
            cone = as_reduced_cone(thicken(reduced, m))
            transformed = thickened_spectrum(reduced_cone_spectrum(cone), cone)
            table = curve_table(thicken(reduced, m))
            if transformed != table.as_spectrum():
                ok = False
                detail = f"m={m}, config {reduced}"
                break
        count += 1
    elapsed = time.monotonic() - start
    if elapsed >= 30.0:
        ok, detail = False, f"took {elapsed:.2f}s"
    report(9, "thickening-consistency", ok and count >= 50, detail)
    assert ok and count >= 50, detail


def test_criterion_10_euler_closed_forms():
    ok = True
    detail = ""
    for dp in range(3, 13):
        arrangement = CurveConfig(
            components=tuple(GlobalComponent(1, 1) for _ in range(dp)),
            nodes=binom2(dp))
        if euler_complement(arrangement) != binom2(dp - 2):
            ok, detail = False, f"line arrangement d'={dp}"
            break
    if ok:
        def partitions(total, most):
            if total == 0:
                yield ()
                return
            for first in range(min(total, most), 0, -1):
                for rest in partitions(total - first, first):
                    yield (first,) + rest

        for total in range(1, 11):
            for degrees in partitions(total, total):
                nodes = sum(a * b for k, a in enumerate(degrees)
                            for b in degrees[k + 1:])
                cfg = CurveConfig(
                    components=tuple(GlobalComponent(d, 1) for d in degrees),
                    nodes=nodes)
                if euler_complement(cfg) != euler_generic_union(degrees):
                    ok, detail = False, f"degrees {degrees}"
                    break
            if not ok:
                break
    report(10, "euler-closed-forms", ok, detail)
    assert ok, detail
