"""Independent implementations and the checks of ``verify`` and ``oracle``.

`reference_ordinary` is a deliberately literal array-walking program for
ordinary-singularity configurations, kept independent of the engine module.
It walks every component, point and branch separately, row by row over the
columns i in [1, d], in integers over the degree d: a value v = num/d is
carried as its numerator, and its ceiling is the exact -(-num // d). It
computes every column, with no period tiled when the multiplicities share a
factor, so `cross_check` checks the engine's tiling cell by cell. Within
one call it shares only whole rows of equal inputs: a ceiling row per
distinct multiplicity and a point's ceiling row per distinct branch list;
every component still adds its own shift row and every point still
subtracts its own three rows. `cross_check` runs the engine against it and
against the independent counters and reports the first differing cell;
`verify` runs the invariants that apply to a config. Both return a
`CheckReport` of kinded checks.

The counters are independent of the engine's too: `brute_lattice_row`
enumerates where `local.lattice_row` divides a generating function, and
`composition_coeffs` counts compositions in closed form, a sum of
binomials, where `smooth_cone_coeffs` divides a series.
"""

from __future__ import annotations

from itertools import chain
from math import comb
from operator import le

from ._record import Record
from .engine import (ConeSpectrumTable, CurveConfig, ReducedConeConfig,
                     _period_rows, _power_row, _spectrum_table, _table,
                     curve_table, incidence_consistent, ordinary_middle_row,
                     reduced_cone_spectrum, smooth_cone_coeffs)
from .local import lattice_row
from .spectrum import Numerators, SpectrumVector


def brute_lattice(w: int, wp: int, bound: int) -> int:
    """Literal double loop counting w*m1 + wp*m2 <= bound over m1, m2 >= 1."""
    total = 0
    for m1 in range(1, max(bound, 0) + 1):
        for m2 in range(1, max(bound, 0) + 1):
            if w * m1 + wp * m2 <= bound:
                total += 1
    return total


def brute_lattice_row(w: int, wp: int, top: int) -> list[int]:
    """row[b] = #{m1, m2 >= 1 : w*m1 + wp*m2 <= b} for b in [0, top], by
    literal enumeration: each pair with w*m1 + wp*m2 <= top is listed once
    and counted at its value, then the counts are summed up to each b."""
    hits = [0] * (top + 1)
    m1 = 1
    while w * m1 + wp <= top:
        m2 = 1
        while w * m1 + wp * m2 <= top:
            hits[w * m1 + wp * m2] += 1
            m2 += 1
        m1 += 1
    row, total = [], 0
    for count in hits:
        total += count
        row.append(total)
    return row


def composition_coeffs(dprime: int, n: int) -> list[int]:
    """The number of compositions of s into n+1 parts in [1, dprime-1], for
    s from n+1 to (n+1)(dprime-1): the coefficients of
    (t + ... + t^(dprime-1))^(n+1), aligned as `smooth_cone_coeffs` aligns
    them. By inclusion-exclusion over the k parts that exceed dprime-1, the
    count is sum_k (-1)^k C(n+1, k) C(s - k(dprime-1) - 1, n): one binomial
    row for k = 0, then one correction pass per k >= 1."""
    if dprime == 1:
        return []
    part, size = dprime - 1, (n + 1) * (dprime - 2) + 1
    free = [comb(n + j, n) for j in range(size)]
    coeffs = free.copy()
    for k in range(1, (size - 1) // part + 1):      # k <= n
        f, start = (-1) ** k * comb(n + 1, k), k * part
        coeffs[start:] = [c + f * x for c, x in zip(coeffs[start:], free)]
    return coeffs


class ReferenceState:
    """Raw working arrays of the reference program: one row per point in
    `al` (branch count followed by branch multiplicities), expanded degree
    and multiplicity lists, the 4 x d result matrix `sp` (three rows plus
    their running sum), and the `dsq`, `od`, `chi` accumulators."""

    def __init__(self):
        self.al: list[list[int]] = []
        self.ds: list[int] = []
        self.as_: list[int] = []
        self.sp: list[list[int]] = []
        self.dsq = 0
        self.od = 0
        self.chi = 0


def reference_state(cfg: CurveConfig) -> ReferenceState:
    """Run the reference computation for an ordinary configuration, a whole
    row over i in [1, d] at a time. Shared within the call: one exact
    ceiling row per distinct multiplicity, and one ceiling row of a point's
    residue sum per distinct branch list (as given, not sorted). Every
    component still adds its own shift row, and every point subtracts its
    own three rows, reading its binomials from a table over q in [0, n].
    A ceiling of num/d is the exact integer division -(-num // d)."""
    if not cfg.is_ordinary():
        raise ValueError("the reference program handles ordinary points only")
    if cfg.incidence is None:
        raise ValueError("the reference program needs incidence data "
                         "(an empty multiset is fine)")
    state = ReferenceState()
    for comp in cfg.components:
        state.ds.append(comp.degree)
        state.as_.append(comp.multiplicity)
    for point in cfg.points:
        row = [point.branch_count]
        row.extend(b.multiplicity for b in point.branches)
        state.al.append(row)
    state.od = cfg.nodes

    weight = 0
    for count, value in cfg.incidence.pairs:
        weight += -count * value * (value - 1) // 2
    state.dsq = weight
    for dk in state.ds:
        state.dsq += dk * (dk - 1) // 2

    d = sum(dk * ak for dk, ak in zip(state.ds, state.as_))
    dr = sum(state.ds)
    cols = range(1, d + 1)
    # the ceilings of a*i/d over i in [1, d] once per distinct multiplicity
    # a of a component or a branch, and d times the (0, 1] residue
    # a*i/d - ceil + 1 once per distinct branch multiplicity
    ceils: dict[int, list[int]] = {}
    residues: dict[int, list[int]] = {}
    branch_mults = {m for row in state.al for m in row[1:]}
    for a in branch_mults | set(state.as_):
        nums = range(a, a * d + 1, a)
        ceils[a] = [-(-num // d) for num in nums]
        if a in branch_mults:
            residues[a] = [v - d * c + d for v, c in zip(nums, ceils[a])]
    s = [0] * d
    for dk, ak in zip(state.ds, state.as_):
        s = [sk + dk * (c - 1) for sk, c in zip(s, ceils[ak])]
    io = [i - sk for i, sk in zip(cols, s)]
    sp0 = [(t - 1) * (t - 2) // 2 for t in io]
    sp1 = [state.dsq + (t - 1) * (dr - t - 1) for t in io]
    sp2 = [(dr - t - 1) * (dr - t - 2) // 2 for t in io]
    points: dict[tuple[int, ...], list[int]] = {}
    for row in state.al:
        key = tuple(row[1:])
        if key not in points:
            # d times the sum of the residues of the point's branches
            ga = list(map(sum, zip(*(residues[mult] for mult in key))))
            points[key] = [-(-num // d) for num in ga]
        p = points[key]
        n = row[0]
        b0 = [(q - 1) * (q - 2) // 2 for q in range(n + 1)]
        b1 = [(q - 1) * (n - q) for q in range(n + 1)]
        b2 = [(n - q) * (n - q - 1) // 2 for q in range(n + 1)]
        sp0 = [x - b0[q] for x, q in zip(sp0, p)]
        sp1 = [x - b1[q] for x, q in zip(sp1, p)]
        sp2 = [x - b2[q] for x, q in zip(sp2, p)]
    state.sp = [sp0, sp1, sp2, [x + y + z for x, y, z in zip(sp0, sp1, sp2)]]

    p = sum((row[0] - 1) ** 2 for row in state.al)
    state.chi = dr * (dr - 3) + 3 - p - state.od
    return state


def reference_ordinary(cfg: CurveConfig) -> ConeSpectrumTable:
    """Reference table for an ordinary configuration. The never-printed
    integer-exponent cell (e=2, i=d) follows the support convention, so the
    full rows are directly comparable with the engine's."""
    state = reference_state(cfg)
    d = sum(dk * ak for dk, ak in zip(state.ds, state.as_))
    dr = sum(state.ds)
    row2 = list(state.sp[2])
    row2[d - 1] -= 1
    return ConeSpectrumTable(d, dr, state.chi,
                             (state.sp[0], state.sp[1], row2))


class CheckResult(Record):
    """One named check. `kind` is "identity" (holds by construction),
    "oracle" (independent recomputation) or "expectation" (may fail)."""

    __slots__ = ("name", "passed", "detail", "kind")

    def __init__(self, name: str, passed: bool, detail: str = "",
                 kind: str = "oracle"):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "detail", detail)
        object.__setattr__(self, "kind", kind)


class CheckReport(Record):
    __slots__ = ("checks", "note")

    def __init__(self, checks: tuple[CheckResult, ...], note: str = ""):
        object.__setattr__(self, "checks", checks)
        object.__setattr__(self, "note", note)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def render(self, words=("all-pass", "MISMATCH"), detail="{}") -> str:
        """``#`` note, check lines (failing details in the `detail` form),
        ``result:`` with words[0] if every check passed, else words[1]."""
        lines = [f"# {self.note}"] if self.note else []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            suffix = (" " + detail.format(c.detail)
                      if c.detail and not c.passed else "")
            lines.append(f"{c.name}: {status}{suffix}")
        lines.append("result: " + (words[0] if self.passed else words[1]))
        return "\n".join(lines) + "\n"

    def record(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [{"name": c.name, "kind": c.kind, "passed": c.passed,
                        "detail": c.detail}
                       for c in self.checks],
        }


def _first_row_mismatch(name, got, want, e):
    got, want = tuple(got), tuple(want)
    if got == want:
        return CheckResult(name, True)
    if len(got) != len(want):
        return CheckResult(name, False, f"row lengths differ (e={e}, "
                           f"expected={len(want)}, actual={len(got)})")
    i, w, g = next((i, w, g) for i, (g, w) in enumerate(zip(got, want), start=1)
                   if g != w)
    return CheckResult(name, False, f"first mismatch at (i={i}, e={e}, "
                                    f"expected={w}, actual={g})")


def has_reference(cfg: CurveConfig) -> bool:
    """Whether `reference_ordinary` applies: ordinary points, incidence data."""
    return cfg.is_ordinary() and cfg.incidence is not None


def cross_check(cfg: CurveConfig) -> CheckReport:
    """Differential test of the engine on one configuration (``oracle``).

    Ordinary configs with incidence data are checked cell by cell against the
    reference program; other (weighted) configs fall back to the engine-only
    checks, which the report's note names: the column-sum identity and (for
    reduced configs) the rows recomputed from the local spectra. Both also
    run the checks of the engine's counters: smooth-cone coefficients
    against a closed-form composition count, and lattice rows against
    literal enumeration.

    ``lattice-counts`` compares `lattice_row` with `brute_lattice_row` once
    per distinct weight pair (w, w'), up to the bound d_j - 1 of its largest
    weighted degree d_j. That covers every count the table reads, since the
    engine's rows stop at d_j - 1 and an entry does not depend on where its
    row stops.
    """
    checks: list[CheckResult] = []
    note = ""
    table = curve_table(cfg)

    if has_reference(cfg):
        ref = reference_ordinary(cfg)
        for e in (0, 2):
            checks.append(_first_row_mismatch(f"rows-e{e}", table.rows[e],
                                              ref.rows[e], e))
        middle = ordinary_middle_row(cfg, table)
        checks.append(_first_row_mismatch("middle-incidence", middle,
                                          ref.rows[1], 1))
        checks.append(_first_row_mismatch("middle-balance", table.rows[1],
                                          middle, 1))
        checks.append(CheckResult(
            "chi", table.chi_u == ref.chi_u,
            f"expected={ref.chi_u}, actual={table.chi_u}"))
        ref_table = ConeSpectrumTable(ref.d, ref.dprime, ref.chi_u,
                                      (ref.rows[0], middle, ref.rows[2]))
        checks.append(CheckResult(
            "row-sum", ref_table.row_sums_ok(),
            "column sums disagree with chi(U)"))
    else:
        # the engine's row 1 is the column balance
        checks.append(CheckResult(
            "row-sum", table.row_sums_ok(),
            "column sums disagree with chi(U)", "identity"))
        local = "local-spectra table, " if cfg.is_reduced() else ""
        if local:
            cone = as_reduced_cone(cfg)
            alt = _spectrum_table(cone, reduced_cone_spectrum(cone))
            for e in (0, 2, 1):
                checks.append(_first_row_mismatch(
                    f"local-table-e{e}", table.rows[e], alt.rows[e], e))
        note = ("config is not ordinary-with-incidence; running the "
                f"engine-side checks (column sums, {local}enumerated lattice "
                "counts, closed-form smooth-cone coefficients)")

    # every bound the table can use: the ceiling of a point's residue
    # degree lies in [1, d_j], so both bounds lie in [0, d_j - 1]
    tops: dict[tuple[int, int], int] = {}
    for p in cfg.points:
        tops[p.weights] = max(tops.get(p.weights, 0), p.weighted_degree - 1)
    bad = next(((w, wp, b) for (w, wp), top in sorted(tops.items())
                for b, (got, want) in enumerate(zip(
                    lattice_row(w, wp, top), brute_lattice_row(w, wp, top)))
                if got != want), None)
    checks.append(CheckResult(
        "lattice-counts", bad is None,
        f"first mismatch at (w,w',bound)={bad}" if bad else ""))

    dp = cfg.reduced_degree
    checks.append(CheckResult(
        "smooth-coeffs",
        smooth_cone_coeffs(dp, 2) == composition_coeffs(dp, 2),
        f"coefficient lists differ for degree {dp}"))

    return CheckReport(tuple(checks), note)


def verify(cfg: CurveConfig | ReducedConeConfig) -> CheckReport:
    """The invariant checks that apply to one config (``verify``): on a
    curve, the table against its own invariants and, where the input allows,
    against the incidence data, the local spectra and the power transform;
    on a reduced cone, its n = 2 table and power transform."""
    checks: list[CheckResult] = []
    if isinstance(cfg, ReducedConeConfig):
        # ReducedConeConfig rejects such spectra when it is built
        checks.append(CheckResult("local-spectra", all(
            s.has_valid_support() and s.is_symmetric()
            for s in dict.fromkeys(cfg.local_spectra)), kind="identity"))
        base = reduced_cone_spectrum(cfg)
        if cfg.ambient_dim == 2:
            table = _spectrum_table(cfg, base)
            checks.append(CheckResult("row-sum", table.row_sums_ok()))
            # the table lays out this very spectrum
            checks.append(CheckResult(
                "table-spectrum-agreement", table.as_spectrum() == base,
                "table rows disagree with the spectrum", "identity"))
        if cfg.power > 1:
            # the power row holds the cells k/(m d') for k in
            # [0, (n+1) m d'), so its support lies in (0, n+1) when cell 0
            # is empty; every spread starts at k >= 1, so this holds by
            # construction
            checks.append(CheckResult("power-support",
                                      _power_row(base, cfg)[0] == 0,
                                      kind="identity"))
        return CheckReport(tuple(checks))

    period = _period_rows(cfg)
    table = _table(cfg, period)
    checks.append(CheckResult("row-sum", table.row_sums_ok(), kind="identity"))
    checks.append(CheckResult("rows-nonnegative", table.nonnegative_ok(),
                              "a genuine-multiplicity cell is negative",
                              "expectation"))
    # on the twist row the table was built from, over the period [1, P]
    # that `_table` tiles: 0 < t_i <= min(i, d') and t_P = d'. t_i <= i is
    # shift >= 0, and t_i <= d' is each component residue's (0, 1] bound
    # weighted by its degree, as sum_k deg_k*res_k(i) = t_i; past column
    # d' the first bound follows from the second
    twist, dprime = period[0], cfg.reduced_degree
    checks.append(CheckResult(
        "index-ranges", min(twist) > 0 and max(twist) <= dprime
        and all(map(le, twist[:dprime], range(1, dprime + 1)))
        and twist[-1] == dprime, kind="identity"))
    cone = as_reduced_cone(cfg)
    spectra = (dict(zip(cfg.points, cone.local_spectra)) if cone is not None
               else {p: p.local_spectrum() for p in dict.fromkeys(cfg.points)})
    checks.append(CheckResult("local-spectra", all(
        s.has_valid_support() and s.is_symmetric() and s.total() == p.milnor()
        for p, s in spectra.items())))
    if cfg.incidence is not None and cfg.incidence.matrix is not None:
        checks.append(CheckResult(
            "incidence-product", incidence_consistent(cfg),
            "a component pair meets the matrix inconsistently"))
    if has_reference(cfg):
        checks.append(CheckResult(
            "middle-agreement",
            list(table.rows[1]) == ordinary_middle_row(cfg, table),
            "incidence route disagrees with the balance route"))
    if cone is not None and cone.power == 1:
        alt = _spectrum_table(cone, reduced_cone_spectrum(cone))
        checks.append(CheckResult("local-table-agreement", alt.rows == table.rows,
                                  "table from local spectra disagrees"))
    elif cone is not None:
        # both routes on the 1/d grid, d = m d': the power row holds cells
        # k = 0..3d-1 and the table cells k = 1..3d, so the two spectra are
        # equal when these dense rows are, a nonzero cell 0 included
        row = _power_row(reduced_cone_spectrum(cone), cone)
        checks.append(CheckResult("thickening-agreement",
                                  row + [0] == [0, *chain(*table.rows)],
                                  "power-transform route disagrees"))
    return CheckReport(tuple(checks))


def as_reduced_cone(cfg: CurveConfig) -> ReducedConeConfig | None:
    """The reduced-cone input of a curve whose multiplicities are all m: its
    local spectra, each built once per distinct point, one {1:1} per node,
    and power m; None if they differ."""
    mults = cfg.multiplicities()
    if len(mults) > 1:
        return None
    built = {p: p.local_spectrum() for p in dict.fromkeys(cfg.points)}
    spectra = [built[p] for p in cfg.points]
    spectra += [SpectrumVector(Numerators({1: 1}), 2, denominator=1)] * cfg.nodes
    return ReducedConeConfig(ambient_dim=2, degree=cfg.reduced_degree,
                             local_spectra=tuple(spectra), power=mults.pop())
