"""Independent implementations and the checks of ``verify`` and ``oracle``.

`reference_ordinary` is a deliberately literal array-walking program for
ordinary-singularity configurations, kept independent of the engine module
(its only deviation from a straight scripted transliteration is that ceilings
are computed exactly instead of through a bounded 100 - int(100 - v) trick;
the trick is still evaluated and asserted to agree on its valid domain).
`cross_check` runs the engine against it and against the brute-force
counters and reports the first differing cell; `verify` runs the invariants
that apply to a config. Both return a `CheckReport` of kinded checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .engine import (ConeSpectrumTable, CurveConfig, GlobalComponent,
                     ReducedConeConfig, curve_table, incidence_consistent,
                     index_data, local_data_table, ordinary_middle_row,
                     reduced_cone_spectrum, smooth_cone_coeffs,
                     thickened_spectrum)
from .local import LocalBranch, SingularPoint, lattice_count
from .spectrum import SpectrumVector


def brute_lattice(w: int, wp: int, bound: int) -> int:
    """Literal double loop counting w*m1 + wp*m2 <= bound over m1, m2 >= 1."""
    total = 0
    for m1 in range(1, max(bound, 0) + 1):
        for m2 in range(1, max(bound, 0) + 1):
            if w * m1 + wp * m2 <= bound:
                total += 1
    return total


def brute_coeffs(dprime: int, n: int) -> list[int]:
    """(n+1)-fold convolution of the indicator of [1, dprime-1], returned as
    coefficients starting at exponent n+1 (same alignment as
    `smooth_cone_coeffs`)."""
    if dprime == 1:
        return []
    indicator = [0] + [1] * (dprime - 1)
    coeffs = [1]
    for _ in range(n + 1):
        out = [0] * (len(coeffs) + len(indicator) - 1)
        for a, ca in enumerate(coeffs):
            if ca:
                for b, cb in enumerate(indicator):
                    if cb:
                        out[a + b] += ca * cb
        coeffs = out
    return coeffs[n + 1:]


_IDIOM_BOUND = 100


def _idiom_ceil(v: Fraction) -> int:
    """Exact ceiling, with the bounded 100 - int(100 - v) idiom asserted to
    agree wherever that idiom is valid (v < 100)."""
    exact = math.ceil(v)
    if v < _IDIOM_BOUND:
        trick = _IDIOM_BOUND - int(_IDIOM_BOUND - v)
        assert trick == exact, (v, trick, exact)
    return exact


@dataclass
class ReferenceState:
    """Raw working arrays of the reference program: one row per point in
    `al` (branch count followed by branch multiplicities), expanded degree
    and multiplicity lists, the 4 x d result matrix `sp` (three rows plus
    their running sum), and the `dsq`, `od`, `chi` accumulators."""

    al: list[list[int]] = field(default_factory=list)
    ds: list[int] = field(default_factory=list)
    as_: list[int] = field(default_factory=list)
    sp: list[list[int]] = field(default_factory=list)
    dsq: int = 0
    od: int = 0
    chi: int = 0


def reference_state(cfg: CurveConfig) -> ReferenceState:
    """Run the reference computation for an ordinary configuration."""
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
    q = len(state.al)
    sp = [[0] * d for _ in range(4)]
    for i in range(1, d + 1):
        s = 0
        for dk, ak in zip(state.ds, state.as_):
            s += dk * (_idiom_ceil(Fraction(ak * i, d)) - 1)
        io = i - s
        sp[0][i - 1] = (io - 1) * (io - 2) // 2
        sp[1][i - 1] = state.dsq + (io - 1) * (dr - io - 1)
        sp[2][i - 1] = (dr - io - 1) * (dr - io - 2) // 2
        for row in state.al:
            ga = Fraction(0)
            for mult in row[1:]:
                v = Fraction(mult * i, d)
                ga += v - _idiom_ceil(v) + 1
            p = _idiom_ceil(ga)
            sp[0][i - 1] -= (p - 1) * (p - 2) // 2
            sp[1][i - 1] -= (p - 1) * (row[0] - p)
            sp[2][i - 1] -= (row[0] - p) * (row[0] - p - 1) // 2
        for e in range(3):
            sp[3][i - 1] += sp[e][i - 1]
    state.sp = sp

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
                             (tuple(state.sp[0]), tuple(state.sp[1]),
                              tuple(row2)))


@dataclass(frozen=True)
class CheckResult:
    """One named check. `kind` is "identity" (holds by construction),
    "oracle" (independent recomputation) or "expectation" (may fail)."""

    name: str
    passed: bool
    detail: str = ""
    kind: str = "oracle"


@dataclass(frozen=True)
class CheckReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def render(self, words=("all-pass", "MISMATCH"), detail="{}") -> str:
        """Check lines, failing details through the `detail` form, then
        ``result:`` with words[0] if every check passed, else words[1]."""
        lines = []
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
    for i, (g, w) in enumerate(zip(got, want), start=1):
        if g != w:
            return CheckResult(name, False,
                               f"first mismatch at (i={i}, e={e}, "
                               f"expected={w}, actual={g})")
    return CheckResult(name, True)


def has_reference(cfg: CurveConfig) -> bool:
    """Whether `reference_ordinary` applies: ordinary points, incidence data."""
    return cfg.is_ordinary() and cfg.incidence is not None


def cross_check(cfg: CurveConfig) -> CheckReport:
    """Differential test of the engine on one configuration (``oracle``).

    Ordinary configs with incidence data are checked cell by cell against the
    reference program; other (weighted) configs fall back to the engine-only
    checks: lattice counts against the brute loop, smooth-cone coefficients
    against plain convolution, the column-sum identity, and (for reduced
    configs) the rows recomputed from the local spectra.
    """
    checks: list[CheckResult] = []
    table = curve_table(cfg)

    if has_reference(cfg):
        ref = reference_ordinary(cfg)
        for e in (0, 2):
            checks.append(_first_row_mismatch(f"rows-e{e}", table.rows[e],
                                              ref.rows[e], e))
        middle = ordinary_middle_row(cfg)
        checks.append(_first_row_mismatch("middle-incidence", middle,
                                          ref.rows[1], 1))
        checks.append(_first_row_mismatch("middle-balance", table.rows[1],
                                          middle, 1))
        checks.append(CheckResult(
            "chi", table.chi_u == ref.chi_u,
            f"expected={ref.chi_u}, actual={table.chi_u}"))
        ref_table = ConeSpectrumTable(ref.d, ref.dprime, ref.chi_u,
                                      (ref.rows[0], tuple(middle), ref.rows[2]))
        checks.append(CheckResult(
            "row-sum", ref_table.row_sums_ok(),
            "column sums disagree with chi(U)"))
    else:
        # the engine's row 1 is the column balance
        checks.append(CheckResult(
            "row-sum", table.row_sums_ok(),
            "column sums disagree with chi(U)", "identity"))
        if cfg.is_reduced():
            alt = local_data_table(cfg.degree, as_reduced_cone(cfg).local_spectra)
            for e in (0, 2, 1):
                checks.append(_first_row_mismatch(
                    f"local-table-e{e}", table.rows[e], alt.rows[e], e))

    # every bound the table can use: ceil(residue_degree) lies in [1, d_j]
    args = sorted({(*p.weights, bound) for p in cfg.points
                   for bound in range(p.weighted_degree)})
    bad = next((a for a in args if lattice_count(*a) != brute_lattice(*a)),
               None)
    checks.append(CheckResult(
        "lattice-counts", bad is None,
        f"first mismatch at (w,w',bound)={bad}" if bad else ""))

    dp = cfg.reduced_degree
    checks.append(CheckResult(
        "smooth-coeffs",
        smooth_cone_coeffs(dp, 2) == brute_coeffs(dp, 2),
        f"coefficient lists differ for degree {dp}"))

    return CheckReport(tuple(checks))


def verify(cfg: CurveConfig | ReducedConeConfig) -> CheckReport:
    """The invariant checks that apply to one config (``verify``): on a
    curve, the table against its own invariants and, where the input allows,
    against the incidence data, the local spectra and the power transform;
    on a reduced cone, its n = 2 table and power transform."""
    checks: list[CheckResult] = []
    if isinstance(cfg, ReducedConeConfig):
        # ReducedConeConfig rejects such spectra when it is built
        checks.append(CheckResult(
            "local-spectra", all(s.has_valid_support() and s.is_symmetric()
                                 for s in cfg.local_spectra), kind="identity"))
        base = reduced_cone_spectrum(cfg)
        if cfg.ambient_dim == 2:
            table = local_data_table(cfg.degree, cfg.local_spectra)
            checks.append(CheckResult("row-sum", table.row_sums_ok()))
            checks.append(CheckResult(
                "table-spectrum-agreement", table.as_spectrum() == base,
                "table rows disagree with the spectrum"))
        if cfg.power > 1:
            power = thickened_spectrum(base, cfg)
            checks.append(CheckResult(
                "power-support",
                all(0 < e < cfg.ambient_dim + 1 for e, _ in power.items()),
                kind="identity"))
        return CheckReport(tuple(checks))

    table = curve_table(cfg)
    checks.append(CheckResult("row-sum", table.row_sums_ok(), kind="identity"))
    checks.append(CheckResult("rows-nonnegative", table.nonnegative_ok(),
                              "a genuine-multiplicity cell is negative",
                              "expectation"))
    ranges_ok = True
    for i in range(1, cfg.degree + 1):
        shift, twist, residues = index_data(cfg, i)
        ranges_ok = ranges_ok and 0 <= shift < i and 0 < twist <= i and all(
            0 < r <= 1 for r in residues)
    # the loop leaves the twist at i = d, which must be the reduced degree
    checks.append(CheckResult("index-ranges",
                              ranges_ok and twist == cfg.reduced_degree,
                              kind="identity"))
    spectra = [p.local_spectrum() for p in cfg.points]
    checks.append(CheckResult("local-spectra", all(
        s.has_valid_support() and s.is_symmetric() and s.total() == p.milnor()
        for p, s in zip(cfg.points, spectra))))
    if cfg.incidence is not None and cfg.incidence.matrix is not None:
        checks.append(CheckResult(
            "incidence-product", incidence_consistent(cfg),
            "a component pair meets the matrix inconsistently"))
    if has_reference(cfg):
        checks.append(CheckResult(
            "middle-agreement", list(table.rows[1]) == ordinary_middle_row(cfg),
            "incidence route disagrees with the balance route"))
    if cfg.is_reduced():
        alt = local_data_table(cfg.degree, as_reduced_cone(cfg).local_spectra)
        checks.append(CheckResult("local-table-agreement", alt.rows == table.rows,
                                  "table from local spectra disagrees"))
    m = cfg.components[0].multiplicity
    if m > 1 and thicken(cfg, m) == cfg:     # every multiplicity is m
        rc = as_reduced_cone(thicken(cfg, 1), power=m)
        sv = thickened_spectrum(reduced_cone_spectrum(rc), rc)
        checks.append(CheckResult("thickening-agreement",
                                  sv == table.as_spectrum(),
                                  "power-transform route disagrees"))
    return CheckReport(tuple(checks))


def thicken(cfg: CurveConfig, m: int) -> CurveConfig:
    """Set every multiplicity to m; m = 1 gives the reduced curve."""
    comps = tuple(GlobalComponent(c.degree, m) for c in cfg.components)
    points = tuple(
        SingularPoint(p.weights,
                      tuple(LocalBranch(b.weighted_degree, m)
                            for b in p.branches))
        for p in cfg.points)
    return CurveConfig(components=comps, points=points, nodes=cfg.nodes,
                       incidence=cfg.incidence)


def as_reduced_cone(cfg: CurveConfig, power: int = 1) -> ReducedConeConfig:
    """View a reduced curve configuration as input for the reduced-cone
    route: local spectra from the weight data, one {1:1} per node."""
    if not cfg.is_reduced():
        raise ValueError("expected a reduced configuration")
    spectra = [p.local_spectrum() for p in cfg.points]
    spectra += [SpectrumVector({Fraction(1): 1}, ambient_dim=2)] * cfg.nodes
    return ReducedConeConfig(ambient_dim=2, degree=cfg.reduced_degree,
                             local_spectra=tuple(spectra), power=power)
