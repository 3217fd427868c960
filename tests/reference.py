"""Test-side references and helpers for the `conespec` package.

`FractionSpectrum` is the spectrum vector as it was first written: a dict
keyed by `Fraction` exponents, sorted on every `items()` call. The integer
`SpectrumVector` is compared against it. The functions below it are the
operations only the tests use, written over the public API.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from conespec.engine import (ConeSpectrumTable, CurveConfig, GlobalComponent,
                             ReducedConeConfig, binom2)
from conespec.formats import ConfigError, _quote
from conespec.local import (LocalBranch, SingularPoint, WeightSystem,
                            window_count)
from conespec.oracle import ReferenceState
from conespec.spectrum import SpectrumVector


class FractionSpectrum:
    """Fraction-keyed spectrum vector with the package's public methods."""

    def __init__(self, entries=None, ambient_dim: int = 1):
        table: dict[Fraction, int] = {}
        pairs = entries.items() if isinstance(entries, dict) else entries
        for exponent, mult in pairs or ():
            key = Fraction(exponent)
            new = table.get(key, 0) + int(mult)
            if new:
                table[key] = new
            else:
                table.pop(key, None)
        self.entries = table
        self.ambient_dim = ambient_dim

    def items(self):
        return sorted(self.entries.items())

    def multiplicity(self, exponent) -> int:
        return self.entries.get(Fraction(exponent), 0)

    def total(self) -> int:
        return sum(self.entries.values())

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other) -> bool:
        return (self.ambient_dim == other.ambient_dim
                and self.entries == other.entries)

    def __add__(self, other):
        merged = dict(self.entries)
        for exponent, mult in other.entries.items():
            merged[exponent] = merged.get(exponent, 0) + mult
        return FractionSpectrum(merged, self.ambient_dim)

    def dual(self):
        d = Fraction(self.ambient_dim)
        return FractionSpectrum({d - e: m for e, m in self.entries.items()},
                                self.ambient_dim)

    def has_valid_support(self) -> bool:
        return all(0 < e < self.ambient_dim for e in self.entries)

    def is_symmetric(self) -> bool:
        return self.dual() == self

    def render(self) -> str:
        return ", ".join(f"{e}:{m}" for e, m in self.items())


def fraction_items(spec: SpectrumVector) -> list[tuple[Fraction, int]]:
    """Entries of `spec` as (Fraction exponent, multiplicity) pairs sorted by
    increasing exponent, built from `numerators()` and `denominator`."""
    return [(Fraction(k, spec.denominator), m)
            for k, m in sorted(spec.numerators().items())]


def multiplicity(spec: SpectrumVector, exponent) -> int:
    """Multiplicity of `spec` at a `Fraction`/int/str exponent, 0 off its
    support, through `fraction_items`."""
    return dict(fraction_items(spec)).get(Fraction(exponent), 0)


def fraction_render(spec: SpectrumVector) -> str:
    """`SpectrumVector.render` as first written: one `Fraction` per entry,
    through `fraction_items`."""
    return ", ".join(f"{e}:{m}" for e, m in fraction_items(spec))


def empty_spectrum(ambient_dim: int) -> SpectrumVector:
    return SpectrumVector(None, ambient_dim)


def add(a: SpectrumVector, b: SpectrumVector) -> SpectrumVector:
    """Pointwise sum of two spectra in the same number of variables."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("cannot add spectra with different ambient dimensions "
                         f"({a.ambient_dim} vs {b.ambient_dim})")
    den = math.lcm(a.denominator, b.denominator)
    pairs = [*a.numerators(den).items(), *b.numerators(den).items()]
    return SpectrumVector(pairs, a.ambient_dim, denominator=den)


def join(a: SpectrumVector, b: SpectrumVector) -> SpectrumVector:
    """The Thom-Sebastiani join a * b: one entry n_a*n_b at x+y for every
    pair of entries, in a.ambient_dim + b.ambient_dim variables. By the
    Thom-Sebastiani theorem for spectra, Sp(f(x) + g(y)) = Sp(f) * Sp(g).
    Multiplicities may be negative, as in the spectrum of a cone table."""
    den = math.lcm(a.denominator, b.denominator)
    return SpectrumVector([(x + y, ma * mb)
                           for x, ma in a.numerators(den).items()
                           for y, mb in b.numerators(den).items()],
                          a.ambient_dim + b.ambient_dim, denominator=den)


def product(a: SpectrumVector, b: SpectrumVector) -> SpectrumVector:
    """Exponent convolution: joining two germs in disjoint variables
    multiplies their spectra, so the result has one entry n_a*n_b at x+y
    for every pair of entries. Requires nonnegative multiplicities."""
    if any(m < 0 for vec in (a, b) for m in vec.numerators().values()):
        raise ValueError("product requires genuine spectra "
                         "(nonnegative multiplicities)")
    return join(a, b)


def min_exponent(spec: SpectrumVector) -> Fraction:
    if not spec:
        raise ValueError("empty spectrum has no minimum exponent")
    return fraction_items(spec)[0][0]


def max_exponent(spec: SpectrumVector) -> Fraction:
    if not spec:
        raise ValueError("empty spectrum has no maximum exponent")
    return fraction_items(spec)[-1][0]


def weighted_milnor(ws: WeightSystem) -> int:
    """Milnor number prod_i (d - w_i)/w_i, asserted to be an exact integer."""
    ws._require_isolated()
    value = Fraction(1)
    for w in ws.weights:
        value *= Fraction(ws.degree - w, w)
    if value.denominator != 1:
        raise ValueError(f"non-integral Milnor product for weights {ws.weights} "
                         f"and degree {ws.degree}")
    return value.numerator


def convolution_coeffs(dprime: int, n: int) -> list[int]:
    """(n+1)-fold convolution of the indicator of [1, dprime-1], returned as
    coefficients starting at exponent n+1 (same alignment as
    `smooth_cone_coeffs`): the literal witness of the closed-form count
    `oracle.composition_coeffs`."""
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


def monomial_spectrum(exponents: Sequence[int]) -> SpectrumVector:
    """Spectrum of the monomial x_0^(a_0)...x_n^(a_n), from topology alone.

    Its Milnor fibre is the group mu_g x (C*)^n, g = gcd(a_k): each H^j is
    pure of type (j, j) (Deligne, Theorie de Hodge II, Publ. IHES 40, 1971),
    and the monodromy permutes the g components cyclically, so the
    eigenvalue exp(2 pi i k/g) has dimension binom(n, j) in H^j. With
    n_alpha = sum_j (-1)^(j-n) dim Gr_F^p H~^j(F)_lambda at
    p = floor(n + 1 - alpha) and lambda = exp(-2 pi i alpha) (Steenbrink,
    Asterisque 179-180, 1989), each k in [0, g) adds (-1)^(j-n) binom(n, j)
    at alpha = n - j + f_k, where f_k = k/g, or 1 at k = 0; j = 0 is skipped
    at k = 0, because the cohomology is reduced. No lattice or window count
    enters, and nothing of the engine."""
    n, g = len(exponents) - 1, math.gcd(*exponents)
    entries = [((n - j) * g + (k or g), (-1) ** (n - j) * math.comb(n, j))
               for k in range(g) for j in range(n + 1) if j or k]
    return SpectrumVector(entries, n + 1, denominator=g)


def _hodge_counts(systems, punctures: int) -> tuple[int, int, int, int]:
    """(h0, h10, h01, h11): the dimensions of H^0 and of the parts of type
    (1, 0), (0, 1) and (1, 1) of H^1, summed over rank-one local systems on
    P^1 minus `punctures` points, each given by its exponents mod 1 in
    [0, 1), one per puncture, of integral sum. A trivial system (every
    exponent 0) has H^0 of dimension 1 and H^1 of type (1, 1) of dimension
    punctures - 1. Any other, with t nonzero exponents of sum s, has no
    H^0 and an H^1 of dimension punctures - 2: punctures - t classes of
    type (1, 1), t - 1 - s of type (1, 0) and s - 1 of type (0, 1)
    (Deligne and Mostow, Publ. IHES 63, 1986, give the two dimensions;
    which one is of type (1, 0) was fitted on one case, as
    `test_covering_closed_forms` says)."""
    h0 = h10 = h01 = h11 = 0
    for exponents in systems:
        t = sum(map(bool, exponents))
        if not t:
            h0 += 1
            h11 += punctures - 1
            continue
        s = int(sum(exponents))
        h11 += punctures - t
        h10 += t - 1 - s
        h01 += s - 1
    return h0, h10, h01, h11


def binomial_pencil_count(a: int, b: int, c: int, p: int, q: int,
                          members: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The three rows of the table of family A (`binomial_pencil_curve`),
    from topology alone. xyz divides f, so the Milnor fibre F lies in the
    torus, where s = y^q z^(p-q)/x^p maps it onto P^1 minus the N = k + 2
    points 0, oo and 1/c_j, for k members: F is a torsor under C* x K over
    it, for a finite group K, and H^j(F) = H^j(D) + H^(j-1)(D)(-1), where D
    is the K-cover. Column i has one rank-one local system per r in Q/Z
    with r*q = -i*b/d and r*(p-q) = -i*c/d (mod 1), with exponents r at 0,
    -e_j*i/d at 1/c_j and minus their sum at oo. With the dimensions of
    `_hodge_counts` summed over them, and Steenbrink's n_alpha as in
    `monomial_spectrum`: row 0 = h10 + h11, row 1 = h01 - h10 - h11 - h0
    and row 2 = h0 - [i = d] - h01. Nothing of the engine enters."""
    d = a + b + c + p * sum(members)
    rows = ([], [], [])
    for i in range(1, d + 1):
        systems = []
        for t in range(q):
            r = (Fraction(-i * b, d) + t) / q % 1
            if (r * (p - q) + Fraction(i * c, d)) % 1 == 0:
                at = [Fraction(-e * i, d) % 1 for e in members]
                systems.append([r, *at, -(r + sum(at)) % 1])
        h0, h10, h01, h11 = _hodge_counts(systems, len(members) + 2)
        rows[0].append(h10 + h11)
        rows[1].append(h01 - h10 - h11 - h0)
        rows[2].append(h0 - (i == d) - h01)
    return tuple(map(tuple, rows))


def concurrent_lines_count(mults: Sequence[int]
                           ) -> tuple[tuple[int, ...], ...]:
    """The three rows of the table of family B (`concurrent_lines_curve`),
    from topology alone. f involves two variables only, so F = F_h x C,
    and F_h is a Z/d-cover of P^1 minus the N lines: column i has one
    rank-one local system, with exponent -i*m_k/d at the k-th line. With
    the dimensions of `_hodge_counts`: row 0 = 0, row 1 = -(h10 + h11) and
    row 2 = h0 - [i = d] - h01. Nothing of the engine enters."""
    d = sum(mults)
    rows = ([], [], [])
    for i in range(1, d + 1):
        exponents = [Fraction(-i * m, d) % 1 for m in mults]
        h0, h10, h01, h11 = _hodge_counts([exponents], len(mults))
        rows[0].append(0)
        rows[1].append(-(h10 + h11))
        rows[2].append(h0 - (i == d) - h01)
    return tuple(map(tuple, rows))


def line_arrangement_count(d: int, nu: dict[int, int]
                           ) -> tuple[tuple[int, ...], ...]:
    """The three rows of the table of a reduced arrangement of d lines with
    nu[m] points of multiplicity m (m >= 2, nodes at m = 2), by Budur and
    Saito's formula ("Jumping coefficients and spectrum of a hyperplane
    arrangement", Math. Ann. 347, 2010), the special case that the curve
    formula generalises. For i in [1, d], with c_m = ceil(i*m/d):
    row 0 = C(i-1, 2) - sum nu_m C(c_m - 1, 2),
    row 1 = (i-1)(d-i-1) - sum nu_m (c_m - 1)(m - c_m),
    row 2 = C(d-i-1, 2) - sum nu_m C(m - c_m, 2) - [i = d],
    where C(x, 2) = x(x-1)/2 as a polynomial, so C(-1, 2) = 1. It was
    transcribed from memory of the paper, which was not at hand, and is
    checked only against the engine. It reads d and nu alone: no lattice
    count, no window count, nothing of the engine."""
    def c2(x):
        return x * (x - 1) // 2

    rows = ([], [], [])
    for i in range(1, d + 1):
        ceils = [(-(-i * m // d), m, count) for m, count in nu.items()]
        rows[0].append(c2(i - 1) - sum(k * c2(c - 1) for c, m, k in ceils))
        rows[1].append((i - 1) * (d - i - 1)
                       - sum(k * (c - 1) * (m - c) for c, m, k in ceils))
        rows[2].append(c2(d - i - 1) - sum(k * c2(m - c) for c, m, k in ceils)
                       - (i == d))
    return tuple(map(tuple, rows))


def euler_generic_union(degrees) -> int:
    """Euler number of the complement of a generic nodal union of smooth
    curves with the given degrees."""
    if any(d < 1 for d in degrees):
        raise ValueError("degrees must be positive")
    dp = sum(degrees)
    return binom2(dp - 2) + sum(binom2(d) for d in degrees)


def reduced_multiplicity(point: SingularPoint) -> int:
    """Multiplicity of the reduced curve at the point; for an ordinary
    point this is just the number of branches."""
    if point.weights != (1, 1):
        raise ValueError("reduced multiplicity is only tracked for "
                         "ordinary points")
    return point.branch_count


def branch_terms(point: SingularPoint) -> tuple[tuple, int, int]:
    """(terms, d_j, mass) from one walk of the branches, as the curve
    kernel once derived them at every call: the point's (multiplicity,
    weighted degree) pairs summed per multiplicity, sorted, their total
    weighted degree and the sum of multiplicity * degree."""
    dj = mass = 0
    totals: dict[int, int] = {}
    for b in point.branches:
        degree, mult = b.weighted_degree, b.multiplicity
        dj += degree
        mass += mult * degree
        totals[mult] = totals.get(mult, 0) + degree
    return tuple(sorted(totals.items())), dj, mass


def curve_data(cfg: CurveConfig) -> tuple:
    """(d, d', terms, points, chi(U)) from one literal walk of a config, as
    the curve kernel once derived them at every call: the degree and the
    reduced degree, the component (multiplicity, degree) pairs summed per
    multiplicity, sorted, each distinct point key (weights, terms, d_j,
    mass, Milnor number) with its count, in first-seen order, and 3 minus
    the Euler number (3 - d')d' + sum of Milnor numbers of the curve."""
    d = dprime = 0
    totals: dict[int, int] = {}
    for c in cfg.components:
        d += c.degree * c.multiplicity
        dprime += c.degree
        totals[c.multiplicity] = totals.get(c.multiplicity, 0) + c.degree
    counts: dict[tuple, int] = {}
    milnor = cfg.nodes
    for p in cfg.points:
        terms, dj, mass = branch_terms(p)
        w, wp = p.weights
        mu = (dj - w) * (dj - wp) // (w * wp)
        key = (tuple(p.weights), terms, dj, mass, mu)
        counts[key] = counts.get(key, 0) + 1
        milnor += mu
    chi = 3 - ((3 - dprime) * dprime + milnor)
    return (d, dprime, tuple(sorted(totals.items())), tuple(counts.items()),
            chi)


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


def binomial_local_table(degree: int,
                         local_spectra: Sequence[SpectrumVector]
                         ) -> ConeSpectrumTable:
    """The n = 2 table of a reduced curve from closed-form rows: the
    twisted-bundle counts binom2(i-1), (i-1)(d-i-1) + binom2(d) and
    binom2(d-i-1), less the window counts of the local spectra, and -1 at
    the integer exponent i = d of row 2. chi(U) = 3 - ((3-d)d + mu)."""
    d = degree
    if d < 1:
        raise ValueError("degree must be positive")
    specs = list(local_spectra)

    def win(k):     # the window at k/d
        return sum(window_count(s, Fraction(k, d)) for s in specs)

    row0 = tuple(binom2(i - 1) - win(i) for i in range(1, d + 1))
    row1 = tuple((i - 1) * (d - i - 1) + binom2(d) - win(i + d)
                 for i in range(1, d + 1))
    row2 = tuple(binom2(d - i - 1) - win(i + 2 * d) - (1 if i == d else 0)
                 for i in range(1, d + 1))
    chi = 3 - ((3 - d) * d + sum(s.total() for s in specs))
    return ConeSpectrumTable(d, d, chi, (row0, row1, row2))


def emit_table_by_cells(table: ConeSpectrumTable, mode: str) -> str:
    """`formats.emit_table` transcribed cell by cell: one f-string per line,
    each value through `str`, each csv exponent through `Fraction`."""
    d = table.d
    if mode == "rows":
        rows = (table.rows[0], table.rows[1], table.rows[2][: d - 1])
        lines = [f"e={e}: " + ",".join(str(v) for v in row)
                 for e, row in enumerate(rows)]
        lines += [f"chi(U)={table.chi_u}",
                  f"# note: omitted e=2,i={d} value {table.rows[2][d - 1]}; "
                  "integer-exponent entries are formula values (no +1 "
                  "adjustment applied at alpha=3)"]
        return "\n".join(lines) + "\n"
    lines = ["i,alpha,e,value"]
    for e, row in enumerate(table.rows):
        lines += [f"{i},{Fraction(i + e * d, d)},{e},{v}"
                  for i, v in enumerate(row, 1)]
    return "\n".join(lines) + "\n"


def _fraction_idiom_ceil(v: Fraction) -> int:
    """Exact ceiling, with the bounded 100 - int(100 - v) idiom asserted to
    agree wherever that idiom is valid (v < 100)."""
    exact = math.ceil(v)
    if v < 100:
        trick = 100 - int(100 - v)
        assert trick == exact, (v, trick, exact)
    return exact


def fraction_reference_state(cfg: CurveConfig) -> ReferenceState:
    """The reference program of `conespec.oracle` as first transcribed,
    every ceiling and residue a `Fraction`; `reference_state` runs the same
    loop in integers over d and is compared with this one field by field."""
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
    sp = [[0] * d for _ in range(4)]
    for i in range(1, d + 1):
        s = 0
        for dk, ak in zip(state.ds, state.as_):
            s += dk * (_fraction_idiom_ceil(Fraction(ak * i, d)) - 1)
        io = i - s
        sp[0][i - 1] = (io - 1) * (io - 2) // 2
        sp[1][i - 1] = state.dsq + (io - 1) * (dr - io - 1)
        sp[2][i - 1] = (dr - io - 1) * (dr - io - 2) // 2
        for row in state.al:
            ga = Fraction(0)
            for mult in row[1:]:
                v = Fraction(mult * i, d)
                ga += v - _fraction_idiom_ceil(v) + 1
            p = _fraction_idiom_ceil(ga)
            sp[0][i - 1] -= (p - 1) * (p - 2) // 2
            sp[1][i - 1] -= (p - 1) * (row[0] - p)
            sp[2][i - 1] -= (row[0] - p) * (row[0] - p - 1) // 2
        for e in range(3):
            sp[3][i - 1] += sp[e][i - 1]
    state.sp = sp

    p = sum((row[0] - 1) ** 2 for row in state.al)
    state.chi = dr * (dr - 3) + 3 - p - state.od
    return state


# A template expression as a tree, the form the expression fuzz generates
# and renders to text; the package compiles the text without building one.

@dataclass(frozen=True)
class Num:
    value: int


@dataclass(frozen=True)
class Name:
    ident: str


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * div
    left: "Expr"
    right: "Expr"


Expr = Union[Num, Name, Neg, BinOp]


def render_expr(expr: Expr) -> str:
    """Fully parenthesized text form; parses back to an equivalent tree."""
    if isinstance(expr, Num):
        return str(expr.value)
    if isinstance(expr, Name):
        return expr.ident
    if isinstance(expr, Neg):
        return f"(-{render_expr(expr.arg)})"
    if isinstance(expr, BinOp):
        op = f" {expr.op} " if expr.op == "div" else expr.op
        return f"({render_expr(expr.left)}{op}{render_expr(expr.right)})"
    raise TypeError(f"not an expression node: {expr!r}")


def emit_native(cfg) -> str:
    """Render a config back into native text; parsing the result reproduces
    the config exactly."""
    lines = []
    if isinstance(cfg, ReducedConeConfig):
        lines.append(f"reduced n={cfg.ambient_dim} degree={cfg.degree} "
                     f"power={cfg.power}")
        for spec in cfg.local_spectra:
            body = " ".join(f"{e}:{m}" for e, m in fraction_items(spec))
            lines.append(f"localspectrum {body}")
        return "\n".join(lines) + "\n"
    lines.append("ambient 2")
    for comp in cfg.components:
        lines.append(f"component degree={comp.degree} mult={comp.multiplicity} "
                     "count=1")
    for point in cfg.points:
        branches = "".join(f"({b.weighted_degree}:{b.multiplicity})"
                           for b in point.branches)
        lines.append(f"point weights={point.weights[0]},{point.weights[1]} "
                     f"branches={branches} count=1")
    lines.append(f"nodes {cfg.nodes}")
    if cfg.incidence is not None:
        if cfg.incidence.matrix is not None:
            body = " ; ".join(" ".join(str(v) for v in row)
                              for row in cfg.incidence.matrix)
            lines.append(f"incidence-matrix {body}")
        elif cfg.incidence.pairs:
            body = " ".join(f"{c}x{v}" for c, v in cfg.incidence.pairs)
            lines.append(f"incidence {body}")
        else:
            lines.append("incidence")
    return "\n".join(lines) + "\n"


def emit_vectors(cfg: CurveConfig) -> str:
    """Render a config whose points are all ordinary into the vector
    dialect, one group per component, point and incidence pair; parsing the
    result gives the same components, points and nodes, and an incidence
    with the same pairs."""
    glcmp = ",".join(f"-1,{c.degree},{c.multiplicity}"
                     for c in cfg.components)
    si = ",".join(f"-1,{p.branch_count},"
                  + ",".join(str(b.multiplicity) for b in p.branches)
                  for p in cfg.points)
    pairs = cfg.incidence.pairs if cfg.incidence is not None else ()
    lg = ",".join(f"-{c},{v}" for c, v in pairs) or "0"
    return f"GlCmp={glcmp}; Si={si}; OD={cfg.nodes}; LG={lg};\n"


# The template lexer and the native line tokenizer as character loops, the
# form they had before `formats` matched lexemes with one `re` pattern and
# split lines on white space runs, and the lexer as that pattern, the form
# it had before it went back to a character loop of its own; the
# differential test holds the package to them, tokens and error codes and
# messages alike.

def lex_expr_by_chars(text: str) -> list[tuple[str, object]]:
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if "0" <= ch <= "9":
            start = pos
            while pos < n and "0" <= text[pos] <= "9":
                pos += 1
            try:
                tokens.append(("int", int(text[start:pos])))
            except ValueError as exc:
                raise ConfigError("expr-limit",
                                  f"integer literal of {pos - start} digits "
                                  "is too long") from exc
            continue
        if ch.isalpha() or ch == "_":
            start = pos
            while pos < n and (text[pos].isalnum() or text[pos] == "_"):
                pos += 1
            word = text[start:pos]
            tokens.append(("div", None) if word == "div" else ("name", word))
            continue
        if ch in "+-*()":
            tokens.append((ch, None))
            pos += 1
            continue
        raise ConfigError("expr-char", f"unexpected character {ch!r} in "
                          f"expression {_quote(text)}")
    return tokens


# a lexeme: an ASCII digit run, a word or one other character; `\s` is
# `str.isspace` and `\w` is `str.isalnum` or '_', code point for code point
_LEXEME = re.compile(r"([0-9]+)|(\w+)|(\S)")


def lex_expr_by_pattern(text: str) -> list[tuple[str, object]]:
    tokens = []
    for digits, word, char in _LEXEME.findall(text):
        if digits:
            try:
                tokens.append(("int", int(digits)))
            except ValueError as exc:
                raise ConfigError("expr-limit",
                                  f"integer literal of {len(digits)} digits "
                                  "is too long") from exc
        elif word[:1].isalpha() or word[:1] == "_":
            tokens.append(("div", None) if word == "div" else ("name", word))
        elif char and char in "+-*()":
            tokens.append((char, None))
        else:
            raise ConfigError("expr-char", "unexpected character "
                              f"{(word or char)[0]!r} in expression "
                              f"{_quote(text)}")
    return tokens


def tokenize_line_by_chars(line: str) -> list[str]:
    """Whitespace split, except that parenthesized groups stay together."""
    tokens = []
    current = []
    depth = 0
    for ch in line:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(0, depth - 1)
        if ch.isspace() and depth == 0:
            if current:
                tokens.append("".join(current))
                current = []
        else:
            current.append(ch)
    if current:
        tokens.append("".join(current))
    return tokens
