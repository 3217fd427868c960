"""Test-side references and helpers for the `conespec` package.

`FractionSpectrum` is the spectrum vector as it was first written: a dict
keyed by `Fraction` exponents, sorted on every `items()` call. The integer
`SpectrumVector` is compared against it. The functions below it are the
operations only the tests use, written over the public API.
"""

from __future__ import annotations

import math
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
    if not point.is_ordinary():
        raise ValueError("reduced multiplicity is only tracked for "
                         "ordinary points")
    return point.branch_count


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


# The template lexer and the native line tokenizer as character loops, the
# form they had before `formats` matched lexemes with one `re` pattern and
# split lines on white space runs; the differential test holds the package
# to them, tokens and error codes and messages alike.

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
