"""Spectrum multiplicities of cones over projective hypersurfaces.

The plane-curve entry point is `curve_table`, which takes a combinatorial
description of a possibly non-reduced curve whose reduced singularities are
semi-weighted-homogeneous and produces the three rows n[i/d + e] (e = 0,1,2)
together with the Euler number of the curve complement. The reduced
any-dimension route is `reduced_cone_spectrum` / `thickened_spectrum` /
`local_data_table`, which consume local spectra directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .local import SingularPoint, lattice_count, validate_branches, window_count
from .spectrum import SpectrumVector


def binom2(n: int) -> int:
    """n(n-1)/2 for every integer n, so binom2(-1) == 1, binom2(0) == 0."""
    return n * (n - 1) // 2


@dataclass(frozen=True)
class GlobalComponent:
    """One irreducible component of the curve: degree and multiplicity."""

    degree: int
    multiplicity: int

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("component degree must be positive")
        if self.multiplicity < 1:
            raise ValueError("component multiplicity must be positive")


@dataclass(frozen=True)
class Incidence:
    """Component multiplicities at singular points, either as a bare multiset
    of (count, value) pairs or as a full point-by-component matrix."""

    pairs: tuple[tuple[int, int], ...]
    matrix: Optional[tuple[tuple[int, ...], ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "pairs",
                           tuple((int(c), int(v)) for c, v in self.pairs))
        for count, value in self.pairs:
            if count < 1 or value < 1:
                raise ValueError("incidence pairs need positive count and value")
        if self.matrix is not None:
            object.__setattr__(self, "matrix",
                               tuple(tuple(int(v) for v in row)
                                     for row in self.matrix))
            for row in self.matrix:
                if any(v < 0 for v in row):
                    raise ValueError("incidence matrix entries must be >= 0")

    @classmethod
    def from_pairs(cls, pairs) -> "Incidence":
        return cls(tuple(pairs))

    @classmethod
    def from_matrix(cls, rows) -> "Incidence":
        matrix = tuple(tuple(int(v) for v in row) for row in rows)
        counts: dict[int, int] = {}
        for row in matrix:
            for v in row:
                if v >= 1:
                    counts[v] = counts.get(v, 0) + 1
        pairs = tuple(sorted((c, v) for v, c in counts.items()))
        return cls(pairs, matrix)


@dataclass(frozen=True)
class CurveConfig:
    """Combinatorial description of a plane curve with multiplicities.

    `points` lists the singular points of the reduced curve that carry local
    data; plain double points may instead be aggregated into `nodes` (they
    contribute Milnor number 1 apiece and nothing else). `incidence` is
    optional and only needed for the incidence-based middle row and the
    global/local intersection check.
    """

    components: tuple[GlobalComponent, ...]
    points: tuple[SingularPoint, ...] = ()
    nodes: int = 0
    incidence: Optional[Incidence] = None

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        object.__setattr__(self, "points", tuple(self.points))
        if not self.components:
            raise ValueError("a curve needs at least one component")
        if self.nodes < 0:
            raise ValueError("node count must be >= 0")
        if self.incidence is not None and self.incidence.matrix is not None:
            r = len(self.components)
            for row in self.incidence.matrix:
                if len(row) != r:
                    raise ValueError("incidence matrix rows must have one "
                                     "column per component")
            if len(self.incidence.matrix) < len(self.points):
                raise ValueError("incidence matrix needs at least one row per "
                                 "listed point")

    @property
    def degree(self) -> int:
        """Total degree, multiplicities included."""
        return sum(c.degree * c.multiplicity for c in self.components)

    @property
    def reduced_degree(self) -> int:
        return sum(c.degree for c in self.components)

    def is_reduced(self) -> bool:
        return all(c.multiplicity == 1 for c in self.components)

    def is_ordinary(self) -> bool:
        return all(p.is_ordinary() for p in self.points)

    def total_milnor(self) -> int:
        """Milnor sum over all singular points, aggregated nodes included."""
        return sum(p.milnor() for p in self.points) + self.nodes

    def validate_points(self):
        for p in self.points:
            if not validate_branches(p):
                raise ValueError(f"invalid branch data at point {p}")
            p.milnor()


@dataclass(frozen=True)
class ConeSpectrumTable:
    """The three multiplicity rows of a cone over a plane curve.

    rows[e][i-1] is the value at exponent i/d + e for i in [1, d]. Entries
    are exact formula values. The cone germ has a non-isolated singularity
    whenever the curve is singular, so its multiplicities are alternating
    sums and can be negative: always a possibility at the integer exponents
    (i = d), and for sufficiently special geometry (pencils of curves
    through shared points, thickenings of curves with chi-defect) also at
    i < d.
    """

    d: int
    dprime: int
    chi_u: int
    rows: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]

    def cell(self, i: int, e: int) -> int:
        return self.rows[e][i - 1]

    def exponent(self, i: int, e: int) -> Fraction:
        return Fraction(i, self.d) + e

    def as_spectrum(self) -> SpectrumVector:
        """Flatten the table into one vector over exponents in (0, 3]."""
        entries: dict[Fraction, int] = {}
        for e in range(3):
            for i in range(1, self.d + 1):
                v = self.rows[e][i - 1]
                if v:
                    entries[self.exponent(i, e)] = v
        return SpectrumVector(entries, ambient_dim=3)

    def row_sums_ok(self) -> bool:
        """Column identity: sum_e rows[e][i] + [i == d] equals chi_u."""
        return all(sum(self.rows[e][i - 1] for e in range(3))
                   + (1 if i == self.d else 0) == self.chi_u
                   for i in range(1, self.d + 1))

    def nonnegative_ok(self) -> bool:
        """Every cell with i < d is >= 0. Holds for the shipped example
        tables; not guaranteed for arbitrary configs (see class docstring)."""
        return all(self.rows[e][i] >= 0
                   for e in range(3) for i in range(self.d - 1))


@dataclass(frozen=True)
class ReducedConeConfig:
    """Input for the reduced-hypersurface route: ambient projective dimension
    n, degree, the local spectra at the singular points (each living in n
    variables), and the power m for the thickened cone f^m."""

    ambient_dim: int
    degree: int
    local_spectra: tuple[SpectrumVector, ...] = ()
    power: int = 1

    def __post_init__(self):
        object.__setattr__(self, "local_spectra", tuple(self.local_spectra))
        if self.ambient_dim < 1:
            raise ValueError("ambient dimension must be positive")
        if self.degree < 1:
            raise ValueError("degree must be positive")
        if self.power < 1:
            raise ValueError("power must be positive")
        for spec in self.local_spectra:
            if spec.ambient_dim != self.ambient_dim:
                raise ValueError("local spectra must live in the ambient "
                                 f"dimension {self.ambient_dim}")
            if not spec.has_valid_support():
                raise ValueError(f"local spectrum {spec} has exponents outside "
                                 f"(0, {self.ambient_dim})")
            if not spec.is_symmetric():
                raise ValueError(f"local spectrum {spec} is not symmetric")


def index_data(cfg: CurveConfig, i: int) -> tuple[int, int, list[Fraction]]:
    """Per-index bookkeeping (shift, twist, residues).

    residues[k] is the (0,1]-representative of a_k*i/d for component k,
    shift is sum_k deg_k*(ceil(a_k*i/d) - 1), and twist = i - shift is the
    degree offset of the twisted line bundle attached to index i.
    """
    d = cfg.degree
    if not 1 <= i <= d:
        raise ValueError(f"index {i} out of range [1, {d}]")
    shift = _shift(cfg, i, d)
    return shift, i - shift, [Fraction(_residue(c.multiplicity, i, d), d)
                              for c in cfg.components]


def residue_degree(point: SingularPoint, i: int, d: int) -> Fraction:
    """Branch residues weighted by branch degrees; lies in (0, d_j] and
    equals d_j exactly at i = d."""
    return Fraction(_point_residue(point, i, d), d)


# Integers over d: for a, i >= 1, ceil(a*i/d) - 1 == (a*i - 1) // d, and d
# times the (0, 1] representative of a*i/d is (a*i - 1) % d + 1.
def _shift(cfg: CurveConfig, i: int, d: int) -> int:
    return sum(c.degree * ((c.multiplicity * i - 1) // d)
               for c in cfg.components)


def _residue(mult: int, i: int, d: int) -> int:
    return (mult * i - 1) % d + 1


def _point_residue(point: SingularPoint, i: int, d: int) -> int:
    """d * residue_degree(point, i, d)."""
    return sum(b.weighted_degree * _residue(b.multiplicity, i, d)
               for b in point.branches)


def _columns(cfg: CurveConfig):
    """Yield (i, twist, ceilings) for i in [1, d], where ceilings[j] is the
    ceiling of residue_degree(cfg.points[j], i, d)."""
    d = cfg.degree
    for i in range(1, d + 1):
        yield i, i - _shift(cfg, i, d), [-(-_point_residue(p, i, d) // d)
                                         for p in cfg.points]


def _chi_complement(dprime: int, milnor_total: int) -> int:
    """chi(U) of a reduced plane curve from its degree and Milnor sum."""
    return 3 - ((3 - dprime) * dprime + milnor_total)


def euler_complement(cfg: CurveConfig) -> int:
    """Euler number of the complement of the reduced curve in the plane."""
    return _chi_complement(cfg.reduced_degree, cfg.total_milnor())


def euler_generic_union(degrees: Sequence[int]) -> int:
    """Euler number of the complement of a generic nodal union of smooth
    curves with the given degrees."""
    if any(d < 1 for d in degrees):
        raise ValueError("degrees must be positive")
    dp = sum(degrees)
    return binom2(dp - 2) + sum(binom2(d) for d in degrees)


def curve_table(cfg: CurveConfig) -> ConeSpectrumTable:
    """Spectrum table of the cone over a plane curve with semi-weighted-
    homogeneous reduced singularities.

    Rows 0 and 2 come from twisted-line-bundle counts minus lattice counts at
    the singular points; row 1 closes each column against the Euler number of
    the complement.
    """
    cfg.validate_points()
    d = cfg.degree
    dp = cfg.reduced_degree
    chi = euler_complement(cfg)
    row0, row1, row2 = [], [], []
    for i, twist, ceilings in _columns(cfg):
        delta = 1 if i == d else 0
        r0 = binom2(twist - 1)
        r2 = binom2(dp - twist - 1) - delta
        for p, ceil_g in zip(cfg.points, ceilings):
            w, wp = p.weights
            r0 -= lattice_count(w, wp, ceil_g - 1)
            r2 -= lattice_count(w, wp, p.weighted_degree - ceil_g)
        r1 = chi - r0 - r2 - delta
        row0.append(r0)
        row1.append(r1)
        row2.append(r2)
    return ConeSpectrumTable(d, dp, chi, (tuple(row0), tuple(row1), tuple(row2)))


def ordinary_middle_row(cfg: CurveConfig) -> list[int]:
    """Middle row computed from incidence data instead of the Euler-number
    balance. Only valid when every listed point is ordinary; requires
    incidence data (the multiset form is enough)."""
    if not cfg.is_ordinary():
        raise ValueError("incidence-based middle row needs ordinary points only")
    if cfg.incidence is None:
        raise ValueError("incidence-based middle row needs incidence data")
    cfg.validate_points()
    dp = cfg.reduced_degree
    comp_pairs = sum(binom2(c.degree) for c in cfg.components)
    incidence_pairs = sum(count * binom2(value)
                          for count, value in cfg.incidence.pairs)
    row = []
    for _, twist, ceilings in _columns(cfg):
        v = (twist - 1) * (dp - twist - 1) + comp_pairs - incidence_pairs
        for p, ceil_g in zip(cfg.points, ceilings):
            v -= (ceil_g - 1) * (p.reduced_multiplicity - ceil_g)
        row.append(v)
    return row


def incidence_consistent(cfg: CurveConfig) -> bool:
    """Check that pairwise component intersection numbers computed globally
    (degree products) and locally (incidence products over all points) agree.
    Needs the full incidence matrix."""
    if cfg.incidence is None or cfg.incidence.matrix is None:
        raise ValueError("global/local intersection check needs a full "
                         "incidence matrix")
    matrix = cfg.incidence.matrix
    r = len(cfg.components)
    for k in range(r):
        for kp in range(k + 1, r):
            local = sum(row[k] * row[kp] for row in matrix)
            if local != cfg.components[k].degree * cfg.components[kp].degree:
                return False
    return True


def smooth_cone_coeffs(dprime: int, n: int) -> list[int]:
    """Coefficients of (t + ... + t^(dprime-1))^(n+1); entry j is the
    coefficient of t^(n+1+j). Empty for dprime == 1."""
    if dprime < 1 or n < 1:
        raise ValueError("need dprime >= 1 and n >= 1")
    if dprime == 1:
        return []
    block = [1] * (dprime - 1)
    coeffs = [1]
    for _ in range(n + 1):
        out = [0] * (len(coeffs) + dprime - 2)
        for a, ca in enumerate(coeffs):
            for b in range(dprime - 1):
                out[a + b] += ca * block[b]
        coeffs = out
    return coeffs


def _coeff_at(coeffs: list[int], n: int, i: int) -> int:
    j = i - (n + 1)
    if 0 <= j < len(coeffs):
        return coeffs[j]
    return 0


def reduced_cone_spectrum(cfg: ReducedConeConfig) -> SpectrumVector:
    """Spectrum of the cone over a reduced hypersurface of degree d' in
    projective n-space with isolated singularities: the smooth-cone
    coefficient at each i/d' minus the window counts of the local spectra."""
    n = cfg.ambient_dim
    dp = cfg.degree
    coeffs = smooth_cone_coeffs(dp, n)
    entries: dict[Fraction, int] = {}
    for i in range(1, (n + 1) * dp):
        alpha = Fraction(i, dp)
        v = _coeff_at(coeffs, n, i)
        for spec in cfg.local_spectra:
            v -= window_count(spec, alpha)
        if v:
            entries[alpha] = v
    return SpectrumVector(entries, ambient_dim=n + 1)


def thickened_spectrum(base: SpectrumVector, cfg: ReducedConeConfig) -> SpectrumVector:
    """Transform the reduced-cone spectrum into the spectrum of the m-th
    power cone: each cell i/d' + p spreads over i/(m d') + l/m + p for
    l in [0, m-1], with a (-1)^n correction on the cells at i = d', p = n,
    l != m-1. Exponents at the support boundary n+1 are dropped."""
    m = cfg.power
    n = cfg.ambient_dim
    dp = cfg.degree
    correction = (-1) ** n
    entries: dict[Fraction, int] = {}
    for i in range(1, dp + 1):
        for p in range(n + 1):
            v_base = base.multiplicity(Fraction(i, dp) + p)
            for l in range(m):
                v = v_base
                if i == dp and p == n and l != m - 1:
                    v += correction
                if not v:
                    continue
                exponent = Fraction(i, m * dp) + Fraction(l, m) + p
                if exponent >= n + 1:
                    continue
                entries[exponent] = entries.get(exponent, 0) + v
    return SpectrumVector(entries, ambient_dim=n + 1)


def local_data_table(degree: int, local_spectra: Sequence[SpectrumVector]) -> ConeSpectrumTable:
    """Spectrum table of the cone over a reduced plane curve straight from
    the local spectra of its singular points."""
    d = degree
    if d < 1:
        raise ValueError("degree must be positive")
    specs = list(local_spectra)
    row0, row1, row2 = [], [], []
    for i in range(1, d + 1):
        alpha = Fraction(i, d)
        m0 = sum(window_count(s, alpha) for s in specs)
        m1 = sum(window_count(s, alpha + 1) for s in specs)
        m2 = sum(window_count(s, alpha + 2) for s in specs)
        row0.append(binom2(i - 1) - m0)
        row1.append((i - 1) * (d - i - 1) + binom2(d) - m1)
        row2.append(binom2(d - i - 1) - m2 - (1 if i == d else 0))
    chi = _chi_complement(d, sum(s.total() for s in specs))
    return ConeSpectrumTable(d, d, chi, (tuple(row0), tuple(row1), tuple(row2)))
