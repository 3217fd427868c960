"""Spectrum multiplicities of cones over projective hypersurfaces.

The entry points, and the function that owns each route:

* `curve_table`: the plane-curve table, as whole rows (`_table`) from the
  floor rows of one period (`_period_rows`);
* `scan_values`: the one cell ``scan`` reports, from `_column`;
* `ordinary_middle_row`: the incidence middle row, read off a table;
* `reduced_cone_spectrum` and its power transform `thickened_spectrum`,
  whose dense row `_power_row` fills;
* `local_data_table`: an n = 2 spectrum as a table (`_spectrum_table`).

Both routes compute in integers over one denominator: the curve route over
d, the reduced route over d', m*d' and the local weighted degrees d_j.
`index_data` and `residue_degree` give per-index `Fraction` values; no
command calls them.
"""

from __future__ import annotations

from itertools import accumulate, compress
from math import gcd

from ._record import Record
from .local import SingularPoint, _window_row, lattice_row, quotient_coeffs
from .spectrum import Numerators, SpectrumVector, _count, _positive

TYPE_CHECKING = False
if TYPE_CHECKING:       # annotations only: no `collections` at run time
    from collections.abc import Sequence


def binom2(n: int) -> int:
    """n(n-1)/2 for every integer n, so binom2(-1) == 1, binom2(0) == 0."""
    return n * (n - 1) // 2


class GlobalComponent(Record):
    """One irreducible component of the curve: degree and multiplicity."""

    __slots__ = ("degree", "multiplicity")

    def __init__(self, degree: int, multiplicity: int):
        object.__setattr__(self, "degree", _positive(degree, "component degree"))
        object.__setattr__(self, "multiplicity",
                           _positive(multiplicity, "component multiplicity"))


def _matrix_counts(matrix) -> dict[int, int]:
    """How many entries of a point-by-component matrix take each positive
    value: the multiset an `Incidence`'s pairs must add up to."""
    counts: dict[int, int] = {}
    for row in matrix:
        for v in row:
            if v >= 1:
                counts[v] = counts.get(v, 0) + 1
    return counts


class Incidence(Record):
    """Component multiplicities at singular points, either as a bare multiset
    of (count, value) pairs or as a full point-by-component matrix, whose
    pairs then total, per value, the matrix's count of that value."""

    __slots__ = ("pairs", "matrix")

    def __init__(self, pairs: tuple[tuple[int, int], ...],
                 matrix: tuple[tuple[int, ...], ...] | None = None):
        if matrix is not None:
            matrix = tuple(tuple([_count(v, "incidence matrix entry")
                                  for v in row]) for row in matrix)
            for row in matrix:
                if any(v < 0 for v in row):
                    raise ValueError("incidence matrix entries must be >= 0")
        pairs = tuple([(_positive(c, "incidence count"),
                        _positive(v, "incidence value")) for c, v in pairs])
        totals: dict[int, int] = {}
        for count, value in pairs:
            totals[value] = totals.get(value, 0) + count
        if matrix is not None and totals != _matrix_counts(matrix):
            raise ValueError("incidence pairs disagree with the matrix's "
                             "count of each value")
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "matrix", matrix)

    @classmethod
    def from_pairs(cls, pairs) -> "Incidence":
        return cls(tuple(pairs))

    @classmethod
    def from_matrix(cls, rows) -> "Incidence":
        """The matrix with its pairs, sorted; the constructor alone checks
        its entries and makes them ints."""
        rows = tuple(map(tuple, rows))
        return cls(tuple(sorted((c, v) for v, c in
                                _matrix_counts(rows).items())), rows)


class CurveConfig(Record):
    """Combinatorial description of a plane curve with multiplicities.

    `points` lists the singular points of the reduced curve that carry local
    data; plain double points may instead be aggregated into `nodes` (they
    contribute Milnor number 1 apiece and nothing else). `incidence` is
    optional and only needed for the incidence-based middle row and the
    global/local intersection check.

    The constructor walks the components and the points once into
    `_derived`, no field: (d, d', terms, points, chi(U)), with terms the
    component (multiplicity, degree) pairs summed per multiplicity, sorted,
    and points each distinct `SingularPoint._key` with its count, in the
    order first seen.
    """

    __slots__ = ("components", "points", "nodes", "incidence", "_derived")

    def __init__(self, components: tuple[GlobalComponent, ...],
                 points: tuple[SingularPoint, ...] = (), nodes: int = 0,
                 incidence: Incidence | None = None):
        components = tuple(components)
        points = tuple(points)
        if not components:
            raise ValueError("a curve needs at least one component")
        nodes = _count(nodes, "node count")
        if nodes < 0:
            raise ValueError("node count must be >= 0")
        if incidence is not None and incidence.matrix is not None:
            r = len(components)
            for row in incidence.matrix:
                if len(row) != r:
                    raise ValueError("incidence matrix rows must have one "
                                     "column per component")
            if len(incidence.matrix) < len(points):
                raise ValueError("incidence matrix needs at least one row per "
                                 "listed point")
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "incidence", incidence)
        d = dprime = 0
        totals: dict[int, int] = {}
        for c in components:
            degree, mult = c.degree, c.multiplicity
            d += degree * mult
            dprime += degree
            totals[mult] = totals.get(mult, 0) + degree
        milnor, counts = nodes, {}
        for p in points:
            counts[p._key] = counts.get(p._key, 0) + 1
            milnor += p._key[4]
        object.__setattr__(self, "_derived", (
            d, dprime, tuple(sorted(totals.items())), tuple(counts.items()),
            _chi_complement(dprime, milnor)))

    @property
    def degree(self) -> int:
        """Total degree, multiplicities included."""
        return self._derived[0]

    @property
    def reduced_degree(self) -> int:
        return self._derived[1]

    def multiplicities(self) -> set[int]:
        """Every component and every branch multiplicity, a new set per
        call, read off the terms of `_derived` and of each distinct point
        key (each term's degree is positive, so no multiplicity is lost)."""
        _, _, comps, keys, _ = self._derived
        return ({m for m, _ in comps}
                | {m for key, _ in keys for m, _ in key[1]})

    def is_reduced(self) -> bool:
        """Every component and every branch has multiplicity 1."""
        return self.multiplicities() == {1}

    def is_ordinary(self) -> bool:
        """Every point has weights (1, 1), read off the distinct point keys
        of `_derived`."""
        return all(key[0] == (1, 1) for key, _ in self._derived[3])


class ConeSpectrumTable(Record):
    """The three multiplicity rows of a cone over a plane curve.

    rows[e][i-1] is the value at exponent i/d + e for i in [1, d], d >= 1;
    rows of another count or length are refused, and rows are kept as
    tuples of exact formula values, unchecked until `as_spectrum` refuses a
    non-integral one. The cone germ has a non-isolated singularity whenever
    the curve is singular, so its multiplicities are alternating sums and
    can be negative: always a possibility at the integer exponents (i = d),
    and for sufficiently special geometry (pencils of curves through shared
    points, thickenings of curves with chi-defect) also at i < d.
    """

    __slots__ = ("d", "dprime", "chi_u", "rows")

    def __init__(self, d: int, dprime: int, chi_u: int,
                 rows: tuple[tuple[int, ...], tuple[int, ...],
                             tuple[int, ...]]):
        d = _positive(d, "d")
        dprime = _count(dprime, "dprime")
        chi_u = _count(chi_u, "chi_u")
        rows = tuple(map(tuple, rows))
        if [len(row) for row in rows] != [d] * 3:
            raise ValueError(f"a table has 3 rows of d = {d} cells")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "dprime", dprime)
        object.__setattr__(self, "chi_u", chi_u)
        object.__setattr__(self, "rows", rows)

    def as_spectrum(self) -> SpectrumVector:
        """Flatten the table into one vector over exponents in (0, 3]."""
        d = self.d
        cells = Numerators((i + e * d, v) for e, row in enumerate(self.rows)
                           for i, v in enumerate(row, start=1) if v)
        if set(map(type, cells.values())) - {int}:  # a caller's non-int cells
            cells = dict(cells)     # take the checked path, which refuses 1.5
        return SpectrumVector(cells, 3, denominator=d)

    def row_sums_ok(self) -> bool:
        """Column identity: sum_e rows[e][i] + [i == d] equals chi_u."""
        sums = [r0 + r1 + r2 for r0, r1, r2 in zip(*self.rows)]
        sums[-1] += 1
        return sums.count(self.chi_u) == self.d

    def nonnegative_ok(self) -> bool:
        """Every cell with i < d is >= 0. Holds for the shipped example
        tables; not guaranteed for arbitrary configs (see class docstring)."""
        return all(min(row[:self.d - 1], default=0) >= 0 for row in self.rows)


class ReducedConeConfig(Record):
    """Input for the reduced-hypersurface route: ambient projective dimension
    n, degree, the local spectra at the singular points (each living in n
    variables), and the power m for the thickened cone f^m."""

    __slots__ = ("ambient_dim", "degree", "local_spectra", "power")

    def __init__(self, ambient_dim: int, degree: int,
                 local_spectra: tuple[SpectrumVector, ...] = (),
                 power: int = 1):
        local_spectra = tuple(local_spectra)
        ambient_dim = _positive(ambient_dim, "ambient dimension")
        degree = _positive(degree, "degree")
        power = _positive(power, "power")
        for spec in dict.fromkeys(local_spectra):
            if spec.ambient_dim != ambient_dim:
                raise ValueError("local spectra must live in the ambient "
                                 f"dimension {ambient_dim}")
            if not spec.has_valid_support():
                raise ValueError(f"local spectrum {spec} has exponents outside "
                                 f"(0, {ambient_dim})")
            if not spec.is_symmetric():
                raise ValueError(f"local spectrum {spec} is not symmetric")
            if any(m < 0 for m in spec.numerators().values()):
                raise ValueError(f"local spectrum {spec} has a negative "
                                 "multiplicity")
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "local_spectra", local_spectra)
        object.__setattr__(self, "power", power)


def index_data(cfg: CurveConfig, i: int) -> tuple[int, int, list[Fraction]]:
    """Per-index bookkeeping (shift, twist, residues).

    residues[k] is the (0,1]-representative of a_k*i/d for component k,
    shift is sum_k deg_k*(ceil(a_k*i/d) - 1), and twist = i - shift is the
    degree offset of the twisted line bundle attached to index i.
    """
    from fractions import Fraction
    d, _, comps, _, _ = cfg._derived
    if not 1 <= i <= d:
        raise ValueError(f"index {i} out of range [1, {d}]")
    shift = _shift(comps, i, d)
    return shift, i - shift, [Fraction(_residue(c.multiplicity, i, d), d)
                              for c in cfg.components]


def residue_degree(point: SingularPoint, i: int, d: int) -> Fraction:
    """Branch residues weighted by branch degrees; lies in (0, d_j] and
    equals d_j exactly at i = d."""
    from fractions import Fraction
    _, terms, _, mass, _ = point._key
    return Fraction(i * mass, d) - _shift(terms, i, d)


# Integers over d: for a, i >= 1, ceil(a*i/d) - 1 == (a*i - 1) // d, and d
# times the (0, 1] representative of a*i/d is (a*i - 1) % d + 1. Components
# enter as (multiplicity, total degree) pairs and a point's branches as
# (multiplicity, total weighted degree) pairs. The residue of x is
# x - (ceil(x) - 1), so a point's residue degree is i*mass/d - shift.
def _shift(terms, i: int, d: int) -> int:
    total = 0
    for mult, degree in terms:
        total += degree * ((mult * i - 1) // d)
    return total


def _residue(mult: int, i: int, d: int) -> int:
    return (mult * i - 1) % d + 1


def _floor_row(terms, width: int, d: int) -> list[int]:
    """`_shift(terms, i, d)` for every column i in [1, width], built as a
    step function. With mult = q*d + r, a term degree * ((mult*i - 1) // d)
    is degree*q*i plus degree * ((r*i - 1) // d): -degree on every column
    when r == 0, else 0 at i = 1, rising by degree at i = j*d // r + 1 for
    each j it reaches: fewer than one step a column. The steps of all terms
    go into one list whose running sums, plus the slope times i, are the
    row."""
    slope, steps = 0, [0] * width
    for mult, degree in terms:
        q, r = divmod(mult, d)
        slope += degree * q
        steps[0] += degree * ((r - 1) // d)
        for j in range(1, (r * width - 1) // d + 1):
            steps[j * d // r] += degree
    if slope:
        return [s + slope * i for i, s in enumerate(accumulate(steps), 1)]
    return list(accumulate(steps))


def _period_rows(cfg: CurveConfig) -> tuple[list[int], list]:
    """The floor rows of one period, on the columns [1, P]: the twist row
    i - shift and, per distinct point, (count, lattice row, d_j, ceiling
    row), the ceiling of the residue degree taken less one. With g the gcd
    of every component and branch multiplicity (g divides d = sum degree *
    multiplicity), P = d // g and (m*(i + P) - 1) mod d == (m*i - 1) mod d,
    so each floor sum rises by a constant over P columns (by P for the
    components, by mass / g for a point's ceiling): the twist and the
    ceilings repeat, and the twist at P is the twist at d. Each floor sum
    is one `_floor_row` of width P. Equal point keys share one lattice row
    (see `_column`)."""
    d, _, comps, keys, _ = cfg._derived
    period = d // gcd(*cfg.multiplicities())
    twist = [i - s for i, s in enumerate(_floor_row(comps, period, d), 1)]
    points, lattice = [], {}
    for ((w, wp), terms, dj, mass, _), k in keys:
        row = lattice.get((w, wp, dj - 1))
        if row is None:
            row = lattice[w, wp, dj - 1] = lattice_row(w, wp, dj - 1)
        # that ceiling less one, (i*mass - 1) // d - shift, is the floor sum
        # of the term (mass, 1) and the branch terms negated
        points.append((k, row, dj, _floor_row(
            ((mass, 1), *((m, -deg) for m, deg in terms)), period, d)))
    return twist, points


def _column(cfg: CurveConfig, i: int, lattice: dict) -> tuple[int, int]:
    """Rows 0 and 2 on the one column i in [1, d], by a scalar body that
    costs least per call (``scan``).

    d, d', the component terms and the counted point keys come from
    `CurveConfig._derived`, and each key holds its point's terms, d_j and
    mass (`SingularPoint._key`), so no component, point or branch record is
    read. A call walks the component terms, one per distinct component
    multiplicity, and the distinct point keys: per key one lookup of its
    lattice row and one term per distinct branch multiplicity. So its cost
    does not grow with d, past building each distinct lattice row once, in
    O(d_j). Equal keys share one `lattice_row(w, w', d_j - 1)`: the ceiling
    of a point's residue degree lies in [1, d_j], so every count its columns
    use has a bound in [0, d_j - 1] (on ordinary points d_j is the branch
    count). The rows are looked up by (w, w', d_j - 1) in `lattice`, which
    the callers sharing it fill, so that each distinct row is built once for
    them all."""
    d, dp, comps, keys, _ = cfg._derived
    twist = i - _shift(comps, i, d)
    r0 = (twist - 1) * (twist - 2) // 2             # binom2(twist - 1)
    r2 = (dp - twist - 1) * (dp - twist - 2) // 2 - (1 if i == d else 0)
    for ((w, wp), terms, dj, mass, _), k in keys:
        row = lattice.get((w, wp, dj - 1))
        if row is None:
            row = lattice[w, wp, dj - 1] = lattice_row(w, wp, dj - 1)
        # ceiling of the residue degree i*mass/d - shift
        ceil_g = -(-i * mass // d) - _shift(terms, i, d)
        r0 -= k * row[ceil_g - 1]
        r2 -= k * row[dj - ceil_g]
    return r0, r2


def _chi_complement(dprime: int, milnor_total: int) -> int:
    """chi(U) of a reduced plane curve from its degree and Milnor sum."""
    return 3 - ((3 - dprime) * dprime + milnor_total)


def euler_complement(cfg: CurveConfig) -> int:
    """chi(U) of the complement U of the reduced curve, derived with `cfg`."""
    return cfg._derived[4]


def curve_table(cfg: CurveConfig) -> ConeSpectrumTable:
    """Spectrum table of the cone over a plane curve with semi-weighted-
    homogeneous reduced singularities.

    Rows 0 and 2 come from twisted-line-bundle counts minus lattice counts at
    the singular points; row 1 closes each column against the Euler number of
    the complement. `_table` builds them all from the floor rows of one
    period (`_period_rows`); d, d' and chi(U) are read off the config.
    """
    return _table(cfg, _period_rows(cfg))


def _table(cfg: CurveConfig, period: tuple) -> ConeSpectrumTable:
    """The table of `cfg` built as whole rows from `period`, its floor rows
    (`_period_rows`), which costs less per column than `_column` but more
    per call: on [1, P] row 1 is chi(U) - row0 - row2, the three rows are
    tiled g times to [1, d], and row 2 takes its -1 at i = d. The column
    identity (`row_sums_ok`) asks one less of row 1 at i = d, which row 2's
    -1 gives back, so row 1 tiles as it is."""
    d, dp, _, _, chi = cfg._derived
    twist, points = period
    row0 = [(t - 1) * (t - 2) // 2 for t in twist]   # binom2(t - 1)
    row2 = [(dp - t - 1) * (dp - t - 2) // 2 for t in twist]
    for k, row, dj, ceil in points:
        top = dj - 1
        row0 = [r - k * row[c] for r, c in zip(row0, ceil)]
        row2 = [r - k * row[top - c] for r, c in zip(row2, ceil)]
    g = d // len(twist)
    row1 = [chi - r0 - r2 for r0, r2 in zip(row0, row2)] * g
    row0, row2 = row0 * g, row2 * g
    row2[-1] -= 1
    return ConeSpectrumTable(d, dp, chi, (row0, row1, row2))


def scan_values(cfg: CurveConfig, lattice: dict
                ) -> tuple[int, int, int | None, int]:
    """(d, d', n[3/d], chi(U)) of a curve, with n[3/d] = None when d < 3:
    what ``scan`` reports per grid point. d, d' and chi(U) are read off the
    config; when d < 3, column 3 lies past d and no column is computed, and
    otherwise n[3/d] is row 0 of one `_column` call, whose docstring gives
    its cost. `lattice` is a mapping that the points of one scan share, so
    that each lattice row is built once per scan."""
    d, dprime, _, _, chi = cfg._derived
    if d < 3:
        return d, dprime, None, chi
    r0, _ = _column(cfg, 3, lattice)
    return d, dprime, r0, chi


def ordinary_middle_row(cfg: CurveConfig,
                        table: ConeSpectrumTable) -> list[int]:
    """Middle row computed from incidence data instead of the Euler-number
    balance. Only valid when every listed point is ordinary; requires
    incidence data (the multiset form is enough). Both are checked before
    anything is read. `table` is `curve_table(cfg)`, and the row is read
    from it instead of being computed again.

    At column i, with t the twist, c_p the ceiling of point p's residue
    degree and r_p its branch count, the incidence row is pairs +
    (t-1)(d'-t-1) - sum_p (c_p-1)(r_p-c_p), where pairs = sum_k
    binom2(deg_k) - sum count*binom2(value). The balance row is chi(U) -
    row0 - row2, with row 2 taken before its -1 at i = d; on ordinary points
    row0 = binom2(t-1) - sum_p binom2(c_p-1) and row2 = binom2(d'-t-1) -
    sum_p binom2(r_p-c_p). As binom2(x + y) = binom2(x) + binom2(y) + x*y,
    the incidence row is the balance row plus delta = pairs + binom2(d'-2)
    - sum_p binom2(r_p-1) - chi(U), one constant for every column."""
    if not cfg.is_ordinary():
        raise ValueError("incidence-based middle row needs ordinary points only")
    if cfg.incidence is None:
        raise ValueError("incidence-based middle row needs incidence data")
    delta = (sum(binom2(c.degree) for c in cfg.components)
             - sum(count * binom2(value) for count, value in cfg.incidence.pairs)
             + binom2(cfg.reduced_degree - 2)
             - sum(binom2(p.branch_count - 1) for p in cfg.points)
             - table.chi_u)
    return [r + delta for r in table.rows[1]]


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
    coefficient of t^(n+1+j). Empty for dprime == 1. This is the spectrum
    product of the Fermat germ: weights (1, ..., 1) and degree dprime."""
    if dprime < 1 or n < 1:
        raise ValueError("need dprime >= 1 and n >= 1")
    if dprime == 1:
        return []
    return quotient_coeffs((1,) * (n + 1), dprime)


def reduced_cone_spectrum(cfg: ReducedConeConfig) -> SpectrumVector:
    """Spectrum of the cone over a reduced hypersurface of degree d' in
    projective n-space with isolated singularities: the smooth-cone
    coefficient at each i/d' minus the window counts of the local spectra."""
    n = cfg.ambient_dim
    dp = cfg.degree
    row = [-w for w in _window_row(cfg.local_spectra, dp, (n + 1) * dp - 1)]
    # coefficient j sits at i = n + 1 + j, and i < (n + 1) * dp
    for i, c in enumerate(smooth_cone_coeffs(dp, n), start=n + 1):
        row[i] += c
    return SpectrumVector(Numerators(compress(enumerate(row), row)), n + 1,
                          denominator=dp)


def thickened_spectrum(base: SpectrumVector, cfg: ReducedConeConfig) -> SpectrumVector:
    """Transform the reduced-cone spectrum into the spectrum of the m-th
    power cone (`_power_row`): the nonzero ints of the power row, in
    increasing k, are a canonical table, handed to the vector as
    `Numerators`. `base` must live in n + 1 variables."""
    row = _power_row(base, cfg)
    return SpectrumVector(Numerators(compress(enumerate(row), row)),
                          cfg.ambient_dim + 1,
                          denominator=cfg.power * cfg.degree)


def _power_row(base: SpectrumVector, cfg: ReducedConeConfig) -> list[int]:
    """The m-th power cone's spectrum as a dense row over the 1/(m d') grid,
    row[k] the value at k/(m d'): each cell i/d' + p of the reduced-cone
    spectrum `base` spreads over i/(m d') + l/m + p for l in [0, m-1],
    with a (-1)^n correction on the cells at i = d', p = n, l != m-1. The
    cell i = d', p = n, l = m-1 is the support boundary n+1 and is dropped.

    The cell (i, l, p) is k = i + l*d' + p*m*d'; these k are pairwise
    distinct, so no two cells meet, and each (i, p) cell fills its
    l-progression with one strided slice. `cmd_reduced` writes the row as
    it is (`spectrum.render_row`), `oracle.verify` checks it as it is, and
    `thickened_spectrum` makes it a vector."""
    m = cfg.power
    n = cfg.ambient_dim
    dp = cfg.degree
    if base.ambient_dim != n + 1:
        raise ValueError(f"base must live in {n + 1} variables, not {base.ambient_dim}")
    correction = (-1) ** n
    grid = base.numerators(dp)      # i + p*d' -> value, on the 1/d' grid
    row = [0] * ((n + 1) * m * dp)
    for p in range(n + 1):
        for i in range(1, dp + 1):
            v = grid.get(i + p * dp, 0)
            spread = m
            if i == dp and p == n:      # l = m - 1 is the boundary n + 1
                spread, v = m - 1, v + correction
            if v:
                start = i + p * m * dp
                row[start:start + spread * dp:dp] = [v] * spread
    return row


def local_data_table(degree: int, local_spectra: Sequence[SpectrumVector]) -> ConeSpectrumTable:
    """Spectrum table of the cone over a reduced plane curve straight from
    the local spectra of its singular points: `reduced_cone_spectrum` at
    n = 2 laid out on the 1/d grid, row e holding the exponents i/d + e."""
    cfg = ReducedConeConfig(2, degree, local_spectra)
    return _spectrum_table(cfg, reduced_cone_spectrum(cfg))


def _spectrum_table(cfg: ReducedConeConfig,
                    base: SpectrumVector) -> ConeSpectrumTable:
    """The n = 2 spectrum `base` of `cfg` laid out on the 1/d grid, row e
    holding the exponents i/d + e, with chi(U) from the local spectra.
    ``reduced``, ``verify`` and ``oracle`` lay out the spectrum they have
    already built through this, so none builds it twice."""
    d = cfg.degree
    grid = base.numerators(d)
    rows = [[grid.get(i + e * d, 0) for i in range(1, d + 1)]
            for e in range(3)]
    chi = _chi_complement(d, sum(s.total() for s in cfg.local_spectra))
    return ConeSpectrumTable(d, d, chi, rows)
