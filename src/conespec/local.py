"""Local invariants of plane-curve (and hypersurface) germs: quasihomogeneous
spectra, Milnor numbers, lattice counts under a line, and spectral window
counts. A `SingularPoint` is checked once, when it is built; no caller
checks a point or walks its branches again. The curve route reads its
lattice counts from `lattice_row` and the reduced route its window counts
from `_window_row`; `lattice_count` and `window_count` give one value each,
and no command calls them.
"""

from __future__ import annotations

import itertools
import math

from ._record import Record
from .spectrum import SpectrumVector


class WeightSystem(Record):
    """Positive integer weights (gcd 1) together with a weighted degree."""

    __slots__ = ("weights", "degree")

    def __init__(self, weights: tuple[int, ...], degree: int):
        weights = tuple(int(w) for w in weights)
        if not weights:
            raise ValueError("weight system needs at least one weight")
        if any(w < 1 for w in weights):
            raise ValueError("weights must be positive integers")
        # gcd 1 is required of a genuine weight system; a single-variable
        # one (the germ x^a of a ``localwh`` line in a ``reduced n=1``
        # config) may share a factor with its degree.
        if len(weights) > 1 and math.gcd(*weights) != 1:
            raise ValueError("weights must have gcd 1")
        if degree < 1:
            raise ValueError("weighted degree must be positive")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "degree", degree)

    def _require_isolated(self):
        if any(self.degree <= w for w in self.weights):
            raise ValueError(f"degree {self.degree} must exceed every weight "
                             f"{self.weights} for an isolated singularity")


def quotient_coeffs(weights: tuple[int, ...], d: int) -> list[int] | None:
    """Coefficients of prod_i (1 - u^(d-w_i)) / (1 - u^(w_i)) for d > every
    w_i, or None when that quotient is not a polynomial.

    The series is kept up to the numerator degree N = sum(d - w_i): each
    factor multiplies by 1 - u^(d-w) in a downward pass and divides by
    1 - u^w in an upward one. The quotient is a polynomial exactly when its
    degree D = sum(d - 2 w_i) is >= 0 and the series vanishes above D (a
    polynomial R agreeing with P/Q up to u^N leaves P - Q*R of degree <= N
    and order > N, hence zero).
    """
    top = sum(d - w for w in weights)
    c = [1] + [0] * top
    for w in weights:
        a = d - w
        for k in range(top, a - 1, -1):
            c[k] -= c[k - a]
        for k in range(w, top + 1):
            c[k] += c[k - w]
    degree = top - sum(weights)
    if degree < 0 or any(c[degree + 1:]):
        return None
    return c[:degree + 1]


def weighted_spectrum(ws: WeightSystem) -> SpectrumVector:
    """Spectrum of a germ with the given weights and lowest weighted degree.

    In the variable u = t^(1/d) the spectrum is
    u^(w_1+...+w_n) * prod_i (1 - u^(d-w_i)) / (1 - u^(w_i)), expanded
    exactly over the integers by `quotient_coeffs` (Steenbrink). The
    quotient must be a polynomial with nonnegative coefficients; it is
    precisely when the weight data describes an isolated germ.
    """
    ws._require_isolated()
    d = ws.degree
    coeffs = quotient_coeffs(ws.weights, d)
    if coeffs is None:
        raise ValueError(f"weights {ws.weights} with degree {d} do not "
                         "describe an isolated germ (inexact expansion)")
    if any(c < 0 for c in coeffs):
        raise ValueError(f"weights {ws.weights} with degree {d} do not "
                         "describe an isolated germ (negative multiplicity)")
    entries = dict(enumerate(coeffs, start=sum(ws.weights)))
    return SpectrumVector(entries, len(ws.weights), denominator=d)


def lattice_count(w: int, wp: int, bound: int) -> int:
    """Number of pairs (m1, m2) of positive integers with w*m1 + wp*m2 <= bound."""
    if bound < w + wp:
        return 0
    total = 0
    m1 = 1
    while w * m1 + wp <= bound:
        total += (bound - w * m1) // wp
        m1 += 1
    return total


def lattice_row(w: int, wp: int, top: int) -> list[int]:
    """row[b] = lattice_count(w, wp, b) for every b in [0, top].

    The row is the coefficient list of u^(w+wp) / ((1 - u^w)(1 - u^wp)(1 - u))
    up to u^top, one pass per factor as in `quotient_coeffs`. Dividing the
    monomial by 1 - u^wp marks w + wp + k*wp; dividing by 1 - u^w is a
    running sum along each residue class mod w, and dividing by 1 - u one
    along the row. Entry b never depends on top.
    """
    row = [0] * (top + 1)
    row[w + wp::wp] = [1] * len(row[w + wp::wp])
    for r in range(min(w, top + 1)):
        row[r::w] = itertools.accumulate(row[r::w])
    return list(itertools.accumulate(row))


def window_count(spec: SpectrumVector, beta: Fraction) -> int:
    """Total multiplicity of exponents in the half-open window [beta-1, beta)."""
    from fractions import Fraction
    beta = Fraction(beta)
    # k/D in [p/q - 1, p/q)  <=>  (p - q)*D <= k*q < p*D
    top = beta.numerator * spec.denominator
    low = top - beta.denominator * spec.denominator
    return sum(m for k, m in spec.numerators().items()
               if low <= k * beta.denominator < top)


def _window_row(spectra, d: int, top: int) -> list[int]:
    """row[i] = sum of window_count(s, i/d) over the spectra, for i in
    [0, top]. An exponent k/D lies in [i/d - 1, i/d) exactly for the d
    integers i in (k*d/D, k*d/D + d], so each entry adds its multiplicity to
    one run of a difference array. Every exponent must lie in (0, n) for
    top = (n + 1)*d - 1, as it does in the local spectra of a
    `ReducedConeConfig`: then each run lies inside [1, top]."""
    diff = [0] * (top + 2)
    for spec in spectra:
        den = spec.denominator
        for k, m in spec.numerators().items():
            start = k * d // den + 1
            diff[start] += m
            diff[start + d] -= m
    return list(itertools.accumulate(diff[:-1]))


class LocalBranch(Record):
    """One local irreducible component: its weighted degree and the
    multiplicity the ambient (possibly non-reduced) curve carries on it."""

    __slots__ = ("weighted_degree", "multiplicity")

    def __init__(self, weighted_degree: int, multiplicity: int):
        if weighted_degree < 1:
            raise ValueError("branch weighted degree must be positive")
        if multiplicity < 1:
            raise ValueError("branch multiplicity must be positive")
        object.__setattr__(self, "weighted_degree", weighted_degree)
        object.__setattr__(self, "multiplicity", multiplicity)


class BranchDegreeError(ValueError):
    """A branch weighted degree outside {w, w', w*w'} ({1} at (1, 1))."""


def milnor_number(w: int, wp: int, dj: int) -> int:
    """(d_j-w)(d_j-w')/(w*w') at weights (w, w') and weighted degree d_j,
    checked to be a nonnegative integer (Milnor and Orlik, Topology 1970)."""
    value, rest = divmod((dj - w) * (dj - wp), w * wp)
    if rest or value < 0:
        raise ValueError(f"invalid point data: Milnor number ({dj}-{w})"
                         f"({dj}-{wp})/{w * wp} is not a nonnegative integer")
    return value


class SingularPoint(Record):
    """A singular point of the reduced curve: its local weights (ordinary
    points have (1, 1)) and its branches. Every built point is valid: the
    constructor checks its weights, then in one walk of the branches each
    degree against {w, w', w*w'} ({1} at (1, 1)), then its Milnor number.
    The walk also derives `_key`, no field: (weights, terms, d_j, mass, mu),
    the (multiplicity, weighted degree) pairs summed per multiplicity,
    sorted, as terms, the sum of multiplicity * degree as mass, and mu."""

    __slots__ = ("weights", "branches", "_key")

    def __init__(self, weights: tuple[int, int],
                 branches: tuple[LocalBranch, ...]):
        w, wp = weights
        if w < 1 or wp < 1:
            raise ValueError("point weights must be positive")
        if math.gcd(w, wp) != 1:
            raise ValueError(f"point weights {weights} must be coprime")
        branches = tuple(branches)
        if not branches:
            raise ValueError("a singular point needs at least one branch")
        allowed = (1,) if w == wp == 1 else (w, wp, w * wp)
        dj = mass = 0
        totals: dict[int, int] = {}
        for b in branches:
            degree, mult = b.weighted_degree, b.multiplicity
            if degree not in allowed:
                raise BranchDegreeError(
                    f"branch degrees must lie in {{w, w', w*w'}} = "
                    f"{{{', '.join(map(str, allowed))}}}")
            dj += degree
            mass += mult * degree
            totals[mult] = totals.get(mult, 0) + degree
        mu = milnor_number(w, wp, dj)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "branches", branches)
        terms = tuple(sorted(totals.items()))
        object.__setattr__(self, "_key", (weights, terms, dj, mass, mu))

    @property
    def weighted_degree(self) -> int:
        """Sum of the branch weighted degrees."""
        return self._key[2]

    @property
    def branch_count(self) -> int:
        return len(self.branches)

    def milnor(self) -> int:
        """The Milnor number the constructor derived (`milnor_number`)."""
        return self._key[4]

    def local_spectrum(self) -> SpectrumVector:
        """Spectrum of the germ, from its weights and weighted degree; empty
        when the Milnor number is 0 (the weighted degree is w or w', so the
        germ is smooth)."""
        if self.milnor() == 0:
            return SpectrumVector((), 2, denominator=1)
        return weighted_spectrum(WeightSystem(self.weights, self.weighted_degree))
