"""Spectrum vectors: finite-support maps from rational exponents to integer
multiplicities, tagged with the number of variables they live in.

All arithmetic is exact. A vector keeps its exponents as integer numerators
over their least common denominator and its multiplicities as (possibly
negative) ints; it stores no zero entry, so equality is structural. This
module alone converts between those integers and `fractions.Fraction`
exponents, which appear only in the constructor's exponent form. The
writers, `exponent_texts` and `render_row`, work on the integers.
"""

from __future__ import annotations

import math
from itertools import compress, count, cycle

TYPE_CHECKING = False
if TYPE_CHECKING:       # annotations only: no `collections` at run time
    from collections.abc import Collection, Iterable, Mapping, Sequence


def _count(value, what: str = "multiplicity") -> int:
    """`value` as an int (2 and 2.0 alike); ValueError naming `what` when it
    is not integral, an infinity, NaN or a value int() refuses included.
    Every record reads its integer fields through this or `_positive`."""
    if type(value) is int:
        return value
    try:
        count = int(value)
    except (OverflowError, TypeError, ValueError):
        count = None
    if count is None or count != value:
        raise ValueError(f"{what} {value!r} is not an integer")
    return count


def _positive(value, what: str) -> int:
    """`_count(value, what)`, refused with "`what` must be positive" below 1;
    an exact int skips the `_count` call, so it costs one call frame."""
    count = value if type(value) is int else _count(value, what)
    if count < 1:
        raise ValueError(f"{what} must be positive")
    return count


def _tails(den: int, residues: Collection[int] | None = None) -> tuple[
        Sequence[int] | Mapping[int, int], Sequence[str] | Mapping[int, str]]:
    """The residue table of den as two flat lists (gs, qs), indexed by the
    residue r in range(den): k/den with k mod den == r is k // g over
    q = den // g in lowest terms, where g = gs[r] = gcd(r, den), and
    qs[r] = "/q", or "" when q == 1. The one place of the lowest-terms
    rule, which both writers read. The lists are laid by a divisor sieve:
    the divisors t of den (trial division up to isqrt(den)) are taken in
    ascending order, each writing t and "/(den // t)" at every t-th place,
    so the largest divisor of r is written last; that is sigma(den) element
    writes at C speed and no gcd. Given `residues` (few entries over a huge
    den), gs and qs are dicts over those residues alone, one gcd each."""
    if residues is not None:
        gs = {r: math.gcd(r, den) for r in residues}
        return gs, {r: "" if g == den else f"/{den // g}"
                    for r, g in gs.items()}
    small = [t for t in range(1, math.isqrt(den) + 1) if den % t == 0]
    gs, qs = [1] * den, [""] * den
    for t in small + [den // t for t in reversed(small) if t * t != den]:
        q = den // t
        gs[::t] = [t] * q
        qs[::t] = [f"/{q}" if q > 1 else ""] * q
    return gs, qs


def exponent_texts(nums: Sequence[int], den: int,
                   values: Iterable[int] | None = None) -> list[str]:
    """The exponents k/den (den >= 1) for the numerators k of `nums`, each
    in lowest terms, "p" or "p/q" as ``str(Fraction(k, den))`` writes it,
    followed by ":" and the value at the same place when `values` is given.
    k/den reduces by g = gcd(k mod den, den), so g and "/q" are read from
    the residue table (`_tails`) at r = k % den: its two flat lists over
    every residue when den <= len(nums), else its dicts over the residues
    present (few entries, huge den)."""
    gs, qs = _tails(den, None if den <= len(nums)
                    else {k % den for k in nums})
    if values is None:
        return [f"{k // gs[r]}{qs[r]}" for k in nums for r in (k % den,)]
    return [f"{k // gs[r]}{qs[r]}:{m}" for k, m in zip(nums, values)
            for r in (k % den,)]


def render_row(row: Sequence[int], den: int) -> str:
    """The `render` text of the vector whose value at k/den is row[k]:
    "k/den:v" for every nonzero row[k], in increasing k, written straight
    from the dense row. The two flat lists of the residue table (`_tails`)
    are walked alongside the row, each a `cycle` that laps once per den
    cells, and `compress` keeps the nonzero cells, so no entry takes
    k % den; and no gcd over the whole row is needed, since each entry is
    reduced on its own, so the text is the same over den as over the
    vector's least denominator."""
    gs, qs = _tails(den)
    cells = compress(zip(count(), row, cycle(gs), cycle(qs)), row)
    return ", ".join([f"{k // g}{q}:{v}" for k, v, g, q in cells])


class Numerators(dict):
    """A canonical table {numerator: multiplicity}, int keys and nonzero int
    values, that `SpectrumVector` takes as it is, without a copy: what
    `weighted_spectrum`, `reduced_cone_spectrum`, `thickened_spectrum`,
    `as_spectrum`, `dual` and the node and smooth-point spectra hand over."""


class SpectrumVector:
    """Finite multiset of rational exponents with signed multiplicities."""

    __slots__ = ("_den", "_nums", "_ambient_dim")

    def __init__(self, entries=None, ambient_dim: int = 1, *,
                 denominator: int | None = None):
        """`entries` maps exponents to multiplicities (a mapping or pairs).
        Exponents are `Fraction`/int/str, or integer numerators over
        `denominator` when that is given. A `Numerators` table over
        `denominator` is owned as it is; anything else is copied, each
        multiplicity checked integral (ValueError otherwise), zeros dropped."""
        ambient_dim = _positive(ambient_dim, "ambient_dim")
        if denominator is not None:
            denominator = _positive(denominator, "denominator")
        if denominator is not None and type(entries) is Numerators:
            table = entries
        else:
            pairs = (entries.items() if hasattr(entries, "items")
                     else entries or ())
            if denominator is None:
                from fractions import Fraction
                pairs = [(Fraction(e), m) for e, m in pairs]
                denominator = math.lcm(*(e.denominator for e, _ in pairs))
                pairs = [(e.numerator * (denominator // e.denominator), m)
                         for e, m in pairs]
            table = {}
            for k, mult in pairs:
                table[k] = table.get(k, 0) + _count(mult)
            table = {k: m for k, m in table.items() if m}
        g = math.gcd(denominator, *table)
        if g > 1:
            denominator //= g
            table = {k // g: m for k, m in table.items()}
        self._den = denominator
        self._nums = table
        self._ambient_dim = ambient_dim

    @property
    def ambient_dim(self) -> int:
        return self._ambient_dim

    @property
    def denominator(self) -> int:
        """Least common denominator of the exponents (1 when empty)."""
        return self._den

    def numerators(self, denominator: int | None = None) -> dict[int, int]:
        """Entries as {k: multiplicity} for exponents k/denominator (default:
        the vector's own); exponents off that grid are left out."""
        if denominator is None:
            denominator = self._den
        return {k * denominator // self._den: m for k, m in self._nums.items()
                if k * denominator % self._den == 0}

    def total(self) -> int:
        """Sum of all multiplicities (the Milnor number for a genuine germ)."""
        return sum(self._nums.values())

    def __len__(self) -> int:
        return len(self._nums)

    def __bool__(self) -> bool:
        return bool(self._nums)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpectrumVector):
            return NotImplemented
        return (self._ambient_dim == other._ambient_dim
                and self._den == other._den and self._nums == other._nums)

    def __hash__(self) -> int:
        return hash((self._ambient_dim, self._den,
                     frozenset(self._nums.items())))

    def dual(self) -> "SpectrumVector":
        """Reflect every exponent a to ambient_dim - a."""
        top, nums = self._ambient_dim * self._den, self._nums
        return SpectrumVector(Numerators(zip(map(top.__sub__, nums), nums.values())),
                              self._ambient_dim, denominator=self._den)

    def has_valid_support(self) -> bool:
        """True iff every exponent lies strictly inside (0, ambient_dim)."""
        nums = self._nums
        return not nums or (min(nums) > 0
                            and max(nums) < self._ambient_dim * self._den)

    def is_symmetric(self) -> bool:
        """True iff the vector equals its own dual: its table equals the
        table reflected k -> ambient_dim*den - k, on the same denominator."""
        top, nums = self._ambient_dim * self._den, self._nums
        return nums == {top - k: m for k, m in nums.items()}

    def render(self) -> str:
        """Canonical text form: "p/q:m" entries, increasing exponents."""
        nums = self._nums
        keys = sorted(nums)
        return ", ".join(exponent_texts(keys, self._den,
                                        map(nums.__getitem__, keys)))

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"SpectrumVector({{{self.render()}}}, ambient_dim={self._ambient_dim})"
