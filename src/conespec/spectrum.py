"""Spectrum vectors: finite-support maps from rational exponents to integer
multiplicities, tagged with the number of variables they live in.

All arithmetic is exact. A vector keeps its exponents as integer numerators
over one denominator, the least common denominator of its exponents, and its
multiplicities as (possibly negative) Python ints. A vector is canonical:
entries with multiplicity 0 are never stored and the denominator is the
least one, so equality is structural. `fractions.Fraction` appears only at
the edge: the constructor's exponent form and `multiplicity`. `numerators`
and the ``denominator`` argument of the constructor are the integer way out
and in, and `exponent_texts` writes a whole list of exponents k/den from
their integers, as `render` and the csv writer print them. The constructor
copies the table it is given, except a `Numerators` table, canonical by
construction, which it takes as it is: the power transform and `dual` build
one, so their thousands of entries are written once, not twice.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction

ExponentLike = Fraction | int | str


def _count(mult) -> int:
    """`mult` as an int; ValueError when it is not integral."""
    count = int(mult)
    if count != mult:
        raise ValueError(f"multiplicity {mult!r} is not an integer")
    return count


def exponent_texts(nums: Sequence[int], den: int,
                   values: Iterable[int] | None = None) -> list[str]:
    """The exponents k/den (den >= 1) for the numerators k of `nums`, each
    in lowest terms, "p" or "p/q" as ``str(Fraction(k, den))`` writes it,
    followed by ":" and the value at the same place when `values` is given.
    k/den reduces by g = gcd(k mod den, den), so g and "/q" are worked out
    once per residue: in a list over every residue when den <= len(nums),
    else in a dict over the residues present (few entries, huge den)."""
    every = den <= len(nums)
    residues = range(den) if every else {k % den for k in nums}
    gs = list(map(math.gcd, residues, [den] * len(residues)))
    qs = {g: "" if g == den else f"/{den // g}" for g in set(gs)}
    tails = zip(gs, map(qs.__getitem__, gs))
    tails = list(tails) if every else dict(zip(residues, tails))
    if values is None:
        return [f"{k // g}{q}" for k in nums for g, q in (tails[k % den],)]
    return [f"{k // g}{q}:{m}" for k, m in zip(nums, values)
            for g, q in (tails[k % den],)]


class Numerators(dict):
    """A canonical table {numerator: multiplicity}, int keys and nonzero int
    values, that `SpectrumVector` takes as it is, without a copy."""


class SpectrumVector:
    """Finite multiset of rational exponents with signed multiplicities."""

    __slots__ = ("_den", "_nums", "_ambient_dim")

    def __init__(self, entries=None, ambient_dim: int = 1, *,
                 denominator: int | None = None):
        """`entries` maps exponents to multiplicities (a mapping or pairs).
        Exponents are `Fraction`/int/str, or integer numerators over
        `denominator` when that is given. A multiplicity must be integral
        (ValueError otherwise). `entries` is copied, except a `Numerators`
        table over `denominator`: the vector owns that one as it is."""
        if ambient_dim < 1:
            raise ValueError("ambient_dim must be a positive integer")
        if denominator is not None and denominator < 1:
            raise ValueError("denominator must be a positive integer")
        if denominator is not None and type(entries) is Numerators:
            table = entries
        elif denominator is not None and isinstance(entries, Mapping):
            # distinct numerators: one pass, zeros dropped once counted
            table = {k: c for k, m in entries.items()
                     if (c := m if type(m) is int else _count(m))}
        else:
            pairs = (entries.items() if isinstance(entries, Mapping)
                     else entries or ())
            if denominator is None:
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
        self._ambient_dim = int(ambient_dim)

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

    def multiplicity(self, exponent: ExponentLike) -> int:
        e = Fraction(exponent)
        scale, off_grid = divmod(self._den, e.denominator)
        return 0 if off_grid else self._nums.get(e.numerator * scale, 0)

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
        top = self._ambient_dim * self._den
        return all(0 < k < top for k in self._nums)

    def is_symmetric(self) -> bool:
        """True iff the vector equals its own dual."""
        return self.dual() == self

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
