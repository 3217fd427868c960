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
from collections.abc import Collection, Iterable, Mapping, Sequence
from itertools import compress, count, cycle


def _count(mult) -> int:
    """`mult` as an int; ValueError when it is not integral."""
    count = int(mult)
    if count != mult:
        raise ValueError(f"multiplicity {mult!r} is not an integer")
    return count


def _tails(residues: Collection[int], den: int) -> list[tuple[int, str]]:
    """(g, "/q") for each residue r of `residues`, in their order: k/den
    with k mod den == r is k // g over q = den // g in lowest terms, where
    g = gcd(r, den), and "/q" is "" when q == 1. The one place of the
    lowest-terms rule, which both writers read."""
    gs = list(map(math.gcd, residues, [den] * len(residues)))
    qs = {g: "" if g == den else f"/{den // g}" for g in set(gs)}
    return list(zip(gs, map(qs.__getitem__, gs)))


def exponent_texts(nums: Sequence[int], den: int,
                   values: Iterable[int] | None = None) -> list[str]:
    """The exponents k/den (den >= 1) for the numerators k of `nums`, each
    in lowest terms, "p" or "p/q" as ``str(Fraction(k, den))`` writes it,
    followed by ":" and the value at the same place when `values` is given.
    k/den reduces by g = gcd(k mod den, den), so g and "/q" are worked out
    once per residue (`_tails`): in a list over every residue when
    den <= len(nums), else in a dict over the residues present (few
    entries, huge den)."""
    every = den <= len(nums)
    residues = range(den) if every else {k % den for k in nums}
    tails = _tails(residues, den)
    if not every:
        tails = dict(zip(residues, tails))
    if values is None:
        return [f"{k // g}{q}" for k in nums for g, q in (tails[k % den],)]
    return [f"{k // g}{q}:{m}" for k, m in zip(nums, values)
            for g, q in (tails[k % den],)]


def render_row(row: Sequence[int], den: int) -> str:
    """The `render` text of the vector whose value at k/den is row[k]:
    "k/den:v" for every nonzero row[k], in increasing k, written straight
    from the dense row. The residue table (`_tails`) is walked alongside the
    row, one lap per den cells, so no entry takes k % den; and no gcd over
    the whole row is needed, since each entry is reduced on its own, so the
    text is the same over den as over the vector's least denominator."""
    cells = zip(count(), row, cycle(_tails(range(den), den)))
    return ", ".join([f"{k // g}{q}:{v}"
                      for k, v, (g, q) in compress(cells, row)])


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
