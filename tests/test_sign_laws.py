"""Row 0 of a cone's table is never negative.

The Milnor fibre F of a homogeneous f in n + 1 variables is a smooth affine
n-fold, so F^p H^j(F) = 0 for p > j (Deligne, Theorie de Hodge II and III,
Publ. IHES 40, 1971, and 44, 1974). An exponent alpha in (0, 1] has
p = n, so its multiplicity is dim Gr_F^n H^n(F)_lambda >= 0: on the curve
route, every cell of row 0. Other rows may be negative (x^2 y^2 z^2 has -2
at 3/2), so only row 0 is asserted.

The law holds for curves, so the corpora here are realizable: curves built
from geometry, each branch carrying the multiplicity of a component. The
random weighted generators draw data that need not be a curve, and are not
used. Nor are the (d, nu) data of `random_line_arrangement_data`, even
those that keep the two-point bound m_p + m_q - 1 <= d of an arrangement:
d = 9 with one 6-fold point, three 4-fold points and one triple point keeps
it, and row 0 is -1 at i = 7, but no 9 lines carry those points (a 4-fold
point meets the 6-fold one in at most one line, so it lies on all three
other lines, which two such points cannot share). The random arrangements
here are lines that exist, drawn with small integer coefficients.
"""

import random
from pathlib import Path

import pytest

from conespec.engine import (ReducedConeConfig, curve_table,
                             reduced_cone_spectrum, thickened_spectrum)
from conespec.formats import parse_singular, parse_vector_text
from generators import (binary_power_curve, binomial_pencil_curve,
                        line_arrangement_curve, monomial_join_curve,
                        named_line_arrangements, random_line_arrangement,
                        scale_multiplicities, triangle_curve)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
VECTORS = sorted(path.name for path in FIXTURES.glob("*.vectors"))


def fixture_curves(name):
    """The vector fixture over a, b in [1, 4] and c in [0, 3]."""
    vectors = parse_vector_text((FIXTURES / name).read_text())
    return [parse_singular(vectors, {"a": a, "b": b, "c": c})
            for a in range(1, 5) for b in range(1, 5) for c in range(4)]


CORPORA = {
    "triangle": lambda: [triangle_curve(a, b, c) for a in range(1, 9)
                         for b in range(1, 9) for c in range(1, 9)],
    "monomial-join": lambda: [monomial_join_curve(a, b)
                              for a in range(1, 13) for b in range(1, 13)],
    "binary-power": lambda: [binary_power_curve(e, m) for e in range(1, 7)
                             for m in range(1, 7)],
    "binomial-pencil": lambda: [
        binomial_pencil_curve(a, b, c, p, q, members)
        for a in range(1, 3) for b in range(1, 4) for c in range(1, 3)
        for p in range(2, 6) for q in range(1, p)
        for members in ((1,), (2,), (1, 2), (3, 1, 2))],
    "line-arrangements": lambda: [line_arrangement_curve(d, nu)
                                  for _, d, nu in named_line_arrangements()],
    "random-line-arrangements": lambda: [
        line_arrangement_curve(*random_line_arrangement(rng))
        for rng in [random.Random(31)] for _ in range(300)],
    **{name: lambda name=name: fixture_curves(name) for name in VECTORS},
}


@pytest.mark.parametrize("corpus", CORPORA)
def test_row0_is_nonnegative_on_curves(corpus):
    """Every cell of row 0 is >= 0 on the corpus and on the curves g*Z of
    its curves Z for g = 2 and 3 (`scale_multiplicities`)."""
    curves = CORPORA[corpus]()
    assert curves
    for cfg in curves:
        for g in (1, 2, 3):
            scaled = scale_multiplicities(cfg, g)
            assert min(curve_table(scaled).rows[0]) >= 0, (g, scaled)


def test_exponents_up_to_1_are_nonnegative_for_powers_of_xy():
    """The same law on the reduced route: (xy)^m for m in [1, 11], the
    power transform of the reduced config with n = 1 and degree 2."""
    for m in range(1, 12):
        cone = ReducedConeConfig(1, 2, (), m)
        spectrum = thickened_spectrum(reduced_cone_spectrum(cone), cone)
        den = spectrum.denominator
        assert all(mult >= 0 for k, mult in spectrum.numerators().items()
                   if k <= den), m
