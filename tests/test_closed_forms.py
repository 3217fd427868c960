"""Closed-form references where the Milnor fibre is a group.

The Milnor fibre of a monomial is mu_g x (C*)^n, so its spectrum follows
from topology alone (`reference.monomial_spectrum`), with no lattice or
window count. Three families of cones are such monomials, or joins of one
with x^d, and each is computed here by the engine's own routes:
- the triangle a*L1 + b*L2 + c*L3, whose cone is x^a y^b z^c, on the curve
  route with mixed multiplicities (at a = b = c = 2 its table holds a
  correct -2, at 3/2);
- (xy)^m, the power transform of the reduced config with n = 1, degree 2
  and no points;
- x^a y^b + z^d with d = a + b, the reduced curve of `monomial_join_curve`,
  whose spectrum is that of x^a y^b joined with F_d (Thom-Sebastiani).
"""

import pytest

from conespec.engine import (ReducedConeConfig, curve_table,
                             reduced_cone_spectrum, thickened_spectrum)
from generators import monomial_join_curve, triangle_curve
from reference import join, monomial_spectrum
from test_bridges import fermat


@pytest.mark.parametrize("a", range(1, 9))
def test_triangle_is_the_monomial(a):
    for b in range(1, 9):
        for c in range(1, 9):
            got = curve_table(triangle_curve(a, b, c)).as_spectrum()
            assert got == monomial_spectrum((a, b, c)), (a, b, c)


@pytest.mark.parametrize("m", range(1, 12))
def test_power_of_xy_is_the_monomial(m):
    cone = ReducedConeConfig(1, 2, (), m)
    got = thickened_spectrum(reduced_cone_spectrum(cone), cone)
    assert got == monomial_spectrum((m, m))


@pytest.mark.parametrize("a", range(1, 13))
def test_monomial_join_is_the_join(a):
    for b in range(1, 13):
        got = curve_table(monomial_join_curve(a, b)).as_spectrum()
        assert got == join(monomial_spectrum((a, b)), fermat(a + b)), (a, b)
