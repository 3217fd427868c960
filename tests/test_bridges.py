"""Thom-Sebastiani bridges between the curve route and the reduced route.

Sp(f(x) + g(y)) = Sp(f) * Sp(g), the join of `reference.join` (Scherk and
Steenbrink, Math. Ann. 271, 1985, for isolated singularities; Maxim, Saito
and Schuermann, IMRN 2020, for non-isolated ones such as these cones). F_d
is the spectrum {k/d : 1 <= k < d} of x^d. Each bridge compares two routes
whose formulas share nothing: the curve route counts lattice points and
twists, the reduced route counts windows of local spectra.
"""

import random

from conespec.engine import (ReducedConeConfig, curve_table,
                             reduced_cone_spectrum, thickened_spectrum)
from conespec.spectrum import SpectrumVector
from generators import (binary_power_curve, random_ordinary_config,
                        random_reduced_swh_config)
from reference import join

NODE = SpectrumVector({1: 1}, 2)


def fermat(d):
    """F_d, the spectrum of x^d in one variable."""
    return SpectrumVector({k: 1 for k in range(1, d)}, 1, denominator=d)


def test_bridge_a_reduced_route_lifts_the_curve_route():
    """For a reduced plane curve C = {g = 0} of degree d, g + x3^d has the
    singular points g_p(u, v) + w^d, so the reduced cone (n = 3, degree d)
    with local spectra Sp(p) * F_d, and {1} * F_d per node, has the spectrum
    of C's table joined with F_d; lifting once more gives n = 4. Checked at
    d <= 40 for n = 3 and d <= 15 for n = 4, the integer-exponent cell
    included."""
    rng = random.Random(1)
    checked = {3: 0, 4: 0}
    for _ in range(100):
        for cfg in (random_reduced_swh_config(rng),
                    random_ordinary_config(rng, max_mult=1)):
            assert cfg.is_reduced()
            d = cfg.degree
            spectra = [p.local_spectrum() for p in cfg.points]
            spectra += [NODE] * cfg.nodes
            want = curve_table(cfg).as_spectrum()
            for n, bound in ((3, 40), (4, 15)):
                if d > bound:
                    break
                lifted = {s: join(s, fermat(d)) for s in set(spectra)}
                spectra = [lifted[s] for s in spectra]
                want = join(want, fermat(d))
                got = reduced_cone_spectrum(ReducedConeConfig(n, d, spectra))
                assert got == want, (n, cfg)
                checked[n] += 1
    assert checked[3] == 200 and checked[4] > 150, checked


def test_bridge_b_power_transform_matches_the_curve_route():
    """For e >= 1, m >= 2 and D = m*e, h^m + x2^D is a reduced curve of
    degree D (`binary_power_curve`), and its table is the power transform
    of the cone of h (n = 1, degree e, power m) joined with F_D."""
    for e in range(1, 7):
        for m in range(2, 7):
            cone = ReducedConeConfig(1, e, (), m)
            power = thickened_spectrum(reduced_cone_spectrum(cone), cone)
            assert curve_table(binary_power_curve(e, m)).as_spectrum() == \
                join(power, fermat(m * e)), (e, m)
