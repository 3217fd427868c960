import itertools
import math
import random
from fractions import Fraction

import pytest

from conespec.local import (BranchDegreeError, LocalBranch, SingularPoint,
                            WeightSystem, _window_row, lattice_count,
                            lattice_row, weighted_spectrum, window_count)
from conespec.oracle import brute_lattice, brute_lattice_row
from conespec.spectrum import SpectrumVector
from reference import product, reduced_multiplicity, weighted_milnor

F = Fraction


def test_weight_system_validation():
    with pytest.raises(ValueError):
        WeightSystem((2, 2), 6)
    with pytest.raises(ValueError):
        WeightSystem((0, 1), 3)
    with pytest.raises(ValueError):
        WeightSystem((1, 1), 0)


def test_spectrum_cusp():
    spec = weighted_spectrum(WeightSystem((2, 3), 6))
    assert spec == SpectrumVector({F(5, 6): 1, F(7, 6): 1}, 2)


def test_spectrum_fermat_cubic():
    spec = weighted_spectrum(WeightSystem((1, 1, 1), 3))
    assert spec == SpectrumVector(
        {F(1): 1, F(4, 3): 3, F(5, 3): 3, F(2): 1}, 3)


def test_spectrum_node():
    spec = weighted_spectrum(WeightSystem((1, 1), 2))
    assert spec == SpectrumVector({F(1): 1}, 2)


def test_spectrum_indivisible_degree():
    # node written in weights (2, 3): branches u and v, weighted degree 5
    spec = weighted_spectrum(WeightSystem((2, 3), 5))
    assert spec == SpectrumVector({F(1): 1}, 2)
    # u * (u^5 - v^2) for weights (2, 5)
    spec = weighted_spectrum(WeightSystem((2, 5), 12))
    assert spec.total() == weighted_milnor(WeightSystem((2, 5), 12)) == 7
    assert spec.is_symmetric() and spec.has_valid_support()


def test_spectrum_rejects_smooth_or_invalid():
    with pytest.raises(ValueError):
        weighted_spectrum(WeightSystem((2, 3), 2))   # degree <= weight
    with pytest.raises(ValueError):
        weighted_spectrum(WeightSystem((2, 3), 7))   # u^2 v only: non-reduced


def test_milnor_examples():
    assert weighted_milnor(WeightSystem((2, 3), 6)) == 2
    for d in range(2, 7):
        assert weighted_milnor(WeightSystem((1, 1), d)) == (d - 1) ** 2
    assert weighted_milnor(WeightSystem((1, 1, 1), 3)) == 8


def test_milnor_rejects_nonintegral():
    # (10-2)(10-3)/6 is not an integer: no germ has weights (2,3), degree 10
    with pytest.raises(ValueError):
        weighted_milnor(WeightSystem((2, 3), 10))


def test_lattice_examples():
    for n in range(0, 30):
        assert lattice_count(1, 1, n) == n * (n - 1) // 2
    assert lattice_count(2, 3, 5) == 1
    assert lattice_count(2, 3, 1) == 0
    assert lattice_count(7, 11, 17) == 0


def test_lattice_against_brute_and_reciprocity():
    for w in range(1, 11):
        for wp in range(1, 11):
            for bound in range(-2, 201, 7):
                assert lattice_count(w, wp, bound) == brute_lattice(w, wp, bound)
                assert lattice_count(w, wp, bound) == lattice_count(wp, w, bound)


def test_lattice_row_against_counts_and_literal_row():
    for w in range(1, 9):
        for wp in range(1, 9):
            if math.gcd(w, wp) != 1:
                continue
            for top in range(61):
                row = lattice_row(w, wp, top)
                assert row == [lattice_count(w, wp, b)
                               for b in range(top + 1)], (w, wp, top)
                assert row == brute_lattice_row(w, wp, top), (w, wp, top)
                if top < w + wp:
                    assert row == [0] * (top + 1)
    assert lattice_row(1, 1, 0) == [0]
    assert lattice_row(2, 3, 4) == [0] * 5
    assert lattice_row(1, 1, 5) == [0, 0, 1, 3, 6, 10]


def test_window_examples():
    cusp = weighted_spectrum(WeightSystem((2, 3), 6))
    assert window_count(cusp, F(1)) == 1
    assert window_count(cusp, F(4, 3)) == 2
    assert window_count(SpectrumVector(None, 2), F(1, 2)) == 0


def test_window_boundaries_half_open():
    spec = SpectrumVector({F(1): 2, F(2): 1}, 2)
    assert window_count(spec, F(2)) == 2    # [1, 2) contains 1, not 2
    assert window_count(spec, F(1)) == 0    # [0, 1) contains neither


def test_validate_branches():
    """The constructor accepts branch degrees in {w, w', w*w'} ({1} at
    weights (1, 1)) and rejects any other."""
    assert SingularPoint((2, 3), (LocalBranch(6, 1),)).milnor() == 2
    ordinary = SingularPoint((1, 1), tuple(LocalBranch(1, 1) for _ in range(4)))
    assert ordinary.milnor() == 9
    with pytest.raises(BranchDegreeError):
        SingularPoint((2, 3), (LocalBranch(4, 1),))
    with pytest.raises(BranchDegreeError):
        SingularPoint((1, 1), (LocalBranch(2, 1), LocalBranch(1, 1)))


def test_point_accessors():
    p = SingularPoint((2, 3), (LocalBranch(2, 1), LocalBranch(6, 4)))
    assert p.weighted_degree == 8
    assert p.branch_count == 2
    assert p.weights != (1, 1)
    assert p.milnor() == 5   # (8-2)(8-3)/6
    o = SingularPoint((1, 1), tuple(LocalBranch(1, 2) for _ in range(3)))
    assert reduced_multiplicity(o) == 3
    assert o.milnor() == 4


def test_point_weights_must_be_coprime():
    with pytest.raises(ValueError):
        SingularPoint((2, 2), (LocalBranch(2, 1),))


def _valid_degrees(w, wp, dmax):
    out = set()
    for has_w in (0, 1):
        for has_wp in (0, 1):
            for c in range(dmax // (w * wp) + 1):
                d = has_w * w + has_wp * wp + c * w * wp
                if has_w + has_wp + c >= 1 and max(w, wp) < d <= dmax:
                    out.add(d)
    return sorted(out)


def test_spectrum_properties_small_sweep():
    for w in range(1, 5):
        for wp in range(w, 5):
            if math.gcd(w, wp) != 1:
                continue
            for d in _valid_degrees(w, wp, 30):
                ws = WeightSystem((w, wp), d)
                spec = weighted_spectrum(ws)
                assert spec.has_valid_support()
                assert spec.is_symmetric()
                assert spec.total() == weighted_milnor(ws)


def test_four_variable_systems():
    for weights, degrees in (((1, 1, 1, 1), range(2, 9)),
                             ((1, 1, 2, 2), range(4, 9, 2)),
                             ((1, 2, 3, 6), (12, 18))):
        for d in degrees:
            ws = WeightSystem(weights, d)
            spec = weighted_spectrum(ws)
            assert spec.has_valid_support()
            assert spec.is_symmetric()
            assert spec.total() == weighted_milnor(ws)


def test_factorization_against_single_variable_factors():
    for w in range(1, 5):
        for wp in range(w, 5):
            if math.gcd(w, wp) != 1:
                continue
            for d in range(2 * w * wp, 31, w * wp):
                joint = weighted_spectrum(WeightSystem((w, wp), d))
                f1 = weighted_spectrum(WeightSystem((w,), d))
                f2 = weighted_spectrum(WeightSystem((wp,), d))
                assert product(f1, f2) == joint


def test_bridge_identity_small():
    rng = random.Random(5)
    for w, wp in ((1, 1), (1, 2), (2, 3), (3, 4), (2, 5)):
        for dj in _valid_degrees(w, wp, 24):
            spec = weighted_spectrum(WeightSystem((w, wp), dj))
            for _ in range(40):
                d = rng.randint(1, 24)
                i = rng.randint(1, d)
                x = F(i, d)
                assert (lattice_count(w, wp, math.ceil(dj * x) - 1)
                        == window_count(spec, x))


def test_window_row_matches_window_count():
    """The difference-array row against one window at a time, for the top
    (n + 1)*d - 1 that `reduced_cone_spectrum` passes, on spectra with
    negative multiplicities, off-grid exponents and a d that their
    denominators do not divide. The exponents lie in (0, n), as the row
    requires."""
    rng = random.Random(6060)
    for _ in range(300):
        n = rng.randint(1, 3)
        d = rng.randint(1, 13)
        spectra = []
        for _ in range(rng.randint(0, 3)):
            entries = {}
            for _ in range(rng.randint(0, 8)):
                q = rng.choice([d + 1, 2 * d + 1, rng.randint(2, 12)])
                entries[F(rng.randint(1, n * q - 1), q)] = rng.randint(-3, 3)
            spectra.append(SpectrumVector(entries, ambient_dim=n))
        top = (n + 1) * d - 1
        row = _window_row(spectra, d, top)
        assert len(row) == top + 1
        for i in range(top + 1):
            assert row[i] == sum(window_count(s, F(i, d)) for s in spectra), \
                (spectra, d, i)


# -- the expansion the series kernel replaced, kept as a reference ------------

def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def _poly_divmod(num, den):
    """Long division in Z[u] by a monic den."""
    rem = list(num)
    if len(rem) < len(den):
        return [0], rem
    quo = [0] * (len(rem) - len(den) + 1)
    for k in range(len(quo) - 1, -1, -1):
        c = rem[k + len(den) - 1]
        quo[k] = c
        for j, dj in enumerate(den):
            rem[k + j] -= c * dj
    return quo, rem


def reference_spectrum(ws):
    """Convolution of geometric sums when every weight divides d, long
    division of prod (u^(d-w) - 1) by prod (u^w - 1) otherwise."""
    ws._require_isolated()
    d = ws.degree
    if all(d % w == 0 for w in ws.weights):
        coeffs = [1]
        for w in ws.weights:
            coeffs = _poly_mul(coeffs, [int(k % w == 0)
                                        for k in range(d - 2 * w + 1)])
    else:
        num, den = [1], [1]
        for w in ws.weights:
            num = _poly_mul(num, [-1] + [0] * (d - w - 1) + [1])
            den = _poly_mul(den, [-1] + [0] * (w - 1) + [1])
        coeffs, rem = _poly_divmod(num, den)
        if any(rem):
            raise ValueError(f"weights {ws.weights} with degree {d} do not "
                             "describe an isolated germ (inexact expansion)")
    if any(c < 0 for c in coeffs):
        raise ValueError(f"weights {ws.weights} with degree {d} do not "
                         "describe an isolated germ (negative multiplicity)")
    shift = sum(ws.weights)
    return SpectrumVector({F(shift + k, d): c for k, c in enumerate(coeffs)},
                          ambient_dim=len(ws.weights))


def _outcome(fn, ws):
    try:
        return fn(ws)
    except ValueError as exc:
        return str(exc)


def test_spectrum_matches_convolution_and_long_division():
    routes = {"divisible": 0, "exact": 0, "inexact": 0, "smooth": 0}
    for k in (1, 2, 3):
        for weights in itertools.product(range(1, 6), repeat=k):
            if k > 1 and math.gcd(*weights) != 1:
                continue
            for d in range(1, 17):
                ws = WeightSystem(weights, d)
                want = _outcome(reference_spectrum, ws)
                assert _outcome(weighted_spectrum, ws) == want, (weights, d)
                if isinstance(want, SpectrumVector):
                    divisible = all(d % w == 0 for w in weights)
                    routes["divisible" if divisible else "exact"] += 1
                else:
                    routes["inexact" if "inexact" in want else "smooth"] += 1
    assert min(routes.values()) > 50, routes
