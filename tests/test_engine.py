import math
import random
from fractions import Fraction

import pytest

from conespec.engine import (CurveConfig, GlobalComponent, Incidence,
                             ReducedConeConfig, binom2, curve_table,
                             euler_complement, euler_generic_union,
                             incidence_consistent, index_data,
                             local_data_table, ordinary_middle_row,
                             reduced_cone_spectrum, residue_degree,
                             smooth_cone_coeffs, thickened_spectrum)
from conespec.local import (LocalBranch, SingularPoint, lattice_count,
                            weighted_spectrum, WeightSystem)
from conespec.oracle import as_reduced_cone, brute_coeffs, thicken
from conespec.spectrum import SpectrumVector
from generators import (random_mixed_swh_config, random_ordinary_config,
                        random_reduced_swh_config)

F = Fraction


def comps(*pairs):
    return tuple(GlobalComponent(d, m) for d, m in pairs)


def opoint(*mults):
    return SingularPoint((1, 1), tuple(LocalBranch(1, m) for m in mults))


def pencil_config(a, b, c):
    """Conic pencil with two lines; four ordinary (c+2)-fold points, one node."""
    return CurveConfig(
        components=comps((2, a), *([(2, 1)] * c), (1, b), (1, 1)),
        points=(opoint(a, b, *[1] * c), opoint(a, b, *[1] * c),
                opoint(a, *[1] * (c + 1)), opoint(a, *[1] * (c + 1))),
        nodes=1,
        incidence=Incidence.from_pairs([]))


def test_binom2_extended():
    assert binom2(-1) == 1
    assert binom2(0) == 0
    assert binom2(1) == 0
    assert binom2(-2) == 3
    assert binom2(5) == 10


def test_index_data_reduced():
    cfg = CurveConfig(components=comps((3, 1), (2, 1)))
    d = cfg.degree
    for i in range(1, d + 1):
        shift, twist, residues = index_data(cfg, i)
        assert shift == 0 and twist == i
        assert all(r == F(i, d) for r in residues)


def test_index_data_top_index():
    cfg = pencil_config(2, 5, 2)
    shift, twist, residues = index_data(cfg, 14)
    assert shift == 14 - 8 == 6
    assert twist == cfg.reduced_degree == 8
    assert all(r == 1 for r in residues)


def test_index_data_first_index():
    cfg = pencil_config(3, 4, 1)
    shift, twist, _ = index_data(cfg, 1)
    assert shift == 0 and twist == 1


def test_index_data_range_contract():
    rng = random.Random(11)
    for _ in range(50):
        cfg = CurveConfig(components=comps(
            *[(rng.randint(1, 4), rng.randint(1, 5))
              for _ in range(rng.randint(1, 5))]))
        d = cfg.degree
        for i in range(1, d + 1):
            shift, twist, residues = index_data(cfg, i)
            assert 0 <= shift <= i - 1
            assert 1 <= twist <= i
            assert all(0 < r <= 1 for r in residues)
        assert index_data(cfg, d)[1] == cfg.reduced_degree


def test_index_data_rejects_out_of_range():
    cfg = pencil_config(1, 1, 0)
    with pytest.raises(ValueError):
        index_data(cfg, 0)
    with pytest.raises(ValueError):
        index_data(cfg, cfg.degree + 1)


def test_residue_degree_reduced_point():
    # for a point with all branch multiplicities 1 the value is d_j * i / d
    p = opoint(1, 1, 1)
    for d in (5, 9):
        for i in range(1, d + 1):
            assert residue_degree(p, i, d) == F(3 * i, d)


def test_residue_degree_examples():
    p = opoint(2, 5, 1, 1)
    assert residue_degree(p, 1, 14) == F(9, 14)
    assert residue_degree(p, 14, 14) == 4
    cusp = SingularPoint((2, 3), (LocalBranch(6, 2),))
    assert residue_degree(cusp, 6, 6) == 6


def test_curve_table_golden_pencil():
    t = curve_table(pencil_config(2, 5, 2))
    assert t.d == 14 and t.dprime == 8 and t.chi_u == 6
    assert list(t.rows[0]) == [0, 0, 0, 1, 1, 1, 2, 1, 1, 2, 2, 2, 3, 9]
    assert list(t.rows[1]) == [3, 4, 4, 3, 4, 4, 3, 4, 4, 3, 4, 4, 3, -4]
    assert list(t.rows[2]) == [3, 2, 2, 2, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0]


def test_curve_table_five_lines():
    cfg = CurveConfig(
        components=comps((1, 4), (1, 2), (1, 1), (1, 1), (1, 1)),
        points=(opoint(4, 2, 1), opoint(1, 1, 1)),
        nodes=4,
        incidence=Incidence.from_pairs([(6, 1)]))
    t = curve_table(cfg)
    assert list(t.rows[0]) == [0, 0, 0, 0, 0, 1, 0, 1, 4]
    assert list(t.rows[1]) == [0, 1, 1, 1, 1, 0, 1, 0, -4]
    assert list(t.rows[2])[:8] == [1, 0, 0, 0, 0, 0, 0, 0]
    assert t.chi_u == 1


def test_curve_table_smooth_conic():
    t = curve_table(CurveConfig(components=comps((2, 1))))
    assert t.chi_u == 1
    assert list(t.rows[1]) == [1, 0]
    assert all(v == 0 for v in t.rows[0]) and all(v == 0 for v in t.rows[2])
    oracle = weighted_spectrum(WeightSystem((1, 1, 1), 2))
    assert t.as_spectrum() == SpectrumVector(dict(oracle.items()), 3)


def test_curve_table_rejects_bad_branches():
    cfg = CurveConfig(
        components=comps((3, 1)),
        points=(SingularPoint((2, 3), (LocalBranch(4, 1),)),))
    with pytest.raises(ValueError):
        curve_table(cfg)


def test_middle_row_requires_ordinary_and_incidence():
    weighted = CurveConfig(
        components=comps((3, 1)),
        points=(SingularPoint((2, 3), (LocalBranch(6, 1),)),))
    with pytest.raises(ValueError):
        ordinary_middle_row(weighted)
    no_inc = pencil_config(2, 5, 2)
    no_inc = CurveConfig(no_inc.components, no_inc.points, no_inc.nodes, None)
    with pytest.raises(ValueError):
        ordinary_middle_row(no_inc)


def test_middle_row_matches_balance_row():
    for (a, b, c) in ((2, 5, 2), (1, 1, 0), (3, 4, 1)):
        cfg = pencil_config(a, b, c)
        assert ordinary_middle_row(cfg) == list(curve_table(cfg).rows[1])


def test_middle_row_two_lines():
    cfg = CurveConfig(components=comps((1, 1), (1, 1)), nodes=1,
                      incidence=Incidence.from_pairs([(2, 1)]))
    row = ordinary_middle_row(cfg)
    assert row[: cfg.degree - 1] == [0] * (cfg.degree - 1)


def test_smooth_cone_coeffs():
    assert smooth_cone_coeffs(3, 2) == [1, 3, 3, 1]
    assert smooth_cone_coeffs(2, 2) == [1]
    assert smooth_cone_coeffs(1, 3) == []
    for dprime in range(2, 13):
        for n in (1, 2, 3, 4):
            coeffs = smooth_cone_coeffs(dprime, n)
            assert coeffs == brute_coeffs(dprime, n)
            assert coeffs == coeffs[::-1]            # palindromic
            assert sum(coeffs) == (dprime - 1) ** (n + 1)


def test_reduced_cone_smooth():
    assert (reduced_cone_spectrum(ReducedConeConfig(2, 3))
            == weighted_spectrum(WeightSystem((1, 1, 1), 3)))


def test_reduced_cone_nodal_cubic():
    node = SpectrumVector({F(1): 1}, 2)
    sv = reduced_cone_spectrum(ReducedConeConfig(2, 3, (node,)))
    assert sv == SpectrumVector({F(1): 1, F(4, 3): 2, F(5, 3): 2}, 3)


def test_reduced_cone_cuspidal_cubic():
    cusp = weighted_spectrum(WeightSystem((2, 3), 6))
    sv = reduced_cone_spectrum(ReducedConeConfig(2, 3, (cusp,)))
    assert sv == SpectrumVector({F(4, 3): 1, F(5, 3): 1}, 3)


def test_thickened_identity_when_power_one():
    cusp = weighted_spectrum(WeightSystem((2, 3), 6))
    cfg = ReducedConeConfig(2, 3, (cusp,), power=1)
    base = reduced_cone_spectrum(cfg)
    assert thickened_spectrum(base, cfg) == base


def test_thickened_conic():
    cfg = ReducedConeConfig(2, 2, (), power=2)
    base = reduced_cone_spectrum(cfg)
    assert base == SpectrumVector({F(3, 2): 1}, 3)
    assert (thickened_spectrum(base, cfg)
            == SpectrumVector({F(5, 4): 1, F(7, 4): 1, F(5, 2): 1}, 3))


@pytest.mark.parametrize("m", [2, 3, 5])
def test_thickened_hyperplane(m):
    cfg = ReducedConeConfig(2, 1, (), power=m)
    base = reduced_cone_spectrum(cfg)
    assert not base
    sv = thickened_spectrum(base, cfg)
    assert sv == SpectrumVector({2 + F(k, m): 1 for k in range(1, m)}, 3)


def test_reduced_cone_higher_dimension():
    # smooth quadric threefold cone: single exponent 2 with multiplicity 1
    sv = reduced_cone_spectrum(ReducedConeConfig(3, 2))
    assert sv == SpectrumVector({F(2): 1}, 4)
    assert sv == weighted_spectrum(WeightSystem((1, 1, 1, 1), 2))


def test_local_table_smooth():
    t = local_data_table(3, [])
    direct = curve_table(CurveConfig(components=comps((3, 1))))
    assert t.rows == direct.rows and t.chi_u == direct.chi_u


def test_local_table_cuspidal_cubic():
    cusp = weighted_spectrum(WeightSystem((2, 3), 6))
    t = local_data_table(3, [cusp])
    assert list(t.rows[0]) == [0, 0, 0]
    assert list(t.rows[1]) == [1, 1, 0]
    assert list(t.rows[2]) == [0, 0, 0]
    assert t.chi_u == 1
    assert t.as_spectrum() == reduced_cone_spectrum(
        ReducedConeConfig(2, 3, (cusp,)))


def test_local_table_nodal_cubic_two_paths():
    node = SpectrumVector({F(1): 1}, 2)
    t = local_data_table(3, [node])
    assert list(t.rows[0]) == [0, 0, 1]
    assert t.as_spectrum() == reduced_cone_spectrum(
        ReducedConeConfig(2, 3, (node,)))


def test_euler_complement_examples():
    assert euler_complement(pencil_config(2, 5, 2)) == 6
    # generic line arrangements
    for dp in range(3, 13):
        cfg = CurveConfig(components=comps(*[(1, 1)] * dp),
                          nodes=binom2(dp))
        assert euler_complement(cfg) == binom2(dp - 2)


def test_euler_generic_union_examples():
    assert euler_generic_union([1] * 7) == binom2(5)
    assert euler_generic_union([2]) == 1
    assert euler_generic_union([3, 3]) == 12
    # matches an explicitly built nodal union
    cfg = CurveConfig(components=comps((3, 1), (3, 1)), nodes=9)
    assert euler_complement(cfg) == euler_generic_union([3, 3])


def test_incidence_consistent():
    two_lines = CurveConfig(components=comps((1, 1), (1, 1)), nodes=1,
                            incidence=Incidence.from_matrix([[1, 1]]))
    assert incidence_consistent(two_lines)
    # two nodal cubics through a shared double point plus 5 extra nodes
    cubics = CurveConfig(
        components=comps((3, 1), (3, 1)),
        points=(opoint(1, 1, 1, 1),),
        nodes=5,
        incidence=Incidence.from_matrix([[2, 2]] + [[1, 1]] * 5))
    assert incidence_consistent(cubics)
    # empty rows cannot account for the intersection number
    broken = CurveConfig(components=comps((1, 1), (1, 1)), nodes=1,
                         incidence=Incidence.from_matrix([[0, 0]]))
    assert not incidence_consistent(broken)


def test_incidence_consistent_needs_matrix():
    cfg = pencil_config(2, 5, 2)
    with pytest.raises(ValueError):
        incidence_consistent(cfg)


def test_aggregated_node_neutrality():
    base = CurveConfig(
        components=comps((2, 3), (1, 2), (1, 1)),
        points=(opoint(3, 2), opoint(3, 1)),
        nodes=1)
    folded = CurveConfig(
        components=base.components,
        points=base.points[:1],
        nodes=2)
    ta, tb = curve_table(base), curve_table(folded)
    assert ta.rows == tb.rows and ta.chi_u == tb.chi_u


def test_thickening_consistency_cusp():
    red = CurveConfig(components=comps((3, 1)),
                      points=(SingularPoint((2, 3), (LocalBranch(6, 1),)),))
    for m in (2, 3):
        fat = thicken(red, m)
        rc = as_reduced_cone(red, power=m)
        sv = thickened_spectrum(reduced_cone_spectrum(rc), rc)
        assert sv == curve_table(fat).as_spectrum()


def test_reduced_config_validates_spectra():
    asym = SpectrumVector({F(1, 2): 1}, 2)
    with pytest.raises(ValueError):
        ReducedConeConfig(2, 3, (asym,))
    out_of_range = SpectrumVector({F(5, 2): 1, F(-1, 2): 1}, 2)
    with pytest.raises(ValueError):
        ReducedConeConfig(2, 3, (out_of_range,))
    wrong_dim = SpectrumVector({F(3, 2): 1}, 3)
    with pytest.raises(ValueError):
        ReducedConeConfig(2, 3, (wrong_dim,))


def fraction_columns(cfg):
    """Rows 0 and 2, and the incidence middle row where it applies, through
    Fraction residues and math.ceil: the arithmetic the engine used before
    it computed in integers over d."""
    d, dp = cfg.degree, cfg.reduced_degree
    middle_applies = cfg.is_ordinary() and cfg.incidence is not None
    if middle_applies:
        base = (sum(binom2(c.degree) for c in cfg.components)
                - sum(n * binom2(v) for n, v in cfg.incidence.pairs))
    row0, row2, middle = [], [], []
    for i in range(1, d + 1):
        twist = i - sum(c.degree * (math.ceil(F(c.multiplicity * i, d)) - 1)
                        for c in cfg.components)
        r0 = binom2(twist - 1)
        r2 = binom2(dp - twist - 1) - (1 if i == d else 0)
        v = (twist - 1) * (dp - twist - 1)
        for p in cfg.points:
            g = F(0)
            for b in p.branches:
                u = F(b.multiplicity * i, d)
                g += (u - math.ceil(u) + 1) * b.weighted_degree
            ceil_g = math.ceil(g)
            r0 -= lattice_count(*p.weights, ceil_g - 1)
            r2 -= lattice_count(*p.weights, p.weighted_degree - ceil_g)
            if middle_applies:
                v -= (ceil_g - 1) * (p.reduced_multiplicity - ceil_g)
        row0.append(r0)
        row2.append(r2)
        if middle_applies:
            middle.append(v + base)
    return row0, row2, (middle if middle_applies else None)


@pytest.mark.parametrize("make", [random_ordinary_config,
                                  random_reduced_swh_config,
                                  random_mixed_swh_config])
def test_integer_kernel_matches_fraction_arithmetic(make):
    rng = random.Random(4242)
    for _ in range(60):
        cfg = make(rng)
        row0, row2, middle = fraction_columns(cfg)
        table = curve_table(cfg)
        assert (list(table.rows[0]), list(table.rows[2])) == (row0, row2), cfg
        if middle is not None:
            assert ordinary_middle_row(cfg) == middle, cfg
