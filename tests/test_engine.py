import copy
import io
import itertools
import math
import pickle
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

import conespec.engine
from conespec import cli, formats, local, oracle
from conespec.cli import ScanSpec, run_scan
from conespec.engine import (CurveConfig, GlobalComponent, Incidence,
                             ReducedConeConfig, _column, _floor_row, _shift,
                             binom2, curve_table,
                             euler_complement, incidence_consistent,
                             index_data, local_data_table,
                             ordinary_middle_row, reduced_cone_spectrum,
                             residue_degree, scan_values, smooth_cone_coeffs,
                             thickened_spectrum)
from conespec.formats import parse_native, parse_singular, parse_vector_text
from conespec.local import (LocalBranch, SingularPoint, lattice_count,
                            lattice_row, milnor_number, weighted_spectrum,
                            WeightSystem)
from conespec.oracle import as_reduced_cone, cross_check, verify
from conespec.spectrum import SpectrumVector
from generators import (random_mixed_swh_config, random_ordinary_config,
                        random_redrawn_incidence_config,
                        random_reduced_swh_config, scale_multiplicities)
from reference import (binomial_local_table, branch_terms,
                       convolution_coeffs, curve_data, emit_native,
                       emit_vectors, euler_generic_union, fraction_items,
                       reduced_multiplicity, thicken, weighted_milnor)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

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


def test_stored_point_terms_match_the_branch_walk():
    """Every point of the generator corpora carries the terms, d_j and mass
    of one walk of its branches (`reference.branch_terms`), so the kernel,
    `residue_degree`, `weighted_degree` and `milnor()` read what that walk
    gives."""
    rng = random.Random(2034)
    makers = (random_ordinary_config, random_reduced_swh_config,
              random_mixed_swh_config, random_redrawn_incidence_config)
    seen = 0
    for k in range(240):
        cfg = makers[k % 4](rng)
        for p in scale_multiplicities(cfg, 1 + k % 3).points + cfg.points:
            terms, dj, mass = branch_terms(p)
            assert p._key == (tuple(p.weights), terms, dj, mass, p.milnor())
            assert p.weighted_degree == dj
            w, wp = p.weights
            assert p.milnor() == (dj - w) * (dj - wp) // (w * wp)
            d = cfg.degree
            i = 1 + k % d
            assert residue_degree(p, i, d) == F(i * mass, d) - sum(
                deg * ((m * i - 1) // d) for m, deg in terms)
            seen += 1
    assert seen > 500


CORPUS_MAKERS = (random_ordinary_config, random_reduced_swh_config,
                 random_mixed_swh_config, random_redrawn_incidence_config)


def test_config_derives_the_data_of_one_walk():
    """Every config of the generator corpora, scaled, derives the d, d',
    component terms, counted point keys and chi(U) of one literal walk
    (`reference.curve_data`): built directly, parsed from native text and,
    when its points are ordinary, from vector text, and after copy and
    pickle round trips of each. `degree`, `reduced_degree`,
    `euler_complement`, `multiplicities` and `is_ordinary` read what it
    derived; each `multiplicities` call returns a set of its own. The native
    parse keeps the incidence, and the vector parse its pairs."""
    rng = random.Random(3035)
    vectors = 0
    for k in range(160):
        cfg = scale_multiplicities(CORPUS_MAKERS[k % 4](rng), 1 + k % 3)
        want = curve_data(cfg)
        mults = ({c.multiplicity for c in cfg.components}
                 | {b.multiplicity for p in cfg.points for b in p.branches})
        ordinary = all(p.weights == (1, 1) for p in cfg.points)
        built = [cfg, parse_native(emit_native(cfg))({})]
        assert built[1].incidence == cfg.incidence
        if ordinary:
            built.append(parse_singular(
                parse_vector_text(emit_vectors(cfg)), {}))
            assert built[2].incidence.pairs == (
                () if cfg.incidence is None else built[1].incidence.pairs)
            vectors += 1
        for parsed in built:
            assert parsed.components == cfg.components
            assert parsed.points == cfg.points
            for clone in (parsed, copy.copy(parsed), copy.deepcopy(parsed),
                          pickle.loads(pickle.dumps(parsed))):
                assert clone._derived == want
                clone.multiplicities().pop()
                assert clone.multiplicities() == mults
                assert clone.is_ordinary() == ordinary
        assert (cfg.degree, cfg.reduced_degree, euler_complement(cfg)) == (
            want[0], want[1], want[4])
    assert 80 <= vectors < 160


def test_built_config_computes_no_milnor_number(monkeypatch):
    """Once a config is built, its table, scan values, chi(U), `verify` and
    `cross_check` read each Milnor number its points derived: none of them
    calls `milnor_number`."""
    rng = random.Random(3036)
    configs = [CORPUS_MAKERS[k % 4](rng) for k in range(40)]
    assert sum(len(cfg.points) for cfg in configs) > 40

    def refuse(*args):
        raise AssertionError("milnor_number called on a built config")

    for module in (local, conespec.engine, oracle, formats, cli):
        if getattr(module, "milnor_number", None) is milnor_number:
            monkeypatch.setattr(module, "milnor_number", refuse)
    for cfg in configs:
        curve_table(cfg)
        scan_values(cfg, {})
        euler_complement(cfg)
        assert verify(cfg).checks
        assert cross_check(cfg).checks


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
    assert t.as_spectrum() == SpectrumVector(dict(fraction_items(oracle)), 3)


def test_middle_row_requires_ordinary_and_incidence():
    weighted = CurveConfig(
        components=comps((3, 1)),
        points=(SingularPoint((2, 3), (LocalBranch(6, 1),)),))
    with pytest.raises(ValueError):
        ordinary_middle_row(weighted, curve_table(weighted))
    no_inc = pencil_config(2, 5, 2)
    no_inc = CurveConfig(no_inc.components, no_inc.points, no_inc.nodes, None)
    with pytest.raises(ValueError):
        ordinary_middle_row(no_inc, curve_table(no_inc))


def test_middle_row_matches_balance_row():
    for (a, b, c) in ((2, 5, 2), (1, 1, 0), (3, 4, 1)):
        cfg = pencil_config(a, b, c)
        table = curve_table(cfg)
        assert ordinary_middle_row(cfg, table) == list(table.rows[1])


def test_middle_row_two_lines():
    cfg = CurveConfig(components=comps((1, 1), (1, 1)), nodes=1,
                      incidence=Incidence.from_pairs([(2, 1)]))
    row = ordinary_middle_row(cfg, curve_table(cfg))
    assert row[: cfg.degree - 1] == [0] * (cfg.degree - 1)


def test_smooth_cone_coeffs():
    assert smooth_cone_coeffs(3, 2) == [1, 3, 3, 1]
    assert smooth_cone_coeffs(2, 2) == [1]
    assert smooth_cone_coeffs(1, 3) == []
    for dprime, n in ((0, 2), (2, 0)):
        with pytest.raises(ValueError, match="need dprime >= 1 and n >= 1"):
            smooth_cone_coeffs(dprime, n)
    for dprime in range(2, 13):
        for n in (1, 2, 3, 4):
            coeffs = smooth_cone_coeffs(dprime, n)
            assert coeffs == convolution_coeffs(dprime, n)
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


def test_thickened_refuses_a_base_of_another_dimension():
    cfg = ReducedConeConfig(1, 2, (), power=3)
    with pytest.raises(ValueError, match="base must live in 2 variables, not 5"):
        thickened_spectrum(SpectrumVector({1: 1}, 5), cfg)
    assert thickened_spectrum(SpectrumVector({1: 1}, 2), cfg).ambient_dim == 2


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


def test_local_table_matches_closed_forms():
    # the rows read from reduced_cone_spectrum against the closed-form
    # twisted-bundle rows they replaced, d = 1 and 2 included
    systems = (((2, 3), 6), ((1, 3), 6), ((3, 4), 12), ((2, 5), 10),
               ((5, 7), 35), ((1, 1), 2), ((1, 1), 3), ((1, 1), 5))
    pool = [weighted_spectrum(WeightSystem(w, k)) for w, k in systems]
    pool.append(SpectrumVector({F(1): 1}, 2))
    rng = random.Random(1313)
    for trial in range(200):
        d = trial % 40 + 1
        specs = [rng.choice(pool) for _ in range(rng.randint(0, 4))]
        got, want = local_data_table(d, specs), binomial_local_table(d, specs)
        assert (got.d, got.dprime, got.chi_u, got.rows) == \
            (want.d, want.dprime, want.chi_u, want.rows), (d, specs)


def test_local_table_rejects_what_the_reduced_config_rejects():
    for degree in (0, -3):
        with pytest.raises(ValueError, match="degree must be positive"):
            local_data_table(degree, [])
    with pytest.raises(ValueError, match="not symmetric"):
        local_data_table(3, [SpectrumVector({F(1, 2): 1}, 2)])


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
        rc = as_reduced_cone(fat)
        sv = thickened_spectrum(reduced_cone_spectrum(rc), rc)
        assert sv == curve_table(fat).as_spectrum()


def test_reduced_config_validates_spectra(tmp_path, capsys):
    asym = SpectrumVector({F(1, 2): 1}, 2)
    with pytest.raises(ValueError):
        ReducedConeConfig(2, 3, (asym,))
    out_of_range = SpectrumVector({F(5, 2): 1, F(-1, 2): 1}, 2)
    with pytest.raises(ValueError):
        ReducedConeConfig(2, 3, (out_of_range,))
    # the boundary exponents 0, n and n + 1/d, which `_window_row` relies
    # on never seeing, refused by the constructor and by ``compute``
    path = tmp_path / "boundary.txt"
    for exponent in (F(0), F(2), F(7, 3)):
        message = f"local spectrum {exponent}:1 has exponents outside (0, 2)"
        with pytest.raises(ValueError, match=re.escape(message)):
            ReducedConeConfig(2, 3, (SpectrumVector({exponent: 1}, 2),))
        path.write_text(f"reduced n=2 degree=3\nlocalspectrum {exponent}:1\n")
        assert cli.main(["compute", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: line 2: [config-invalid] {message}\n")
    wrong_dim = SpectrumVector({F(3, 2): 1}, 3)
    with pytest.raises(ValueError):
        ReducedConeConfig(2, 3, (wrong_dim,))
    negative = SpectrumVector({F(1): -1}, 2)
    with pytest.raises(ValueError):
        ReducedConeConfig(2, 3, (negative,))


def fraction_column(cfg, i):
    """Rows 0 and 2 at column i, and the incidence middle row there where it
    applies, through Fraction residues and math.ceil: the arithmetic the
    engine used before it computed in integers over d."""
    d, dp = cfg.degree, cfg.reduced_degree
    middle_applies = cfg.is_ordinary() and cfg.incidence is not None
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
            v -= (ceil_g - 1) * (reduced_multiplicity(p) - ceil_g)
    if not middle_applies:
        return r0, r2, None
    return r0, r2, (v + sum(binom2(c.degree) for c in cfg.components)
                    - sum(n * binom2(value) for n, value in cfg.incidence.pairs))


def fraction_columns(cfg):
    """Rows 0 and 2, and the incidence middle row where it applies, column
    by column through `fraction_column`."""
    row0, row2, middle = zip(*(fraction_column(cfg, i)
                               for i in range(1, cfg.degree + 1)))
    return (list(row0), list(row2),
            None if middle[0] is None else list(middle))


def random_scaled_config(rng):
    """An ordinary or a mixed config with every multiplicity multiplied by
    a seeded g in 2..6, incidence kept: its columns repeat every d // g,
    `_period_rows` builds one such period and `_table` tiles it."""
    make = rng.choice((random_ordinary_config, random_mixed_swh_config))
    return scale_multiplicities(make(rng), rng.randint(2, 6))


@pytest.mark.parametrize("make", [random_ordinary_config,
                                  random_redrawn_incidence_config,
                                  random_reduced_swh_config,
                                  random_mixed_swh_config,
                                  random_scaled_config])
def test_integer_kernel_matches_fraction_arithmetic(make):
    rng = random.Random(4242)
    for _ in range(60):
        cfg = make(rng)
        row0, row2, middle = fraction_columns(cfg)
        table = curve_table(cfg)
        assert (list(table.rows[0]), list(table.rows[2])) == (row0, row2), cfg
        if middle is not None:
            assert ordinary_middle_row(cfg, table) == middle, cfg


@pytest.mark.parametrize("g", [2, 3, 25])
def test_tiled_middle_row_is_the_column_balance(g):
    """Row 1 of `curve_table`, tiled from one period, is chi(U) - row0 -
    row2 in every column, with row 2's -1 at i = d undone, on curves whose
    multiplicities share the factor g."""
    rng = random.Random(4500 + g)
    for _ in range(12):
        make = rng.choice((random_ordinary_config, random_mixed_swh_config))
        cfg = scale_multiplicities(make(rng), g)
        table = curve_table(cfg)
        row0, row1, row2 = map(list, table.rows)
        row2[-1] += 1
        assert len(row1) == cfg.degree
        assert row1 == [table.chi_u - a - b for a, b in zip(row0, row2)], cfg


def milnor_chi(cfg):
    """chi(U) from the Milnor numbers of the weight systems, by their
    Fraction product."""
    dp = cfg.reduced_degree
    milnor = sum(weighted_milnor(WeightSystem(p.weights, p.weighted_degree))
                 for p in cfg.points) + cfg.nodes
    return 3 - (3 - dp) * dp - milnor


def multiplicity_template(cfg):
    """Native text of cfg in which the first component and the first branch
    of the first point carry the multiplicity m, and the configs it gives."""
    lines = emit_native(CurveConfig(cfg.components, cfg.points,
                                    cfg.nodes)).splitlines()
    for k, prefix in ((1, "component "), (1 + len(cfg.components), "point ")):
        if k < len(lines) and lines[k].startswith(prefix):
            lines[k] = re.sub(r"(mult=|:)\d+", r"\1m", lines[k], count=1)

    def build(m):
        comps = (GlobalComponent(cfg.components[0].degree, m),
                 *cfg.components[1:])
        points = cfg.points
        if points:
            first = points[0].branches
            branches = (LocalBranch(first[0].weighted_degree, m), *first[1:])
            points = (SingularPoint(points[0].weights, branches), *points[1:])
        return CurveConfig(comps, points, cfg.nodes)

    return "\n".join(lines) + "\n", build


def random_templates(make):
    """25 seeded multiplicity templates of `make`, each swept over m in
    [1, 6], as (text, ranges, fixed, config of a binding)."""
    rng = random.Random(5151)
    for _ in range(25):
        text, build = multiplicity_template(make(rng))
        yield text, {"m": (1, 6)}, {}, lambda binding, b=build: b(binding["m"])


def vector_template(name, ranges, fixed):
    """The shipped vector fixture `name` on a small grid."""
    text = (FIXTURES / f"{name}.vectors").read_text()
    vectors = parse_vector_text(text)
    return [(text, ranges, fixed,
             lambda binding: parse_singular(vectors, binding))]


def expected_scan_row(combo, cfg, predicates):
    """The CSV row of `scan` at the grid point `combo` of `cfg`, from
    `fraction_column` and `milnor_chi`; None where a predicate drops it."""
    d, chi = cfg.degree, milnor_chi(cfg)
    n3d = fraction_column(cfg, 3)[0] if d >= 3 else None
    holds = {"n3d_zero": None if n3d is None else n3d == 0,
             "chi_nonzero": chi != 0}
    if any(holds[p] is None for p in predicates):
        flags = "n/a"
    elif all(holds[p] for p in predicates):
        flags = ";".join(predicates)
    else:
        return None
    return [*map(str, combo), str(d), str(cfg.reduced_degree),
            "n/a" if n3d is None else str(n3d), str(chi), flags]


# native multiplicity templates, and the six shipped vector fixtures: the
# -2 groups of sextic-pencil and conic-pencil list one point object twice,
# and cubic-pencil and quartic-pencil count their nodes with div
SCAN_TEMPLATES = {
    **{make.__name__: lambda make=make: random_templates(make)
       for make in (random_ordinary_config, random_reduced_swh_config,
                    random_mixed_swh_config)},
    "five-lines": lambda: vector_template(
        "five-lines", {"a": (1, 3), "c": (0, 2)}, {"b": 2}),
    "lines-conic": lambda: vector_template(
        "lines-conic", {"a": (1, 3), "b": (1, 3)}, {"c": 1}),
    "conic-pencil": lambda: vector_template(
        "conic-pencil", {"a": (1, 3), "b": (1, 2), "c": (0, 2)}, {}),
    "cubic-pencil": lambda: vector_template(
        "cubic-pencil", {"a": (1, 2), "b": (1, 2), "c": (0, 3)}, {}),
    "quartic-pencil": lambda: vector_template(
        "quartic-pencil", {"a": (1, 2), "b": (1, 2), "c": (0, 3)}, {}),
    "sextic-pencil": lambda: vector_template(
        "sextic-pencil", {"a": (1, 2), "b": (1, 2), "c": (0, 2)}, {}),
}
SCAN_CASES = [(name, predicates) for name in SCAN_TEMPLATES
              for predicates in ((), ("n3d_zero",), ("chi_nonzero",),
                                 ("n3d_zero", "chi_nonzero"))]


@pytest.mark.parametrize("name, predicates", SCAN_CASES,
                         ids=["-".join((name, *predicates))
                              for name, predicates in SCAN_CASES])
def test_scan_cell_matches_fraction_column(name, predicates):
    """Every CSV row of `scan`, and which rows a predicate keeps, against
    the Fraction column and the Milnor numbers of the weight systems."""
    for text, ranges, fixed, build in SCAN_TEMPLATES[name]():
        out = io.StringIO()
        run_scan(ScanSpec(template=text, ranges=ranges, fixed=fixed,
                          predicates=predicates), out)
        names = sorted(ranges)
        want = []
        for combo in itertools.product(*(range(lo, hi + 1) for lo, hi
                                          in (ranges[n] for n in names))):
            cfg = build({**fixed, **dict(zip(names, combo))})
            row = expected_scan_row(combo, cfg, predicates)
            if row is not None:
                want.append(row)
        got = [line.split(",") for line in out.getvalue().splitlines()[1:]]
        assert got == want, text


@pytest.mark.parametrize("make", [random_ordinary_config,
                                  random_reduced_swh_config,
                                  random_mixed_swh_config,
                                  random_scaled_config])
def test_rows_on_one_column_match_the_rows_on_all_columns(make):
    """`_column(cfg, i, {})` is column i of row 0 of `curve_table(cfg)`
    for every i in [1, d]. `_column` is the scalar path and `curve_table`
    the whole-row path, so this pins the two paths equal on the row that
    ``scan`` reads; row 2 is pinned against the `Fraction` reference by
    `test_integer_kernel_matches_fraction_arithmetic`."""
    rng = random.Random(1616)
    for _ in range(40):
        cfg = make(rng)
        rows = curve_table(cfg).rows
        assert all(len(row) == cfg.degree for row in rows)
        for i in range(1, cfg.degree + 1):
            assert _column(cfg, i, {}) == rows[0][i - 1]


def test_floor_row_is_shift_on_every_column():
    """`_floor_row` gives `_shift` column by column on [1, width], also for
    a multiplicity above d (a slope of several steps per column), a
    multiplicity that d divides and a negative degree."""
    rng = random.Random(2929)
    for _ in range(2000):
        d = rng.randint(1, 60)
        terms = tuple((rng.randint(1, 4 * d), rng.randint(-5, 9))
                      for _ in range(rng.randint(1, 4)))
        width = rng.randint(1, d)
        assert _floor_row(terms, width, d) == [
            _shift(terms, i, d) for i in range(1, width + 1)], (terms, d)


def test_scan_builds_each_lattice_row_once(monkeypatch):
    """One ``scan`` builds each lattice row once, keyed on (w, w', top),
    and never writes to a shared row: handed out as tuples, a write would
    raise. A second scan builds its rows again."""
    text = (FIXTURES / "five-lines.vectors").read_text()
    spec = ScanSpec(template=text, ranges={"a": (1, 30), "c": (0, 29)},
                    fixed={"b": 2})
    want = io.StringIO()
    run_scan(spec, want)
    calls = []

    def frozen(w, wp, top):
        calls.append((w, wp, top))
        return tuple(lattice_row(w, wp, top))

    monkeypatch.setattr(conespec.engine, "lattice_row", frozen)
    for _ in range(2):
        calls.clear()
        out = io.StringIO()
        run_scan(spec, out)
        assert out.getvalue() == want.getvalue()
        assert calls == [(1, 1, 2)]


def test_table_rows_build_one_period(monkeypatch):
    """With every multiplicity a multiple of g, `curve_table` builds each
    floor row on d // g columns at most and tiles it; with g = 1 on all d."""
    lengths = []

    def recording(terms, width, d):
        lengths.append(width)
        return _floor_row(terms, width, d)

    monkeypatch.setattr(conespec.engine, "_floor_row", recording)
    cfg = pencil_config(2, 3, 1)
    fat = thicken(cfg, 6)
    curve_table(fat)
    assert lengths and max(lengths) <= fat.degree // 6
    lengths.clear()
    curve_table(cfg)
    assert lengths and set(lengths) == {cfg.degree}


def test_scan_cell_builds_no_table(monkeypatch):
    def no_table(cfg):
        raise AssertionError("scan built a whole table")

    monkeypatch.setattr(cli, "curve_table", no_table)
    text = (FIXTURES / "five-lines.vectors").read_text()
    out = io.StringIO()
    run_scan(ScanSpec(template=text, ranges={"a": (10 ** 9, 10 ** 9)},
                      fixed={"b": 2, "c": 1}), out)
    cfg = parse_singular(parse_vector_text(text), {"a": 10 ** 9, "b": 2, "c": 1})
    assert out.getvalue().splitlines()[1:] == [
        f"{10 ** 9},{cfg.degree},{cfg.reduced_degree},"
        f"{fraction_column(cfg, 3)[0]},{milnor_chi(cfg)},"]


def fraction_thickened(base, cfg):
    """The power transform as a loop over Fraction exponents, accumulating
    cells and dropping those at or beyond n + 1: the form the engine used
    before it emitted cells on the 1/(m d') grid."""
    m, n, dp = cfg.power, cfg.ambient_dim, cfg.degree
    entries, grid = {}, dict(fraction_items(base))
    for i in range(1, dp + 1):
        for p in range(n + 1):
            v_base = grid.get(F(i, dp) + p, 0)
            for l in range(m):
                v = v_base
                if i == dp and p == n and l != m - 1:
                    v += (-1) ** n
                exponent = F(i, m * dp) + F(l, m) + p
                if v and exponent < n + 1:
                    entries[exponent] = entries.get(exponent, 0) + v
    return SpectrumVector(entries, ambient_dim=n + 1)


def test_thickened_matches_fraction_loop():
    rng = random.Random(9090)
    for _ in range(300):
        n, m, dp = rng.randint(1, 4), rng.randint(1, 6), rng.randint(1, 9)
        # on-grid, off-grid and out-of-range exponents, signed multiplicities
        entries = {}
        for _ in range(rng.randint(0, 12)):
            q = rng.choice([dp, dp, 2 * dp + 1, rng.randint(1, 12)])
            entries[F(rng.randint(-q, (n + 2) * q), q)] = rng.randint(-3, 3)
        base = SpectrumVector(entries, ambient_dim=n + 1)
        cfg = ReducedConeConfig(n, dp, (), power=m)
        assert thickened_spectrum(base, cfg) == fraction_thickened(base, cfg)
    # genuine reduced-cone bases at the sizes the strided slices serve:
    # n = 3, d' = 40 with four Brieskorn-Pham points, and n = 4 up to m = 60
    for n, dp, exponents, powers in (
            (3, 40, ((2, 3, 7), (2, 4, 5), (3, 3, 4), (2, 5, 5), (2, 3, 9),
                     (3, 3, 5)), (44, 45, 46)),
            (4, 12, ((2, 2, 3, 3), (2, 3, 3, 4), (2, 2, 2, 5), (3, 3, 3, 3)),
             (rng.randint(2, 30), 59, 60))):
        for m in powers:
            spectra = [brieskorn_spectrum(pqr)
                       for pqr in rng.sample(exponents, 4)]
            cfg = ReducedConeConfig(n, dp, spectra, power=m)
            base = reduced_cone_spectrum(cfg)
            power = thickened_spectrum(base, cfg)
            assert power == fraction_thickened(base, cfg), (n, m)
            assert list(power.numerators()) == sorted(power.numerators())


def brieskorn_spectrum(exponents):
    """Spectrum of x_1^p_1 + ... + x_n^p_n: weights lcm/p_i, degree lcm."""
    d = math.lcm(*exponents)
    return weighted_spectrum(WeightSystem(tuple(d // p for p in exponents), d))
