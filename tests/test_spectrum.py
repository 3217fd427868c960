import math
import random
import tracemalloc
import types
from fractions import Fraction

import pytest

from conespec import formats, spectrum
from conespec.engine import (ConeSpectrumTable, ReducedConeConfig, _power_row,
                             curve_table, reduced_cone_spectrum,
                             smooth_cone_coeffs, thickened_spectrum)
from conespec.local import (LocalBranch, SingularPoint, WeightSystem,
                            quotient_coeffs, weighted_spectrum, window_count)
from conespec.oracle import as_reduced_cone
from conespec.spectrum import (Numerators, SpectrumVector, exponent_texts,
                               render_row)
from generators import (random_mixed_swh_config, random_reduced_swh_config,
                        random_swh_point)
from reference import (FractionSpectrum, add, empty_spectrum, fraction_items,
                       fraction_render, max_exponent, min_exponent,
                       multiplicity, product)

F = Fraction


def sv(entries, dim):
    return SpectrumVector(entries, ambient_dim=dim)


def test_add_identity():
    a = sv({F(1, 2): 1}, 1)
    assert add(a, empty_spectrum(1)) == a


def test_add_cancels_to_empty():
    a = sv({F(1, 2): 1}, 1)
    b = sv({F(1, 2): -1}, 1)
    assert add(a, b) == empty_spectrum(1)
    assert len(add(a, b)) == 0


def test_add_pointwise():
    a = sv({F(5, 6): 1, F(7, 6): 1}, 2)
    b = sv({F(5, 6): 1}, 2)
    assert add(a, b) == sv({F(5, 6): 2, F(7, 6): 1}, 2)


def test_add_dimension_mismatch():
    with pytest.raises(ValueError):
        add(sv({F(1): 1}, 1), sv({F(1): 1}, 2))


def test_product_single_entries():
    a = sv({F(1, 2): 1}, 1)
    assert product(a, a) == sv({F(1): 1}, 2)


def test_product_convolution():
    a = sv({F(1, 3): 1, F(2, 3): 1}, 1)
    expected = sv({F(2, 3): 1, F(1): 2, F(4, 3): 1}, 2)
    assert product(a, a) == expected


def test_product_mixed_denominators():
    a = sv({F(1, 2): 1}, 1)
    b = sv({F(1, 3): 1, F(2, 3): 1}, 1)
    assert product(a, b) == sv({F(5, 6): 1, F(7, 6): 1}, 2)


def test_product_rejects_negative():
    a = sv({F(1, 2): -1}, 1)
    with pytest.raises(ValueError):
        product(a, a)


def test_dual_empty():
    assert empty_spectrum(2).dual() == empty_spectrum(2)


def test_dual_fixed_point():
    a = sv({F(5, 6): 1, F(7, 6): 1}, 2)
    assert a.dual() == a
    assert a.is_symmetric()


def test_dual_shifts():
    a = sv({F(1, 2): 1}, 3)
    assert a.dual() == sv({F(5, 2): 1}, 3)


def test_support_check():
    assert sv({F(5, 6): 1, F(7, 6): 1}, 2).has_valid_support()
    assert not sv({F(2): 1}, 2).has_valid_support()
    assert sv({F(3, 2): 1}, 3).has_valid_support()
    assert sv({}, 2).has_valid_support()                # no exponent at all
    assert not sv({F(0): 1, F(1): 1}, 2).has_valid_support()
    assert not sv({F(-1, 3): 1, F(1): 1}, 2).has_valid_support()
    assert not sv({F(1): 1, F(7, 3): 1}, 2).has_valid_support()
    assert sv({F(1, 300): 1, F(599, 300): -2}, 2).has_valid_support()


def test_symmetry_check_counterexample():
    assert not sv({F(1, 2): 1, F(1): 1}, 2).is_symmetric()


def test_symmetry_fermat_cubic():
    a = sv({F(1): 1, F(4, 3): 3, F(5, 3): 3, F(2): 1}, 3)
    assert a.is_symmetric()


# (vector, whether it equals its dual)
SYMMETRY_CASES = [
    (sv({}, 2), True),
    (sv({F(1): 2}, 2), True),                           # the centre alone
    (sv({F(1, 2): 1, F(3, 2): 1}, 2), True),
    (sv({F(1, 2): 1, F(3, 2): 2}, 2), False),           # unequal partners
    (sv({F(1, 2): -1, F(3, 2): -1, F(1): 3}, 2), True),
    (sv({F(1, 2): 1, F(1): 1}, 2), False),              # partner missing
    (sv({F(1, 2): 1}, 1), True),
    (sv({F(1, 3): 1}, 1), False),
    # tables that reduce by their gcd: 2/6, 4/6 is 1/3, 2/3 and
    # 3/12, 9/12 is 1/4, 3/4
    (SpectrumVector({2: 1, 4: 1}, 1, denominator=6), True),
    (SpectrumVector({2: 1, 4: 2}, 1, denominator=6), False),
    (SpectrumVector(Numerators({3: 1, 9: 1}), 1, denominator=12), True),
    (SpectrumVector(Numerators({6: 5, 18: 5}), 2, denominator=12), True),
    (SpectrumVector(Numerators({6: 5, 18: 4}), 2, denominator=12), False),
]


@pytest.mark.parametrize("vec, symmetric", SYMMETRY_CASES)
def test_symmetry_is_equality_with_the_dual(vec, symmetric):
    assert vec.is_symmetric() is symmetric
    assert (vec.dual() == vec) is symmetric


def test_symmetry_agrees_with_the_dual_on_random_vectors():
    rng = random.Random(404)
    seen = {True: 0, False: 0}
    for _ in range(300):
        a = _random_vector(rng, rng.randint(1, 3), signed=True)
        for vec in (a, add(a, a.dual())):
            assert vec.is_symmetric() == (vec.dual() == vec), vec
            seen[vec.is_symmetric()] += 1
    assert min(seen.values()) > 100


def test_render():
    a = sv({F(7, 6): 1, F(5, 6): 1}, 2)
    assert a.render() == "5/6:1, 7/6:1"
    assert sv({F(2): 3}, 3).render() == "2:3"


def _random_vector(rng, dim, signed=False):
    entries = {}
    for _ in range(rng.randint(0, 6)):
        e = F(rng.randint(-4, 12), rng.randint(1, 8))
        m = rng.randint(-3, 3) if signed else rng.randint(1, 4)
        entries[e] = m
    return SpectrumVector(entries, ambient_dim=dim)


def test_add_commutative_associative():
    rng = random.Random(101)
    for _ in range(200):
        a = _random_vector(rng, 2, signed=True)
        b = _random_vector(rng, 2, signed=True)
        c = _random_vector(rng, 2, signed=True)
        assert add(a, b) == add(b, a)
        assert add(add(a, b), c) == add(a, add(b, c))
        assert add(a, empty_spectrum(2)) == a


def test_product_totals_multiply():
    rng = random.Random(202)
    for _ in range(200):
        a = _random_vector(rng, 1)
        b = _random_vector(rng, 2)
        assert product(a, b).total() == a.total() * b.total()


def test_dual_involution():
    rng = random.Random(303)
    for _ in range(200):
        a = _random_vector(rng, 3, signed=True)
        assert a.dual().dual() == a


def test_product_support_shifts():
    rng = random.Random(404)
    for _ in range(200):
        a = _random_vector(rng, 1)
        b = _random_vector(rng, 1)
        if not a or not b:
            continue
        p = product(a, b)
        assert min_exponent(p) == min_exponent(a) + min_exponent(b)
        assert max_exponent(p) == max_exponent(a) + max_exponent(b)


def test_canonical_no_zero_entries():
    a = SpectrumVector({F(1): 0, F(2): 1}, ambient_dim=3)
    assert fraction_items(a) == [(F(2), 1)]
    assert multiplicity(a, F(1)) == 0


def _random_entries(rng, dim):
    """Signed multiplicities on negative, off-grid and out-of-range
    exponents, some of them repeated so that entries cancel."""
    entries = []
    for _ in range(rng.randint(0, 8)):
        q = rng.randint(1, 12)
        entries.append((F(rng.randint(-2 * q, (dim + 2) * q), q),
                        rng.randint(-3, 3)))
    if entries and rng.random() < 0.3:
        e, m = rng.choice(entries)
        entries.append((e, -m))
    return entries


def test_matches_fraction_reference():
    rng = random.Random(505)
    symmetric = 0
    for _ in range(400):
        dim = rng.randint(1, 3)
        ea, eb = _random_entries(rng, dim), _random_entries(rng, dim)
        a, b = SpectrumVector(ea, dim), SpectrumVector(eb, dim)
        ra = FractionSpectrum(ea, dim)
        rb = FractionSpectrum(eb, dim)
        if rng.random() < 0.3:      # a symmetric vector now and then
            a, ra = add(a, a.dual()), ra + ra.dual()
        for vec, ref in ((a, ra), (add(a, b), ra + rb), (a.dual(), ra.dual())):
            assert fraction_items(vec) == ref.items()
            assert vec.render() == ref.render()
            assert vec.has_valid_support() == ref.has_valid_support()
            assert vec.is_symmetric() == ref.is_symmetric()
            assert vec.total() == ref.total()
            assert len(vec) == len(ref)
            probes = [e for e, _ in ea + eb] + [F(rng.randint(-9, 30), 7)]
            for e in probes:
                assert multiplicity(vec, e) == ref.multiplicity(e)
            symmetric += ref.is_symmetric()
    assert symmetric > 50


def test_equal_across_grids():
    a = SpectrumVector({F(1, 2): 1, F(1): 3}, ambient_dim=2)
    for den in (2, 4, 6, 30):
        b = SpectrumVector({den // 2: 1, den: 3}, 2, denominator=den)
        assert b == a and hash(b) == hash(a)
        assert b.denominator == 2
    # a cancelled entry leaves the denominator of what remains
    c = SpectrumVector({F(1, 3): 1, F(1, 2): 1}, 2)
    assert c.denominator == 6
    assert add(c, SpectrumVector({F(1, 3): -1}, 2)).denominator == 2
    rng = random.Random(606)
    for _ in range(200):
        dim = rng.randint(1, 3)
        vec = SpectrumVector(_random_entries(rng, dim), dim)
        den = vec.denominator * rng.randint(1, 5)
        again = SpectrumVector(vec.numerators(den), dim, denominator=den)
        assert again == vec and hash(again) == hash(vec)
        assert again.denominator == vec.denominator
    assert SpectrumVector(None, 3).denominator == 1
    # a vector is never equal to a value of another type
    one = SpectrumVector({1: 1}, 2)
    assert not one == 1 and one != 1 and one != {1: 1}


def test_numerators_leave_out_off_grid_exponents():
    a = SpectrumVector({F(1, 3): 2, F(3, 2): -1, F(2): 4}, ambient_dim=3)
    assert a.numerators() == {2: 2, 9: -1, 12: 4}
    assert a.numerators(4) == {6: -1, 8: 4}
    assert a.numerators(12) == {4: 2, 18: -1, 24: 4}


@pytest.mark.parametrize("mult", [1.5, F(1, 2), F(-7, 3), 0.25, -2.5])
def test_non_integral_multiplicity_rejected(mult):
    with pytest.raises(ValueError, match="not an integer"):
        SpectrumVector({"1/2": mult})
    with pytest.raises(ValueError, match="not an integer"):
        SpectrumVector([(F(1, 2), 1), (F(1, 2), mult)])
    with pytest.raises(ValueError, match="not an integer"):
        SpectrumVector({1: 1, 3: mult}, 2, denominator=4)
    with pytest.raises(ValueError, match="not an integer"):
        SpectrumVector([(1, mult)], 2, denominator=4)


def test_integral_multiplicity_of_any_type_is_counted():
    a = SpectrumVector({F(1, 2): 2}, ambient_dim=2)
    assert SpectrumVector({"1/2": 2.0}, 2) == a
    assert SpectrumVector({"1/2": F(4, 2)}, 2) == a
    # the one-pass mapping path drops what counts as 0, after counting
    for zero in (0, 0.0, F(0), False):
        b = SpectrumVector({2: 2, 4: zero, 6: F(6, 3)}, 2, denominator=4)
        assert b == SpectrumVector({F(1, 2): 2, F(3, 2): 2}, 2)
        assert b.denominator == 2 and len(b) == 2


class _Table(dict):
    pass


def test_mapping_path_keeps_a_reduced_grid():
    for kind in (dict, _Table, Numerators):
        entries = kind({1: 3, 4: -1, 10: 2})
        vec = SpectrumVector(entries, 3, denominator=9)
        assert vec.denominator == 9
        assert vec.numerators() == entries
        if kind is Numerators:      # canonical: taken as it is
            assert vec._nums is entries
            continue
        entries[1] = 5              # the vector does not share the mapping
        entries[2] = 1
        assert vec.numerators() == {1: 3, 4: -1, 10: 2}
    # with no denominator, the keys of a Numerators table are exponents
    assert SpectrumVector(Numerators({2: 1}), 3) == SpectrumVector({F(2): 1}, 3)


def test_canonical_tables_match_the_public_constructor():
    """`thickened_spectrum` and `dual` hand over `Numerators`; their vectors
    are the ones the validating constructor builds from the same
    exponents, the denominator reduced when the gcd is above 1. The other
    producers follow (`_other_producers`)."""
    # keys 2, 4, 6, 8, 10 over 6 come out over 3
    cases = [(SpectrumVector({1: 1}, 2), ReducedConeConfig(1, 2, (), power=3))]
    rng = random.Random(909)
    for _ in range(150):
        n = rng.randint(1, 4)
        vec = SpectrumVector(_random_entries(rng, n + 1), n + 1)
        cfg = ReducedConeConfig(n, rng.randint(1, 9), (),
                                power=rng.randint(1, 6))
        cases.append((vec, cfg))
    reduced = kept = 0
    for vec, cfg in cases:
        power = thickened_spectrum(vec, cfg)
        ref = FractionSpectrum(fraction_items(vec), vec.ambient_dim).dual()
        for got, items, den in (
                (power, fraction_items(power), cfg.power * cfg.degree),
                (vec.dual(), ref.items(), vec.denominator)):
            public = SpectrumVector(items, got.ambient_dim)
            assert got == public and hash(got) == hash(public)
            assert got.denominator == public.denominator
            assert got.numerators() == public.numerators()
            if got.denominator == den:      # on its own grid: the table
                assert type(got._nums) is Numerators
                kept += 1
        reduced += power.denominator < cfg.power * cfg.degree
    assert reduced > 20 and kept > 150
    power = thickened_spectrum(*cases[0])
    assert power.denominator == 3
    assert power.numerators() == {1: 1, 2: 1, 3: 1, 4: -1, 5: -1}
    _other_producers()


def test_a_table_with_other_cells_takes_the_checked_path():
    """`ConeSpectrumTable` takes its rows unchecked, so `as_spectrum` hands
    over `Numerators` only when every cell is an int: a caller's float,
    `Fraction` or bool cells are counted as the checked constructor counts
    them, and a cell that is not integral is refused."""
    rows = ((1, 0), (0, -2), (0, 3))
    want = ConeSpectrumTable(2, 2, 0, rows).as_spectrum()
    assert type(want._nums) is Numerators
    for kind in (float, F):
        table = ConeSpectrumTable(2, 2, 0, tuple(tuple(map(kind, row))
                                                 for row in rows))
        assert table.as_spectrum() == want
        assert table.as_spectrum().render() == want.render() == "1/2:1, 2:-2, 3:3"
    flags = ConeSpectrumTable(2, 2, 0, ((True, False), (False, True), (0, 0)))
    assert flags.as_spectrum().render() == "1/2:1, 2:1"
    for cell in (1.5, F(1, 2)):
        table = ConeSpectrumTable(2, 2, 0, ((1, cell), (0, 0), (0, 0)))
        with pytest.raises(ValueError, match="not an integer"):
            table.as_spectrum()


@pytest.mark.parametrize("rows", [
    ((1, 2, 5), (0, 0), (0, 0)),        # a long row: its cells ran into row 1
    ((1, 2), (0,), (0, 0)),
    ((1, 2), (0, 0)),                    # row_sums_ok failed on unpacking
    ((1, 2), (0, 0), (0, 0), (0, 0)),
    (),
])
def test_a_table_of_the_wrong_shape_is_refused(rows):
    with pytest.raises(ValueError, match="3 rows of d = 2 cells"):
        ConeSpectrumTable(2, 2, 0, rows)


def _brieskorn(exponents):
    """The weight system of x_1^a_1 + ... + x_n^a_n."""
    degree = math.lcm(*exponents)
    return WeightSystem(tuple(degree // a for a in exponents), degree)


def _other_producers():
    """`weighted_spectrum` (Brieskorn germs in 1 to 3 variables and the
    points of `random_swh_point`), `reduced_cone_spectrum` (n = 2 and 3),
    `as_spectrum` (random curves), the node spectra of `as_reduced_cone`
    and the empty spectrum of a smooth point each hand over `Numerators`:
    each vector equals the checked constructor's vector on the same
    exponents, written out here from the producer's input, and holds the
    table it was handed whenever its grid is the producer's own."""
    rng = random.Random(919)
    produced = []           # (vector, producer's grid, the same exponents)
    systems = [_brieskorn([rng.randint(2, 7) for _ in range(rng.randint(1, 3))])
               for _ in range(60)]
    points = [random_swh_point(rng) for _ in range(60)]
    systems += [WeightSystem(p.weights, p.weighted_degree) for p in points]
    for ws in systems:
        cells = enumerate(quotient_coeffs(ws.weights, ws.degree),
                          start=sum(ws.weights))
        produced.append((weighted_spectrum(ws), ws.degree,
                         [(F(k, ws.degree), c) for k, c in cells]))
    for _ in range(60):
        n, dp = rng.randint(2, 3), rng.randint(1, 8)
        if n == 2:
            spectra = [p.local_spectrum() for p in points[:rng.randint(0, 3)]]
        else:
            spectra = [weighted_spectrum(ws) for ws in systems[:40]
                       if len(ws.weights) == 3][:rng.randint(0, 3)]
        cone = ReducedConeConfig(n, dp, spectra)
        items = [(F(i, dp), c) for i, c
                 in enumerate(smooth_cone_coeffs(dp, n), start=n + 1)]
        items += [(F(i, dp), -sum(window_count(s, F(i, dp)) for s in spectra))
                  for i in range(1, (n + 1) * dp)]
        produced.append((reduced_cone_spectrum(cone), dp, items))
    for _ in range(60):
        cfg = random_mixed_swh_config(rng)
        table = curve_table(cfg)
        d = table.d
        produced.append((table.as_spectrum(), d,
                         [(F(i, d) + e, v) for e, row in enumerate(table.rows)
                          for i, v in enumerate(row, start=1)]))
        reduced = random_reduced_swh_config(rng)
        spectra = as_reduced_cone(reduced).local_spectra
        produced += [(node, 1, [(1, 1)])
                     for node in spectra[len(spectra) - reduced.nodes:]]
    smooth = SingularPoint((1, 2), (LocalBranch(2, 1),))
    assert smooth.milnor() == 0
    produced.append((smooth.local_spectrum(), 1, []))
    kept = 0
    for got, den, items in produced:
        public = SpectrumVector(items, got.ambient_dim)
        assert got == public and hash(got) == hash(public)
        assert got.denominator == public.denominator
        assert got.numerators() == public.numerators()
        if got.denominator == den:
            assert type(got._nums) is Numerators, (got, den)
            kept += 1
    assert kept > 150
    assert any(items == [(1, 1)] for _, _, items in produced)     # a node
    assert any(items == [] for _, _, items in produced)    # a smooth point


def _fraction_texts(nums, den):
    return [str(F(k, den)) for k in nums]


def test_exponent_text_matches_fraction():
    rng = random.Random(707)
    dens = [1, 2, 3, 7, 12, 40, 1800, 10**6 + 3, 2 * 3 * 5 * 7 * 11 * 13]
    by_den = {}
    for _ in range(3000):
        den = rng.choice(dens + [rng.randint(1, 10**7)])
        k = rng.choice([
            rng.randint(-5 * den, 0),               # k <= 0
            den * rng.randint(-4, 9),               # a multiple of den
            rng.randint(1, 5 * den),
            rng.randint(10**6, 10**12),             # above 10**6
            -rng.randint(10**6, 10**12),
        ])
        assert exponent_texts([k], den) == [str(F(k, den))], (k, den)
        by_den.setdefault(den, []).append(k)
    # the same corpus as one list per denominator, repeats included
    for den, nums in by_den.items():
        assert exponent_texts(nums, den) == _fraction_texts(nums, den), den
    for den in dens:                # many residues of one den in one list
        nums = [rng.randint(-3 * den, 3 * den) for _ in range(400)]
        nums += [den * rng.randint(-4, 9) for _ in range(20)]
        assert exponent_texts(nums, den) == _fraction_texts(nums, den), den
    nums = range(-30, 31)
    assert exponent_texts(nums, 1) == [str(k) for k in nums]
    for den in range(1, 25):
        assert exponent_texts(nums, den) == _fraction_texts(nums, den)
    assert exponent_texts([], 7) == []


def test_exponent_texts_with_values():
    """With values, each text is the exponent's text, ":" and its value;
    the residue table is a list when den <= len(nums), else a dict."""
    rng = random.Random(717)
    for den in (1, 2, 7, 12, 40, 1800):
        for size in (den - 1, den, den + 1, 3 * den):
            nums = [rng.randint(-3 * den, 5 * den) for _ in range(size)]
            values = [rng.choice([-4, -1, 1, 2, 9]) for _ in nums]
            texts = [f"{t}:{v}" for t, v
                     in zip(_fraction_texts(nums, den), values)]
            assert exponent_texts(nums, den, values) == texts, (den, size)
            assert exponent_texts(nums, den, iter(values)) == texts
            assert exponent_texts(nums, den) == _fraction_texts(nums, den)


def test_render_at_the_residue_table_threshold():
    """Vectors of den and den - 1 entries over den: the list and the dict
    residue table of `render` print what the Fraction transcription does,
    negative numerators included."""
    rng = random.Random(727)
    for dim in range(1, 5):
        for den in (3, 4, 6, 10, 36, 97):
            for size in (den, den - 1):
                keys = {1, -1}
                while len(keys) < size:
                    keys.add(rng.randint(-2 * den, (dim + 2) * den))
                vec = SpectrumVector({k: rng.choice([-3, -1, 1, 2])
                                      for k in keys}, dim, denominator=den)
                assert vec.denominator == den and len(vec) == size
                assert vec.render() == fraction_render(vec), (dim, den)


def test_render_of_a_sparse_vector_on_a_huge_denominator():
    """The per-residue table of `exponent_texts` holds only the residues
    present, so three entries over den ~ 10**9 stay far below 1 MB."""
    for den, nums in ((10**9 + 7, {1: 2, 10**9 + 6: -1, 3 * (10**9 + 7) + 5: 4}),
                      (10**9, {3: 1, 5 * 10**8: 2, 2 * 10**9: -3})):
        vec = SpectrumVector(nums, 4, denominator=den)
        assert vec.denominator == den
        tracemalloc.start()
        try:
            text = vec.render()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert text == fraction_render(vec)
        assert peak < 10**6, peak


def _names(code: types.CodeType) -> set[str]:
    """Global and attribute names of code and of every function, lambda or
    comprehension nested in it."""
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _names(const)
    return names


def test_writers_stay_integer():
    """Every writer prints exponents through the one residue table
    (`_tails`), which owns the lowest-terms rule: `render` and `emit_table`
    through the list writer `exponent_texts`, the list writer and the row
    writer `render_row` by reading the table. None of them builds a
    `Fraction` or takes a gcd; the table alone does."""
    for writer, through in ((SpectrumVector.render, "exponent_texts"),
                            (formats.emit_table, "exponent_texts"),
                            (exponent_texts, "_tails"),
                            (render_row, "_tails")):
        names = _names(writer.__code__)
        assert "Fraction" not in names
        assert "gcd" not in names
        assert through in names
    assert "gcd" in _names(spectrum._tails.__code__)


def test_residue_table_is_the_gcd_table():
    """The divisor sieve of `_tails` lays gs[r] = gcd(r, den) and qs[r] =
    "/(den // g)", or "" when g is den, at every residue r: for every den up
    to 3000 and for dens with many divisors, a prime power, a prime and a
    product of two primes."""
    for den in [*range(1, 3001), 5040, 55440, 2**16, 3**10, 7919, 1007,
                1760]:
        gs, qs = spectrum._tails(den)
        want = list(map(math.gcd, range(den), [den] * den))
        assert gs == want, den
        texts = {g: "" if g == den else f"/{den // g}" for g in set(want)}
        assert qs == list(map(texts.__getitem__, want)), den


def test_row_writer_matches_the_power_vector():
    """`render_row` on the power row writes what the vector built from that
    row renders, and what one `Fraction` per entry writes: random bases on
    the 1/d' grid at n = 1..4, d' <= 12, powers 2..60, values of both signs
    (the boundary cell n + 1 among them, which meets the correction), and
    the empty base of d' = 1, whose row holds the correction cells alone;
    and at n = 1..3 on the dens d' * m = 5040, 2**12 and 1760, above the
    random ones' 720."""
    rng = random.Random(4040)
    cases = [(reduced_cone_spectrum(cfg), cfg)
             for cfg in (ReducedConeConfig(n, 1, (), power=m)
                         for n in range(1, 5) for m in (2, 3, 60))]
    for base, cfg in cases:
        assert not base
        row = _power_row(base, cfg)
        assert sum(map(bool, row)) == cfg.power - 1

    def random_case(n, dp, m):
        top = (n + 1) * dp
        entries = {rng.randint(1, top): rng.choice((-3, -2, -1, 1, 2, 3))
                   for _ in range(rng.randint(0, 2 * top))}
        return (SpectrumVector(entries, n + 1, denominator=dp),
                ReducedConeConfig(n, dp, (), power=m))

    for _ in range(150):
        cases.append(random_case(rng.randint(1, 4), rng.randint(1, 12),
                                 rng.randint(2, 60)))
    cases += [random_case(n, dp, m) for n in (1, 2, 3)
              for dp, m in ((12, 420), (8, 512), (11, 160))]
    negative = 0
    for base, cfg in cases:
        row = _power_row(base, cfg)
        power = thickened_spectrum(base, cfg)
        text = render_row(row, cfg.power * cfg.degree)
        assert text == power.render() == fraction_render(power), (base, cfg)
        negative += any(v < 0 for v in row)
    assert negative > 100
    assert render_row([0, 0, 0], 3) == ""


def test_render_matches_fraction_transcription():
    rng = random.Random(808)
    negative = 0
    for _ in range(300):
        n = rng.randint(1, 3)
        vec = SpectrumVector(_random_entries(rng, n + 1), n + 1)
        cfg = ReducedConeConfig(n, rng.randint(1, 9), (),
                                power=rng.randint(1, 6))
        for v in (vec, vec.dual(), thickened_spectrum(vec, cfg)):
            assert v.render() == fraction_render(v)
            negative += any(m < 0 for m in v.numerators().values())
    assert negative > 100
