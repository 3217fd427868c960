import inspect
import math
import random
import types
from fractions import Fraction
from pathlib import Path

import pytest

import conespec.engine
import conespec.oracle
from conespec.cli import main
from conespec.engine import (CurveConfig, GlobalComponent, Incidence,
                             ReducedConeConfig, _component_terms,
                             _floor_row as real_floor_row, curve_table,
                             incidence_consistent, ordinary_middle_row,
                             scan_values)
from conespec.formats import (config_template, parse_native, parse_singular,
                              parse_vector_text)
from conespec.local import (LocalBranch, SingularPoint, WeightSystem,
                            lattice_row, weighted_spectrum)
from conespec.oracle import (_first_row_mismatch, _idiom_ceil_row,
                             as_reduced_cone, brute_coeffs, brute_lattice,
                             brute_lattice_row, cross_check, has_reference,
                             reference_ordinary, reference_state, verify)
from conespec.spectrum import SpectrumVector
from generators import (random_mixed_swh_config, random_ordinary_config,
                        random_reduced_swh_config, scale_multiplicities)
from reference import fraction_reference_state, thicken
from test_acceptance import golden_configs
from test_engine import pencil_config

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def load(name, **binding):
    text = (FIXTURES / name).read_text()
    return parse_singular(parse_vector_text(text), binding)


def test_brute_lattice_examples():
    assert brute_lattice(1, 1, 3) == 3
    assert brute_lattice(2, 3, 5) == 1
    assert brute_lattice(7, 11, 17) == 0
    assert brute_lattice(1, 1, 0) == 0


def test_brute_lattice_row_examples():
    assert brute_lattice_row(1, 1, 0) == [0]
    assert brute_lattice_row(1, 1, 5) == [0, 0, 1, 3, 6, 10]
    assert brute_lattice_row(2, 3, 7) == [0, 0, 0, 0, 0, 1, 1, 2]
    assert brute_lattice_row(2, 3, 30) == [brute_lattice(2, 3, b)
                                           for b in range(31)]


def test_brute_coeffs_examples():
    assert brute_coeffs(3, 2) == [1, 3, 3, 1]
    assert brute_coeffs(2, 2) == [1]
    for dprime in range(2, 9):
        for n in (1, 2, 3):
            assert sum(brute_coeffs(dprime, n)) == (dprime - 1) ** (n + 1)


def test_reference_conic_pencil():
    t = reference_ordinary(load("conic-pencil.vectors", a=2, b=5, c=2))
    assert list(t.rows[0]) == [0, 0, 0, 1, 1, 1, 2, 1, 1, 2, 2, 2, 3, 9]
    assert list(t.rows[1]) == [3, 4, 4, 3, 4, 4, 3, 4, 4, 3, 4, 4, 3, -4]
    assert list(t.rows[2])[:13] == [3, 2, 2, 2, 1, 1, 1, 1, 1, 1, 0, 0, 0]
    assert t.chi_u == 6


def test_reference_cubic_pencil():
    t = reference_ordinary(load("cubic-pencil.vectors", a=3, b=2, c=2))
    assert list(t.rows[1]) == [6, 8, 10, 14, 14, 14, 12, 14, 14, 14, 12, 10,
                               14, 14, 10, 8, 6, -4]
    assert t.chi_u == 21


def test_reference_lines_conic():
    t = reference_ordinary(load("lines-conic.vectors", a=1, b=1, c=4))
    assert list(t.rows[0]) == [0, 0, 0, 0, 1, 1, 0, 0, 3]
    assert list(t.rows[1]) == [1, 1, 1, 0, 0, 0, 1, 1, -3]
    assert list(t.rows[2])[:8] == [0, 0, 0, 1, 0, 0, 0, 0]


def test_reference_state_mirrors_input():
    state = reference_state(load("conic-pencil.vectors", a=2, b=5, c=2))
    assert state.ds == [2, 2, 2, 1, 1]
    assert state.as_ == [2, 1, 1, 5, 1]
    assert state.al[0][:5] == [4, 2, 5, 1, 1]
    assert state.od == 1
    assert len(state.sp) == 4 and len(state.sp[0]) == 14


def test_reference_rejects_weighted_points():
    cfg = CurveConfig(
        components=(GlobalComponent(3, 1),),
        points=(SingularPoint((2, 3), (LocalBranch(6, 1),)),),
        incidence=Incidence.from_pairs([]))
    with pytest.raises(ValueError):
        reference_ordinary(cfg)


def test_cross_check_fixture_passes():
    report = cross_check(load("five-lines.vectors", a=5, b=1, c=0))
    assert report.passed
    names = [c.name for c in report.checks]
    assert "rows-e0" in names and "middle-incidence" in names
    assert "result: all-pass" in report.render()


def test_cross_check_engine_only_path():
    cfg = CurveConfig(
        components=(GlobalComponent(3, 1),),
        points=(SingularPoint((2, 3), (LocalBranch(6, 1),)),))
    report = cross_check(cfg)
    assert report.passed
    names = [c.name for c in report.checks]
    assert "local-table-e0" in names and "rows-e0" not in names


def route_configs():
    """The shipped curve fixtures, vector ones at a=2, b=2, c=1, and seeded
    configs from every generator."""
    for path in sorted(FIXTURES.iterdir()):
        cfg = config_template(path.read_text())(dict(a=2, b=2, c=1))
        if isinstance(cfg, CurveConfig):
            yield path.name, cfg
    rng = random.Random(1972)
    for k in range(20):
        yield f"ordinary-{k}", random_ordinary_config(rng,
                                                      with_matrix=k % 2 == 0)
        yield f"reduced-swh-{k}", random_reduced_swh_config(rng)
        yield f"mixed-swh-{k}", random_mixed_swh_config(rng)


def test_oracle_note_follows_the_route():
    """The note is set exactly off the reference route, and names the
    local-spectra table exactly when a local-table check runs."""
    routes = set()
    for name, cfg in route_configs():
        report = cross_check(cfg)
        local = any(c.name.startswith("local-table-") for c in report.checks)
        assert bool(report.note) == (not has_reference(cfg)), name
        assert ("local-spectra table" in report.note) == local, name
        if report.note:
            assert report.render().startswith(f"# {report.note}\n"), name
        routes.add((has_reference(cfg), local))
    assert routes == {(True, False), (False, False), (False, True)}


def test_branch_multiplicities_leave_the_reduced_path():
    # reduced components, but branches of multiplicity > 1: the local-spectra
    # table ignores branch multiplicities, so it must not be compared
    cfg = parse_native("component degree=2 mult=1\n"
                       "point weights=3,5 branches=(3:4)(5:2)(15:4)\n")({})
    assert not cfg.is_reduced()
    report = cross_check(cfg)
    assert report.passed, report.render()
    names = {c.name for c in report.checks}
    assert not any(n.startswith("local-table") for n in names)
    assert "local-table-agreement" not in {c.name for c in verify(cfg).checks}


def test_as_reduced_cone_reads_the_power():
    # the local spectra of the reduced curve, one {1:1} per node, and the
    # power m that every multiplicity shares; None when they differ
    node = SpectrumVector({Fraction(1): 1}, 2)
    cusp = weighted_spectrum(WeightSystem((2, 3), 6))
    triple = weighted_spectrum(WeightSystem((1, 1), 3))
    native = {name: parse_native((FIXTURES / name).read_text())({})
              for name in ("two-lines.cfg", "doubled-cuspidal-cubic.cfg")}
    assert as_reduced_cone(native["two-lines.cfg"]) == \
        ReducedConeConfig(2, 2, (node,), 1)
    assert as_reduced_cone(native["doubled-cuspidal-cubic.cfg"]) == \
        ReducedConeConfig(2, 3, (cusp,), 2)
    assert as_reduced_cone(load("five-lines.vectors", a=1, b=1, c=0)) == \
        ReducedConeConfig(2, 5, (triple, triple) + (node,) * 4, 1)
    for name, binding in (("conic-pencil.vectors", dict(a=2, b=5, c=2)),
                          ("five-lines.vectors", dict(a=2, b=2, c=1)),
                          ("lines-conic.vectors", dict(a=2, b=2, c=1))):
        assert as_reduced_cone(load(name, **binding)) is None

    rng = random.Random(2718)
    for _ in range(40):
        red = random_reduced_swh_config(rng)
        base = as_reduced_cone(red)
        assert base == ReducedConeConfig(
            2, red.reduced_degree,
            tuple(p.local_spectrum() for p in red.points)
            + (node,) * red.nodes)
        for m in (2, 3):
            assert as_reduced_cone(thicken(red, m)) == \
                ReducedConeConfig(2, red.reduced_degree, base.local_spectra, m)
        for cfg in (random_mixed_swh_config(rng), random_ordinary_config(rng)):
            mults = cfg.multiplicities()
            cone = as_reduced_cone(cfg)
            if len(mults) > 1:
                assert cone is None
            else:
                assert cone.power == min(mults)
                assert cone.local_spectra == \
                    as_reduced_cone(thicken(cfg, 1)).local_spectra


def test_check_kinds():
    # identity: holds by construction; expectation: may legitimately fail;
    # every other check recomputes independently
    identity = {
        "verify-curve": {"row-sum", "index-ranges"},
        "verify-reduced": {"local-spectra", "table-spectrum-agreement",
                           "power-support"},
        "cross-check-reference": set(),
        "cross-check-engine": {"row-sum"},
    }
    cusp = CurveConfig(components=(GlobalComponent(3, 1),),
                       points=(SingularPoint((2, 3), (LocalBranch(6, 1),)),))
    native = {name: parse_native((FIXTURES / name).read_text())({})
              for name in ("two-lines.cfg", "doubled-cuspidal-cubic.cfg",
                           "conic-squared.cfg", "cuspidal-cubic.cfg")}
    pencil = load("conic-pencil.vectors", a=2, b=5, c=2)
    reports = {
        "verify-curve": [verify(native["two-lines.cfg"]),
                         verify(native["doubled-cuspidal-cubic.cfg"]),
                         verify(pencil), verify(cusp)],
        "verify-reduced": [verify(native["conic-squared.cfg"]),
                           verify(native["cuspidal-cubic.cfg"])],
        "cross-check-reference": [cross_check(native["two-lines.cfg"]),
                                  cross_check(pencil)],
        "cross-check-engine": [cross_check(native["doubled-cuspidal-cubic.cfg"]),
                               cross_check(cusp)],
    }
    seen = {}
    for route, route_reports in reports.items():
        for report in route_reports:
            assert [c["kind"] for c in report.record()["checks"]] == \
                [c.kind for c in report.checks]
            for c in report.checks:
                if c.name == "rows-nonnegative":
                    want = "expectation"
                elif c.name in identity[route]:
                    want = "identity"
                else:
                    want = "oracle"
                assert c.kind == want, (route, c.name, c.kind)
                seen.setdefault(route, set()).add(c.name)
    assert seen == {
        "verify-curve": {"row-sum", "rows-nonnegative", "index-ranges",
                         "local-spectra", "incidence-product",
                         "middle-agreement", "local-table-agreement",
                         "thickening-agreement"},
        "verify-reduced": {"local-spectra", "row-sum",
                           "table-spectrum-agreement", "power-support"},
        "cross-check-reference": {"rows-e0", "rows-e2", "middle-incidence",
                                  "middle-balance", "chi", "row-sum",
                                  "lattice-counts", "smooth-coeffs"},
        "cross-check-engine": {"row-sum", "local-table-e0", "local-table-e2",
                               "local-table-e1", "lattice-counts",
                               "smooth-coeffs"},
    }


def test_cross_check_detects_mutation():
    # grow one point by a branch without touching incidence or nodes: the
    # balance route and the incidence route must now disagree
    base = load("cubic-pencil.vectors", a=3, b=2, c=2)
    mutated_points = list(base.points)
    mutated_points[0] = SingularPoint(
        (1, 1), mutated_points[0].branches + (LocalBranch(1, 1),))
    mutated = CurveConfig(base.components, tuple(mutated_points),
                          base.nodes, base.incidence)
    report = cross_check(mutated)
    assert not report.passed
    assert "MISMATCH" in report.render()
    record = report.record()
    assert record["passed"] is False
    assert any(not c["passed"] for c in record["checks"])
    # a corrupted aggregated-node count is caught the same way
    bumped = CurveConfig(base.components, base.points, base.nodes + 1,
                         base.incidence)
    assert not cross_check(bumped).passed


def test_cross_check_blind_spot_branch_multiplicities():
    # bumping a single branch multiplicity moves both middle-row routes in
    # lockstep (the split into binomials absorbs the shifted residue), so
    # consistency checking cannot flag it; document the blind spot
    base = load("cubic-pencil.vectors", a=3, b=2, c=2)
    pts = list(base.points)
    branches = list(pts[0].branches)
    branches[0] = LocalBranch(1, branches[0].multiplicity + 1)
    pts[0] = SingularPoint((1, 1), tuple(branches))
    mutated = CurveConfig(base.components, tuple(pts), base.nodes,
                          base.incidence)
    assert cross_check(mutated).passed
    assert curve_table(mutated).rows != curve_table(base).rows


def test_randomized_configs_agree_with_reference():
    rng = random.Random(20260810)
    for trial in range(120):
        cfg = random_ordinary_config(rng, with_matrix=(trial % 3 == 0))
        report = cross_check(cfg)
        assert report.passed, report.render()


def test_scaled_configs_agree_with_reference():
    """Every multiplicity a multiple of g: the engine tiles one period of
    d // g columns, the reference computes every column."""
    rng = random.Random(20261025)
    for trial in range(100):
        cfg = scale_multiplicities(
            random_ordinary_config(rng, with_matrix=(trial % 3 == 0)),
            rng.randint(2, 6))
        report = cross_check(cfg)
        assert report.passed, report.render()


def test_randomized_matrices_are_consistent():
    rng = random.Random(31415)
    seen = 0
    for _ in range(60):
        cfg = random_ordinary_config(rng, with_matrix=True)
        if cfg.incidence is not None and cfg.incidence.matrix is not None:
            assert incidence_consistent(cfg)
            seen += 1
    assert seen >= 40


def test_randomized_swh_points_are_valid():
    rng = random.Random(2718)
    for _ in range(80):
        cfg = random_reduced_swh_config(rng)
        assert cfg.is_reduced()
        for p in cfg.points:
            spec = p.local_spectrum()
            assert spec.total() == p.milnor()
            assert spec.is_symmetric()


def test_idiom_agreement_exercised():
    # table indices drive many ceilings through the bounded-trick assertion;
    # any disagreement below 100 would raise inside reference_ordinary
    cfg = load("sextic-pencil.vectors", a=5, b=4, c=3)
    reference_ordinary(cfg)


# 101 concurrent reduced lines: at i = d every residue is 1, so the sum of
# the residues at the point reaches 101
CONCURRENT_101 = CurveConfig(
    (GlobalComponent(1, 1),) * 101,
    (SingularPoint((1, 1), (LocalBranch(1, 1),) * 101),),
    incidence=Incidence.from_pairs([(101, 1)]))


def test_reference_state_matches_fraction_transcription():
    """Golden configs, seeded ordinary configs, and one config on each side
    of the idiom's domain: five-lines at a = 600, where a*i/d reaches 600,
    and a residue sum that reaches 101."""
    rng = random.Random(20261018)
    corpus = [cfg for _, _, cfg in golden_configs()]
    corpus += [random_ordinary_config(rng, with_matrix=(k % 3 == 0))
               for k in range(150)]
    corpus += [load("five-lines.vectors", a=600, b=1, c=0), CONCURRENT_101]
    for cfg in corpus:
        assert vars(reference_state(cfg)) == vars(fraction_reference_state(cfg))


def random_shared_multiplicity_config(rng: random.Random) -> CurveConfig:
    """An ordinary config whose multiplicities come from a small set, so
    that components share one, branches of a point repeat one, and a point
    may have a single branch. The reference reads no geometry beyond these
    fields, so the points need not be realisable."""
    mults = rng.sample(range(1, 8), rng.randint(1, 3))
    comps = [GlobalComponent(rng.randint(1, 4), rng.choice(mults))
             for _ in range(rng.randint(2, 6))]
    points = [SingularPoint((1, 1), tuple(
        LocalBranch(1, rng.choice(mults)) for _ in range(rng.randint(1, 6))))
        for _ in range(rng.randint(1, 5))]
    pairs = [(rng.randint(1, 3), rng.randint(1, 4))
             for _ in range(rng.randint(0, 3))]
    return CurveConfig(tuple(comps), tuple(points), rng.randint(0, 4),
                       Incidence.from_pairs(pairs))


def test_row_reference_matches_fraction_transcription():
    """What the per-multiplicity rows and the per-point row sums must get
    right: components that share a multiplicity, points that repeat a branch
    multiplicity, one-branch points, and two configs of the size of the
    ordinary-large workload, at d = 1500 and d = 1501."""
    rng = random.Random(20261019)
    corpus = [random_shared_multiplicity_config(rng) for _ in range(60)]
    comp_mults = [[c.multiplicity for c in cfg.components] for cfg in corpus]
    branch_mults = [[b.multiplicity for b in p.branches]
                    for cfg in corpus for p in cfg.points]
    assert sum(len(set(m)) < len(m) for m in comp_mults) >= 30
    assert sum(len(set(m)) < len(m) for m in branch_mults) >= 30
    assert sum(len(m) == 1 for m in branch_mults) >= 10
    large = [load("five-lines.vectors", a=700, b=500, c=297),
             load("sextic-pencil.vectors", a=120, b=129, c=1)]
    assert [cfg.degree for cfg in large] == [1500, 1501]
    for cfg in corpus + large:
        assert vars(reference_state(cfg)) == vars(fraction_reference_state(cfg))


@pytest.mark.parametrize("d", [1, 2, 7, 1819])
def test_idiom_ceil(d):
    # exact multiples k*d and their neighbours k*d -+ 1, up to both edges of
    # the idiom's domain v < 100: 100*d - 1 and 100*d, as one row per d
    nums = [num for k in range(102) for num in (k * d - 1, k * d, k * d + 1)
            if num >= 1]
    assert _idiom_ceil_row(nums, d) == [math.ceil(Fraction(num, d))
                                        for num in nums]


def code_names(code: types.CodeType) -> set[str]:
    """The global and attribute names `code` and every code object nested in
    it (comprehensions, closures, inner functions) refer to."""
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= code_names(const)
    return names


def test_code_names_sees_nested_helpers():
    def outer():
        def helper():
            return real_floor_row
        return helper

    assert "real_floor_row" not in outer.__code__.co_names
    assert "real_floor_row" in code_names(outer.__code__)


def test_reference_stays_literal():
    forbidden = {"_shift", "_residue", "_rows", "_floor_row", "binom2"}
    # a renamed engine helper fails here rather than weakening the guard
    assert all(hasattr(conespec.engine, name) for name in forbidden)
    kernels = {name for module in (conespec.engine, conespec.local)
               for name, value in vars(module).items()
               if inspect.isfunction(value)
               and value.__module__ == module.__name__}
    assert forbidden <= kernels
    for function in (reference_state, _idiom_ceil_row):
        names = code_names(function.__code__)
        assert "Fraction" not in names
        assert not names & forbidden
        assert not names & kernels


def test_row_mismatch_names_the_first_cell():
    assert _first_row_mismatch("x", (1, 2, 3), [1, 2, 3], 0).passed
    result = _first_row_mismatch("x", (1, 5, 7), (1, 2, 3), 2)
    assert not result.passed
    assert result.detail == "first mismatch at (i=2, e=2, expected=2, actual=5)"


@pytest.mark.parametrize("got, want", [((1, 2, 3), (1, 2)),
                                       ((1, 2), (1, 2, 3)), ((), (1,))])
def test_row_mismatch_fails_rows_of_different_lengths(got, want):
    result = _first_row_mismatch("x", got, want, 0)
    assert not result.passed
    assert result.detail == (f"row lengths differ (e=0, expected={len(want)}, "
                             f"actual={len(got)})")


def test_rows_checks_are_evidence(monkeypatch, capsys):
    """A twist off by one in one column fails ``rows-e0`` and ``rows-e2``
    against the reference program, and ``conespec oracle`` exits 1."""
    cfg = load("conic-pencil.vectors", a=2, b=5, c=2)
    assert cross_check(cfg).passed
    comps = _component_terms(cfg)

    def mutant(terms, cols, d):
        row = real_floor_row(terms, cols, d)
        if terms == comps and 7 in cols:
            row[cols.index(7)] += 1
        return row

    monkeypatch.setattr(conespec.engine, "_floor_row", mutant)
    code = main(["oracle", str(FIXTURES / "conic-pencil.vectors"),
                 "--param", "a=2", "--param", "b=5", "--param", "c=2"])
    out = capsys.readouterr().out
    assert code == 1
    lines = out.splitlines()
    assert ("rows-e0: FAIL first mismatch at (i=7, e=0, expected=2, "
            "actual=-1)") in lines
    assert ("rows-e2: FAIL first mismatch at (i=7, e=2, expected=1, "
            "actual=3)") in lines
    assert out.endswith("result: MISMATCH\n")


def _off_by_one_row(w, wp, top):
    row = lattice_row(w, wp, top)
    row[-1] += 1
    return row


def test_lattice_counts_check_is_evidence(monkeypatch, capsys):
    """A lattice row with one wrong entry fails ``lattice-counts``, and
    ``conespec oracle`` exits 1."""
    cfg = load("conic-pencil.vectors", a=2, b=5, c=2)
    assert cross_check(cfg).passed
    monkeypatch.setattr(conespec.oracle, "lattice_row", _off_by_one_row)
    checks = {c.name: c for c in cross_check(cfg).checks}
    lattice = checks["lattice-counts"]
    assert not lattice.passed
    assert lattice.detail == "first mismatch at (w,w',bound)=(1, 1, 3)"
    assert "lattice-counts: FAIL first mismatch at (w,w',bound)=(1, 1, 3)" \
        in cross_check(cfg).render()
    code = main(["oracle", str(FIXTURES / "conic-pencil.vectors"),
                 "--param", "a=2", "--param", "b=5", "--param", "c=2"])
    out = capsys.readouterr().out
    assert code == 1
    assert "lattice-counts: FAIL" in out
    assert out.endswith("result: MISMATCH\n")


# one (2, 3) point with 100 cusp branches: d_j = 600
LARGE_POINT = CurveConfig(
    (GlobalComponent(100, 2),),
    (SingularPoint((2, 3), (LocalBranch(6, 2),) * 100),))


def test_cross_check_at_large_point_degree():
    assert LARGE_POINT.points[0].weighted_degree == 600
    report = cross_check(LARGE_POINT)
    assert report.passed, report.render()
    assert "lattice-counts" in {c.name for c in report.checks}


def test_one_lattice_row_per_distinct_point(monkeypatch):
    calls = []

    def counted(w, wp, top):
        calls.append((w, wp, top))
        return lattice_row(w, wp, top)

    monkeypatch.setattr(conespec.engine, "lattice_row", counted)
    for run in (scan_values, curve_table):
        calls.clear()
        run(LARGE_POINT)
        assert calls == [(2, 3, 599)], run.__name__
    # four points, two distinct ones: two rows per table, cell or row
    cfg = load("conic-pencil.vectors", a=2, b=5, c=2)
    assert len(cfg.points) == 4
    for run in (curve_table, scan_values, ordinary_middle_row):
        calls.clear()
        run(cfg)
        assert calls == [(1, 1, 3)] * 2, run.__name__


def test_verify_builds_index_rows_on_one_period(monkeypatch):
    """On a curve 6*Z, every floor row that `verify` builds, in the table
    and in `index-ranges`, has at most d // 6 columns."""
    lengths = []

    def recording(terms, cols, d):
        lengths.append(len(cols))
        return real_floor_row(terms, cols, d)

    monkeypatch.setattr(conespec.engine, "_floor_row", recording)
    monkeypatch.setattr(conespec.oracle, "_floor_row", recording)
    fat = thicken(pencil_config(2, 3, 1), 6)
    report = verify(fat)
    assert all(c.passed for c in report.checks if c.kind != "expectation")
    assert lengths and max(lengths) <= fat.degree // 6


def test_one_local_spectrum_per_distinct_point(monkeypatch):
    """`verify` and `cross_check` build each distinct point's spectrum once,
    on constant and on mixed multiplicities."""
    calls = []
    real = SingularPoint.local_spectrum

    def counted(point):
        calls.append(point)
        return real(point)

    monkeypatch.setattr(SingularPoint, "local_spectrum", counted)
    cusp = SingularPoint((2, 3), (LocalBranch(6, 1),))
    points = (cusp, cusp, SingularPoint((1, 2), (LocalBranch(2, 1),) * 2),
              SingularPoint((1, 3), (LocalBranch(3, 1),) * 2),
              SingularPoint((3, 4), (LocalBranch(12, 1),)),
              SingularPoint((1, 1), (LocalBranch(1, 1),) * 3))
    six = CurveConfig(components=(GlobalComponent(9, 1),), points=points,
                      nodes=2)
    mixed = CurveConfig(components=six.components + (GlobalComponent(1, 2),),
                        points=points, nodes=2)
    for cfg in (six, thicken(six, 3), mixed, thicken(pencil_config(2, 3, 1), 6),
                pencil_config(2, 3, 1)):
        distinct = list(dict.fromkeys(cfg.points))
        calls.clear()
        verify(cfg)
        assert calls == distinct, cfg
        calls.clear()
        cross_check(cfg)
        assert len(calls) == len(set(calls)), cfg
    # six points, five distinct: the reduced route of `cross_check` too
    assert len(six.points) == 6 and len(set(six.points)) == 5
    calls.clear()
    cross_check(six)
    assert len(calls) == 5
