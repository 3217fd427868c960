"""Metamorphic relations of the curve routes (Chen et al., "Metamorphic
testing", 1998): rewrites of a config that describe the same curve must
leave its outputs unchanged. On the ordinary route the outputs are
`curve_table`, `reference_ordinary` and the rendered `cross_check` report,
and the rewrites are

- permuting the components, with the incidence matrix's columns permuted
  alongside when the incidence is a matrix;
- permuting the points, with the matrix rows of the listed points permuted
  alongside;
- permuting the branches within each point;
- in the vector dialect, a ``-k`` repeat count in place of k separate
  ``-1`` groups.

The corpus is seeded `random_ordinary_config` draws (with and without a
matrix), draws whose incidence pairs were redrawn so that the report's
``middle-incidence`` check fails and names a cell, and the vector fixtures
at two bindings.

On the weighted route, which has no reference program, the output is
`curve_table`, and the rewrites are

- permuting the components, the points, and the branches within a point;
- a round trip through the native dialect (`emit_native`);
- in the native dialect, a ``count=k`` line in place of k equal lines;
- a weight-(1, 1) point with two branches of multiplicity 1 in place of
  one more node.

Its corpus is seeded `random_mixed_swh_config` and
`random_reduced_swh_config` draws.
"""

import random
from pathlib import Path

import pytest

from conespec.engine import CurveConfig, Incidence, curve_table
from conespec.formats import config_template
from conespec.local import LocalBranch, SingularPoint
from conespec.oracle import cross_check, reference_ordinary
from generators import (random_mixed_swh_config, random_ordinary_config,
                        random_redrawn_incidence_config,
                        random_reduced_swh_config)
from reference import emit_native

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(20261020)
    cfgs = [random_ordinary_config(rng, with_matrix=k % 2 == 0)
            for k in range(80)]
    cfgs += [random_redrawn_incidence_config(rng) for _ in range(6)]
    for path in sorted(FIXTURES.glob("*.vectors")):
        template = config_template(path.read_text())
        cfgs += [template(dict(a=2, b=3, c=1)), template(dict(a=3, b=1, c=2))]
    return cfgs


def outputs(cfg: CurveConfig):
    return curve_table(cfg), reference_ordinary(cfg), cross_check(cfg).render()


def permute_components(cfg: CurveConfig, rng: random.Random) -> CurveConfig:
    order = rng.sample(range(len(cfg.components)), len(cfg.components))
    incidence = cfg.incidence
    if incidence is not None and incidence.matrix is not None:
        incidence = Incidence.from_matrix([[row[k] for k in order]
                                           for row in incidence.matrix])
    return CurveConfig(tuple(cfg.components[k] for k in order), cfg.points,
                       cfg.nodes, incidence)


def permute_points(cfg: CurveConfig, rng: random.Random) -> CurveConfig:
    n = len(cfg.points)
    order = rng.sample(range(n), n)
    incidence = cfg.incidence
    if incidence is not None and incidence.matrix is not None:
        matrix = incidence.matrix
        incidence = Incidence.from_matrix([matrix[k] for k in order]
                                          + list(matrix[n:]))
    return CurveConfig(cfg.components, tuple(cfg.points[k] for k in order),
                       cfg.nodes, incidence)


def permute_branches(cfg: CurveConfig, rng: random.Random) -> CurveConfig:
    points = tuple(SingularPoint(p.weights, rng.sample(p.branches,
                                                       len(p.branches)))
                   for p in cfg.points)
    return CurveConfig(cfg.components, points, cfg.nodes, cfg.incidence)


def vector_text(cfg: CurveConfig, grouped: bool) -> str:
    """`cfg` in the vector dialect, one ``-1`` group per record, or with each
    run of equal records in a row as one ``-k`` group when `grouped`."""
    def groups(records):
        runs = []
        for record in records:
            if grouped and runs and runs[-1][1] == record:
                runs[-1][0] += 1
            else:
                runs.append([1, record])
        return ", ".join(",".join(map(str, (-k, *record)))
                         for k, record in runs)

    assert all(p.weights == (1, 1) for p in cfg.points)
    glcmp = groups([(c.degree, c.multiplicity) for c in cfg.components])
    si = groups([(p.branch_count, *(b.multiplicity for b in p.branches))
                 for p in cfg.points])
    lg = groups([(value,) for count, value in cfg.incidence.pairs
                 for _ in range(count)])
    return f"GlCmp = {glcmp};\nSi = {si};\nOD = {cfg.nodes};\nLG = {lg or 0};\n"


def sorted_records(cfg: CurveConfig) -> CurveConfig:
    """`cfg` with its components and points sorted, so that equal records
    stand in a row, and its incidence as pairs."""
    def point_key(p):
        return [b.multiplicity for b in p.branches]

    return CurveConfig(
        tuple(sorted(cfg.components, key=lambda c: (c.degree, c.multiplicity))),
        tuple(sorted(cfg.points, key=point_key)), cfg.nodes,
        Incidence.from_pairs(cfg.incidence.pairs))


@pytest.mark.parametrize("permute", [permute_components, permute_points,
                                     permute_branches])
def test_permutations_leave_the_outputs_unchanged(corpus, permute):
    rng = random.Random(permute.__name__)
    for cfg in corpus:
        moved = permute(cfg, rng)
        assert outputs(moved) == outputs(cfg), (permute.__name__, cfg)


def test_permuted_branches_give_equal_points_distinct_lists(corpus):
    """Two points with the same branches in two orders: the reference builds
    their ceiling row once per list, so twice, and must agree with the
    config in which both lists are equal."""
    rng = random.Random(7)
    seen = 0
    for cfg in corpus:
        moved = permute_branches(cfg, rng)
        lists = {}
        for p, q in zip(cfg.points, moved.points):
            lists.setdefault(p.branches, set()).add(q.branches)
        if any(len(orders) > 1 for orders in lists.values()):
            seen += 1
            assert outputs(moved) == outputs(cfg), cfg
    assert seen >= 10


def test_repeat_counts_leave_the_outputs_unchanged(corpus):
    """The vector text of each config and of its records sorted, once with
    ``-k`` repeat counts and once with k separate groups."""
    grouped_runs = 0
    for cfg in corpus:
        want = outputs(cfg)
        for base in (cfg, sorted_records(cfg)):
            texts = [vector_text(base, grouped) for grouped in (False, True)]
            grouped_runs += texts[0] != texts[1]
            for text in texts:
                assert outputs(config_template(text)({})) == want, text
    assert grouped_runs >= 120


@pytest.fixture(scope="module")
def weighted_corpus():
    rng = random.Random(20261021)
    cfgs = [draw(rng) for _ in range(200)
            for draw in (random_mixed_swh_config, random_reduced_swh_config)]
    assert sum(not cfg.is_ordinary() for cfg in cfgs) >= 200
    assert sum(not cfg.is_reduced() for cfg in cfgs) >= 100
    return cfgs


@pytest.mark.parametrize("permute", [permute_components, permute_points,
                                     permute_branches])
def test_weighted_permutations_leave_the_table_unchanged(weighted_corpus,
                                                         permute):
    rng = random.Random(permute.__name__)
    for cfg in weighted_corpus:
        moved = permute(cfg, rng)
        assert curve_table(moved) == curve_table(cfg), (permute.__name__, cfg)


def native_text(cfg: CurveConfig, grouped: bool) -> str:
    """`cfg` in the native dialect, one ``count=1`` line per record as
    `emit_native` writes it, or with each run of equal lines in a row as
    one ``count=k`` line when `grouped`."""
    runs = []
    for line in emit_native(cfg).splitlines():
        if grouped and runs and runs[-1][1] == line and line.endswith(
                " count=1"):
            runs[-1][0] += 1
        else:
            runs.append([1, line])
    return "".join(line.removesuffix("count=1") + f"count={k}\n"
                   if line.endswith(" count=1") else line + "\n"
                   for k, line in runs)


def sorted_weighted(cfg: CurveConfig) -> CurveConfig:
    """`cfg` with its components and points sorted, so that equal records
    stand in a row."""
    def point_key(p):
        return p.weights, [(b.weighted_degree, b.multiplicity)
                           for b in p.branches]

    return CurveConfig(
        tuple(sorted(cfg.components, key=lambda c: (c.degree, c.multiplicity))),
        tuple(sorted(cfg.points, key=point_key)), cfg.nodes, cfg.incidence)


def test_native_round_trip_and_counts_leave_the_table_unchanged(
        weighted_corpus):
    """Each config and its records sorted, read back from native text once
    with k equal lines and once with one ``count=k`` line."""
    grouped_runs = 0
    for cfg in weighted_corpus:
        want = curve_table(cfg)
        back = config_template(emit_native(cfg))({})
        assert back == cfg and curve_table(back) == want, cfg
        for base in (cfg, sorted_weighted(cfg)):
            texts = [native_text(base, grouped) for grouped in (False, True)]
            grouped_runs += texts[0] != texts[1]
            for text in texts:
                assert curve_table(config_template(text)({})) == want, text
    assert grouped_runs >= 40


NODE = SingularPoint((1, 1), (LocalBranch(1, 1), LocalBranch(1, 1)))


def test_a_node_as_a_point_leaves_the_table_unchanged(weighted_corpus):
    """One more node, or one more point of weights (1, 1) with two branches
    of multiplicity 1 and degree 1, at the end or at the front of the
    points."""
    for cfg in weighted_corpus:
        more = CurveConfig(cfg.components, cfg.points, cfg.nodes + 1)
        want = curve_table(more)
        for points in (cfg.points + (NODE,), (NODE,) + cfg.points):
            folded = CurveConfig(cfg.components, points, cfg.nodes)
            assert curve_table(folded) == want, cfg
