"""Randomized configurations for the differential and property suites."""

from __future__ import annotations

import random

from conespec.engine import CurveConfig, GlobalComponent, Incidence, binom2
from conespec.local import LocalBranch, SingularPoint


def random_ordinary_config(rng: random.Random,
                           max_components: int = 6,
                           max_degree: int = 4,
                           max_mult: int = 5,
                           max_points: int = 6,
                           max_branches: int = 8,
                           with_matrix: bool = False) -> CurveConfig:
    """Random ordinary configuration built like actual geometry: smooth
    components meeting transversally at the listed points, every remaining
    pairwise intersection closed off as an aggregated node, and a genus-
    bounded number of self-nodes per component. Branch multiplicities are
    always component multiplicities, and incidence data is the complete
    multiset implied by the construction.
    """
    r = rng.randint(1, max_components)
    comps = [GlobalComponent(rng.randint(1, max_degree), rng.randint(1, max_mult))
             for _ in range(r)]
    capacity = {(k, kp): comps[k].degree * comps[kp].degree
                for k in range(r) for kp in range(k + 1, r)}
    used = {pair: 0 for pair in capacity}
    self_budget = [binom2(c.degree - 1) for c in comps]

    point_rows: list[list[int]] = []
    for _ in range(rng.randint(0, max_points)):
        row = [0] * r
        size = rng.randint(2, min(max(r + 1, 2), max_branches))
        candidates = list(range(r))
        rng.shuffle(candidates)
        for k in candidates:
            if sum(row) >= size:
                break
            m = 1
            if (comps[k].degree >= 3 and self_budget[k] > 0
                    and sum(row) + 2 <= size and rng.random() < 0.3):
                m = 2
            ok = True
            for kp in range(r):
                if row[kp] and kp != k:
                    pair = (min(k, kp), max(k, kp))
                    if used[pair] + m * row[kp] > capacity[pair]:
                        ok = False
                        break
            if not ok:
                continue
            row[k] = m
            if m == 2:
                self_budget[k] -= 1
        if sum(row) < 2:
            continue
        for k in range(r):
            for kp in range(k + 1, r):
                if row[k] and row[kp]:
                    used[(k, kp)] += row[k] * row[kp]
        point_rows.append(row)

    leftover = sum(capacity[pair] - used[pair] for pair in capacity)
    self_rows: list[list[int]] = []
    for k in range(r):
        for _ in range(rng.randint(0, min(2, self_budget[k]))):
            row = [0] * r
            row[k] = 2
            self_rows.append(row)
            self_budget[k] -= 1

    points = []
    listed_rows = []
    aggregated_rows = []
    for row in point_rows:
        branches = []
        for k, m in enumerate(row):
            branches.extend([LocalBranch(1, comps[k].multiplicity)] * m)
        if len(branches) == 2 and rng.random() < 0.4:
            aggregated_rows.append(row)    # double point folded into the counter
            continue
        points.append(SingularPoint((1, 1), tuple(branches)))
        listed_rows.append(row)

    nodes = leftover + len(self_rows) + len(aggregated_rows)

    leftover_rows = []
    for pair, cap in capacity.items():
        for _ in range(cap - used[pair]):
            row = [0] * r
            row[pair[0]] = 1
            row[pair[1]] = 1
            leftover_rows.append(row)

    matrix_rows = listed_rows + aggregated_rows + self_rows + leftover_rows
    if with_matrix and matrix_rows:
        incidence = Incidence.from_matrix(matrix_rows)
    else:
        value_counts: dict[int, int] = {}
        for row in point_rows + self_rows + leftover_rows:
            for v in row:
                if v:
                    value_counts[v] = value_counts.get(v, 0) + 1
        pairs = tuple(sorted((c, v) for v, c in value_counts.items()))
        incidence = Incidence.from_pairs(pairs)

    return CurveConfig(components=tuple(comps), points=tuple(points),
                       nodes=nodes, incidence=incidence)


_SWH_WEIGHTS = ((1, 1), (1, 2), (1, 3), (2, 3), (1, 4), (3, 4), (2, 5), (3, 5))


def random_swh_point(rng: random.Random,
                     multiplicity: int = 1) -> SingularPoint:
    """Random semi-weighted-homogeneous point with branch degrees drawn from
    {w, w', w*w'} (at most one branch each of degree w and w')."""
    while True:
        w, wp = _SWH_WEIGHTS[rng.randrange(len(_SWH_WEIGHTS))]
        branches = []
        if rng.random() < 0.5:
            branches.append(w)
        if rng.random() < 0.5:
            branches.append(wp)
        branches.extend([w * wp] * rng.randint(0, 2))
        degree = sum(branches)
        if len(branches) >= 1 and degree > max(w, wp):
            if (w, wp) == (1, 1) and degree < 2:
                continue
            return SingularPoint(
                (w, wp),
                tuple(LocalBranch(b, multiplicity) for b in branches))


def random_reduced_swh_config(rng: random.Random,
                              max_components: int = 4,
                              max_degree: int = 4,
                              max_points: int = 3) -> CurveConfig:
    """Random reduced configuration with semi-weighted-homogeneous points,
    for the thickening and bridge-identity suites."""
    r = rng.randint(1, max_components)
    comps = tuple(GlobalComponent(rng.randint(1, max_degree), 1)
                  for _ in range(r))
    points = tuple(random_swh_point(rng) for _ in range(rng.randint(0, max_points)))
    return CurveConfig(components=comps, points=points,
                       nodes=rng.randint(0, 3))


def random_mixed_swh_config(rng: random.Random,
                            max_mult: int = 4) -> CurveConfig:
    """Random semi-weighted-homogeneous configuration whose component and
    branch multiplicities are drawn independently from 1..max_mult."""
    base = random_reduced_swh_config(rng)
    comps = tuple(GlobalComponent(c.degree, rng.randint(1, max_mult))
                  for c in base.components)
    points = tuple(
        SingularPoint(p.weights,
                      tuple(LocalBranch(b.weighted_degree,
                                        rng.randint(1, max_mult))
                            for b in p.branches))
        for p in base.points)
    return CurveConfig(components=comps, points=points, nodes=base.nodes)


def scale_multiplicities(cfg: CurveConfig, g: int) -> CurveConfig:
    """cfg with every component and branch multiplicity multiplied by g and
    its incidence kept: the curve g*Z of the curve Z that cfg describes,
    whose table repeats every deg Z columns."""
    comps = tuple(GlobalComponent(c.degree, g * c.multiplicity)
                  for c in cfg.components)
    points = tuple(
        SingularPoint(p.weights,
                      tuple(LocalBranch(b.weighted_degree, g * b.multiplicity)
                            for b in p.branches))
        for p in cfg.points)
    return CurveConfig(components=comps, points=points, nodes=cfg.nodes,
                       incidence=cfg.incidence)


def binary_power_curve(e: int, m: int) -> CurveConfig:
    """The reduced curve h^m + z^(m*e) of degree m*e, for a binary form h of
    degree e with distinct roots: the m smooth components h - c*z^e with
    c^m = -1, each of degree e, meet only at the e roots of h, in the
    singularity u^m + w^(m*e) of weights (1, e) with m branches of weighted
    degree e."""
    return CurveConfig(
        components=(GlobalComponent(e, 1),) * m,
        points=(SingularPoint((1, e), (LocalBranch(e, 1),) * m),) * e)
