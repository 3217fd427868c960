"""Randomized configurations for the differential and property suites, and
curves built from geometry for the suites that need realizable inputs."""

from __future__ import annotations

import itertools
import math
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


def random_redrawn_incidence_config(rng: random.Random) -> CurveConfig:
    """A `random_ordinary_config` whose incidence pairs are redrawn at random
    until sum count*binom2(value) differs from the construction's: the
    incidence middle row is then its balance row plus a nonzero constant."""
    cfg = random_ordinary_config(rng)

    def weight(pairs):
        return sum(count * binom2(value) for count, value in pairs)

    while True:
        pairs = [(rng.randint(1, 6), rng.randint(1, 5))
                 for _ in range(rng.randint(0, 4))]
        if weight(pairs) != weight(cfg.incidence.pairs):
            return CurveConfig(cfg.components, cfg.points, cfg.nodes,
                               Incidence.from_pairs(pairs))


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


def triangle_curve(a: int, b: int, c: int) -> CurveConfig:
    """The triangle a*L1 + b*L2 + c*L3 of the coordinate lines, whose cone
    is the monomial x^a y^b z^c: three weight-(1, 1) points, each where two
    lines meet, with one branch on each of the two lines."""
    lines = (a, b, c)
    return CurveConfig(
        components=tuple(GlobalComponent(1, m) for m in lines),
        points=tuple(SingularPoint((1, 1), (LocalBranch(1, lines[s]),
                                            LocalBranch(1, lines[t])))
                     for s, t in ((0, 1), (0, 2), (1, 2))))


def binomial_pencil_curve(a: int, b: int, c: int, p: int, q: int,
                          members: tuple[int, ...]) -> CurveConfig:
    """Family A: x^a y^b z^c * prod_j (x^p - c_j y^q z^(p-q))^(e_j), for
    p > q >= 1 and distinct c_j != 0, with e_j the entries of `members`.
    With g = gcd(p, q), each member has g components of degree p/g; the
    curve meets itself at the three coordinate points only: at [0:0:1]
    with weights (q/g, p/g), at [0:1:0] with weights ((p-q)/g, p/g), where
    the lines x = 0 and y = 0 (resp. z = 0) and g branches of each member
    meet, and at [1:0:0], where the lines y = 0 and z = 0 cross."""
    g = math.gcd(p, q)

    def pencil_point(u: int, v: int, line_u: int, line_v: int):
        """The point of weights (u/g, v/g) where the lines of weighted
        degree u/g and v/g, of multiplicities line_u and line_v, meet g
        branches of weighted degree u*v/g^2 of each member."""
        fibres = [LocalBranch(u * v // g ** 2, e)
                  for e in members for _ in range(g)]
        return SingularPoint((u // g, v // g),
                             (LocalBranch(u // g, line_u),
                              LocalBranch(v // g, line_v), *fibres))

    lines = tuple(GlobalComponent(1, m) for m in (a, b, c))
    comps = tuple(GlobalComponent(p // g, e) for e in members for _ in range(g))
    return CurveConfig(
        components=lines + comps,
        points=(pencil_point(q, p, a, b), pencil_point(p - q, p, a, c),
                SingularPoint((1, 1), (LocalBranch(1, b), LocalBranch(1, c)))))


def concurrent_lines_curve(mults: tuple[int, ...]) -> CurveConfig:
    """Family B: prod_k l_k^(m_k) for distinct lines l_k through one point,
    the one singular point, of weights (1, 1) and one branch per line."""
    return CurveConfig(
        components=tuple(GlobalComponent(1, m) for m in mults),
        points=(SingularPoint((1, 1), tuple(LocalBranch(1, m)
                                             for m in mults)),))


def monomial_join_curve(a: int, b: int) -> CurveConfig:
    """The reduced curve x^a y^b + z^d with d = a + b. With g = gcd(a, b)
    it has g components of degree d/g, which meet only at [1:0:0] and
    [0:1:0], where the curve is u^e + v^d with e = b and e = a. Where
    e >= 2 that point has, with h = gcd(e, d), weights (d/h, e/h) and h
    branches of weighted degree d*e/h^2."""
    d, g = a + b, math.gcd(a, b)
    points = []
    for e in (b, a):
        if e >= 2:
            h = math.gcd(e, d)
            points.append(SingularPoint(
                (d // h, e // h), (LocalBranch(d * e // h ** 2, 1),) * h))
    return CurveConfig(components=(GlobalComponent(d // g, 1),) * g,
                       points=tuple(points))


def line_arrangement_curve(d: int, nu: dict[int, int]) -> CurveConfig:
    """A reduced arrangement of d lines with nu[m] ordinary points of
    multiplicity m: the points of multiplicity >= 3 listed, the nodes
    aggregated. Only d and nu enter the table, so no incidence is given."""
    points = tuple(SingularPoint((1, 1), (LocalBranch(1, 1),) * m)
                   for m, count in sorted(nu.items()) if m >= 3
                   for _ in range(count))
    return CurveConfig(components=(GlobalComponent(1, 1),) * d,
                       points=points, nodes=nu.get(2, 0))


def _merged(*pairs: tuple[int, int]) -> dict[int, int]:
    nu: dict[int, int] = {}
    for m, count in pairs:
        if count:
            nu[m] = nu.get(m, 0) + count
    return nu


def named_line_arrangements() -> list[tuple[str, int, dict[int, int]]]:
    """(name, d, nu) of arrangements that exist: generic, pencil and near-
    pencil for d in [3, 29], Ceva's (x^k - y^k)(y^k - z^k)(z^k - x^k) for k
    in [2, 7] (3 points of multiplicity k, k^2 triple points), the Hesse
    arrangement (12 lines, 9 quadruple points, 12 nodes) and its dual
    (9 lines, 12 triple points)."""
    out = []
    for d in range(3, 30):
        out += [(f"generic-{d}", d, {2: math.comb(d, 2)}),
                (f"pencil-{d}", d, {d: 1}),
                (f"near-pencil-{d}", d, _merged((d - 1, 1), (2, d - 1)))]
    out += [(f"ceva-{k}", 3 * k, _merged((k, 3), (3, k * k)))
            for k in range(2, 8)]
    out += [("hesse", 12, {4: 9, 2: 12}), ("dual-hesse", 9, {3: 12})]
    return out


def random_line_arrangement_data(rng: random.Random
                                 ) -> tuple[int, dict[int, int]]:
    """(d, nu) with d in [3, 40] and sum nu_m C(m, 2) = C(d, 2), the
    count of pairs of lines, each pair meeting at one point: up to four
    multiplicities of 3 to d drawn with counts that fit, then nodes for
    the pairs left. Such data need not be an arrangement that exists."""
    d = rng.randint(3, 40)
    left = math.comb(d, 2)
    pairs = []
    for _ in range(rng.randint(0, 4)):
        m = rng.randint(3, d)
        if math.comb(m, 2) <= left:
            count = rng.randint(1, max(1, left // math.comb(m, 2) // 2))
            pairs.append((m, count))
            left -= count * math.comb(m, 2)
    return d, _merged(*pairs, (2, left))


def _primitive(v: tuple[int, int, int]) -> tuple[int, int, int]:
    """The integer vector v scaled to coprime entries whose first nonzero
    entry is positive: one name per point or line of the plane."""
    g = math.gcd(*v)
    sign = 1 if next(x for x in v if x) > 0 else -1
    return tuple(sign * x // g for x in v)


def random_line_arrangement(rng: random.Random
                            ) -> tuple[int, dict[int, int]]:
    """(d, nu) of an arrangement that exists: d in [3, 20] distinct lines
    ax + by + cz = 0 with a, b, c in [-2, 2], drawn by the seed, and
    nu[m] points where exactly m of them meet, found by exact cross
    products. Small coefficients make points of multiplicity 3 and more
    common."""
    lines = sorted({_primitive(v)
                    for v in itertools.product(range(-2, 3), repeat=3)
                    if any(v)})
    chosen = rng.sample(lines, rng.randint(3, 20))
    through: dict[tuple[int, int, int], set[int]] = {}
    for j, k in itertools.combinations(range(len(chosen)), 2):
        (a, b, c), (x, y, z) = chosen[j], chosen[k]
        point = _primitive((b * z - c * y, c * x - a * z, a * y - b * x))
        through.setdefault(point, set()).update((j, k))
    return len(chosen), _merged(*((len(on), 1) for on in through.values()))
