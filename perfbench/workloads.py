"""Seeded operation streams for the benchmark workloads.

A workload is an endless sequence of cycles. A cycle is a fixed mix of CLI
operations (one client, closed loop); the seed chooses their inputs. Every
operation in a run has an input of its own, so no later cache can answer a
repeated question. Costs stay comparable across seeds because each slot of
the mix fixes its fixture and its table size d, and the seed chooses only
how d is split among the parameters (and, for native configs, which point
types of a fixed family appear). Each command's operations in a cycle come
in equal numbers per fixture or config kind, so that its median latency
falls in the same group of the mix on every seed.

Every workload runs all five commands, so that each reports every metric:

* ``ordinary-large``: the ordinary vector fixtures at d of 500-1500. The
  Fraction row loop (``index_data``/``residue_degree``), the incidence
  middle row and the literal reference of ``oracle`` do almost all the work.
* ``scan-grid``: ``scan`` over 30x30 grids of ``five-lines`` (with and
  without ``--predicate n3d_zero``) and a seeded 15x15 grid of
  ``lines-conic``, all at d <= 65, plus small tables (d about 120).
  Hundreds of tables of which one cell is used: per-call overhead and
  template evaluation (``formats``) show here.
* ``weighted-reduced``: native configs written by the generator, with
  semi-weighted-homogeneous points (cusps, A5 tangencies, high weights),
  constant-multiplicity thickenings, mixed multiplicities, and ``reduced``
  configs at n = 3, d' = 40. ``thickened_spectrum``, ``window_count`` and
  ``SpectrumVector.render`` matter only here.

The golden ``compute`` cases run untimed before the cycles of every
workload, since fixed inputs cannot recur. Every subject the gate checks
against is built here or in ``vectors.py``, never parsed by the package.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

from conespec.engine import CurveConfig, GlobalComponent
from conespec.local import LocalBranch, SingularPoint
from gate import ReducedInput
from vectors import VectorTemplate

GOLDEN_CASES = (
    ("conic-pencil", (2, 5, 2)), ("cubic-pencil", (3, 2, 2)),
    ("quartic-pencil", (2, 3, 1)), ("sextic-pencil", (3, 2, 1)),
    ("five-lines", (4, 2, 0)), ("five-lines", (5, 1, 0)),
    ("lines-conic", (1, 1, 4)),
)


@dataclass
class Op:
    """One CLI call and what its output is checked against."""

    command: str
    argv: list
    subject: object = None      # CurveConfig or gate.ReducedInput of the input
    fmt: str = "rows"
    golden: Path | None = None
    grid: tuple = ()            # scan: (names, ranges, fixed, predicates, build)
    cells: int = 0              # compute: 3*d table cells
    points: int = 0             # scan: grid points


def _params(values: dict) -> list[str]:
    return [arg for name, v in values.items() for arg in ("--param", f"{name}={v}")]


def native_text(cfg: CurveConfig, mult: str | None = None) -> str:
    """Native text of cfg; with mult, every multiplicity becomes that
    template expression."""
    lines = [f"component degree={c.degree} mult={mult or c.multiplicity}"
             for c in cfg.components]
    lines += ["point weights={},{} branches={}".format(
        *p.weights, "".join(f"({b.weighted_degree}:{mult or b.multiplicity})"
                            for b in p.branches)) for p in cfg.points]
    lines.append(f"nodes {cfg.nodes}")
    return "\n".join(lines) + "\n"


def with_multiplicity(cfg: CurveConfig, m: int) -> CurveConfig:
    """cfg with every component and branch multiplicity set to m."""
    return CurveConfig(
        tuple(GlobalComponent(c.degree, m) for c in cfg.components),
        tuple(SingularPoint(p.weights, tuple(LocalBranch(b.weighted_degree, m)
                                             for b in p.branches))
              for p in cfg.points), nodes=cfg.nodes)


class Fixture:
    """A shipped vector fixture with parameters a, b, c, read unmodified."""

    def __init__(self, root: Path, name: str):
        self.path = root / "fixtures" / f"{name}.vectors"
        self.template = VectorTemplate(self.path)

    def config(self, a: int, b: int, c: int) -> CurveConfig:
        return self.template.config({"a": a, "b": b, "c": c})

    def degree(self, a: int, b: int, c: int) -> int:
        return self.config(a, b, c).degree

    def split(self, rng: random.Random, target: int, c: int,
              width: float) -> tuple[int, int]:
        """(a, b) with d(a, b, c) close to target; the seed picks a within
        (0.4 +- width) of its largest value."""
        d11 = self.degree(1, 1, c)
        slope_a = self.degree(2, 1, c) - d11
        slope_b = self.degree(1, 2, c) - d11
        a_max = max(1, 1 + (target - d11) // slope_a)
        a = rng.randint(max(1, round((0.4 - width) * a_max)),
                        max(1, min(a_max, round((0.4 + width) * a_max))))
        b = max(1, 1 + (target - self.degree(a, 1, c)) // slope_b)
        return a, b


class Workload:
    """Base: the seeded stream, the files it writes, and distinct inputs."""

    # seconds one cycle takes at the reference speed (calibrate.py) on the
    # seed code; a run of S seconds is round(S / CYCLE_S) cycles
    CYCLE_S: float

    def __init__(self, root: Path, seed: int, inputs: Path):
        self.root = root
        self.rng = random.Random(f"{type(self).__name__}:{seed}")
        self.inputs = inputs
        self.seen: set = set()
        self.fixtures: dict[str, Fixture] = {}

    def fixture(self, name: str) -> Fixture:
        if name not in self.fixtures:
            self.fixtures[name] = Fixture(self.root, name)
        return self.fixtures[name]

    def fresh(self, key) -> bool:
        """True the first time key is seen in this run."""
        if key in self.seen:
            return False
        self.seen.add(key)
        return True

    def write(self, name: str, text: str) -> str:
        path = self.inputs / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def fixture_params(self, name: str, target: int, c=None) -> tuple[int, int, int]:
        """Fresh (a, b, c) for a fixture at d within 2% of target; c is a
        component count for the pencils (fixed) and a multiplicity for the
        line arrangements (seeded when None). The window widens only once
        the fresh inputs near target run out."""
        fx = self.fixture(name)
        for attempt in range(2000):
            widen = attempt // 100
            spread = 0.02 * (1 + widen)
            t = round(target * self.rng.uniform(1 - spread, 1 + spread))
            cc = self.rng.randint(0, t // 4) if c is None else c
            a, b = fx.split(self.rng, t, cc, 0.1 + 0.05 * widen)
            if self.fresh((name, a, b, cc)):
                return a, b, cc
        raise RuntimeError(f"no fresh parameters left for {name} at d={target}")

    def fixture_op(self, command: str, name: str, abc, *extra, fmt="rows") -> Op:
        fx = self.fixture(name)
        cfg = fx.config(*abc)
        binding = dict(zip("abc", abc))
        return Op(command, [command, str(fx.path), *extra, *_params(binding)],
                  subject=cfg, fmt=fmt,
                  cells=3 * cfg.degree if command == "compute" else 0)

    def scan_op(self, template_path: str, build, ranges: dict, fixed: dict,
                predicates=()) -> Op:
        """``scan`` of a template; build(binding) gives the config at one
        grid point."""
        names = sorted(ranges)
        spans = [range(lo, hi + 1) for lo, hi in (ranges[n] for n in names)]
        argv = ["scan", template_path]
        for n in names:
            argv += ["--range", f"{n}={ranges[n][0]}..{ranges[n][1]}"]
        for pred in predicates:
            argv += ["--predicate", pred]
        points = 1
        for span in spans:
            points *= len(span)
        return Op("scan", argv + _params(fixed),
                  grid=(names, spans, fixed, tuple(predicates), build),
                  points=points)

    def reduced_view(self, tag: str, cfg: CurveConfig, power: int) -> Op:
        """``reduced`` on the reduced curve of cfg raised to a power: one
        local weight system per listed point, one node spectrum per node."""
        systems = [(p.weights, sum(b.weighted_degree for b in p.branches))
                   for p in cfg.points] + [((1, 1), 2)] * cfg.nodes
        return self.reduced_op(tag, 2, cfg.reduced_degree, power, systems)

    def reduced_op(self, tag: str, n: int, degree: int, power: int, systems) -> Op:
        """``reduced`` on a written config; the power is raised past any
        config already used in this run."""
        while not self.fresh(("reduced", n, degree, power, tuple(sorted(systems)))):
            power += 1
        lines = [f"reduced n={n} degree={degree} power={power}"]
        lines += [f"localwh weights={','.join(map(str, w))} degree={deg}"
                  for w, deg in systems]
        path = self.write(f"{tag}.cfg", "\n".join(lines) + "\n")
        return Op("reduced", ["reduced", path],
                  subject=ReducedInput(n, degree, power, tuple(systems)))

    def fixture_scan(self, name: str, ranges: dict, fixed: dict, predicates=()) -> Op:
        fx = self.fixture(name)
        return self.scan_op(str(fx.path),
                            lambda binding: fx.template.config(binding),
                            ranges, fixed, predicates)

    def prelude(self) -> list[Op]:
        """Untimed operations run before timing starts, so that first-call
        costs are not measured; they are checked like every other one. The
        golden compute cases are among them."""
        golden = self.root / "tests" / "golden"
        ops = []
        for name, abc in GOLDEN_CASES:
            op = self.fixture_op("compute", name, abc)
            op.golden = golden / f"{name}_a{abc[0]}_b{abc[1]}_c{abc[2]}.rows"
            self.fresh((name, *abc))
            ops.append(op)
        cusp = SingularPoint((2, 3), (LocalBranch(6, 2),))
        doubled = CurveConfig((GlobalComponent(3, 2),), (cusp,))
        ops += [Op("verify", ["verify", self.write("prelude-doubled-cusp.cfg",
                                                   native_text(doubled))],
                   subject=doubled),
                self.fixture_op("oracle", *GOLDEN_CASES[0]),
                self.reduced_op("prelude-cusp", 2, 3, 1, [((2, 3), 6)]),
                self.fixture_scan("conic-pencil", {"a": (1, 2)}, {"b": 1, "c": 0})]
        return ops

    def cycle(self, k: int) -> list[Op]:
        raise NotImplementedError


class OrdinaryLarge(Workload):
    CYCLE_S = 14.6
    # (fixture, component count c or None for a seeded multiplicity, target d)
    SLOTS = (("sextic-pencil", 1, 500), ("conic-pencil", 2, 800),
             ("cubic-pencil", 2, 1200), ("quartic-pencil", 2, 800),
             ("five-lines", None, 1500))
    REDUCED_CELLS = 1000        # d' * power of every reduced view

    def cycle(self, k: int) -> list[Op]:
        """Per fixture: compute (rows, csv, cor2), three verify, two oracle,
        six reduced views and a two-point scan, every one on its own
        parameters."""
        ops = []
        for name, c, target in self.SLOTS:
            fresh = lambda: self.fixture_params(name, target, c)  # noqa: E731
            ops += [self.fixture_op("compute", name, fresh()),
                    self.fixture_op("compute", name, fresh(), "--format", "csv",
                                    fmt="csv"),
                    self.fixture_op("compute", name, fresh(), "--middle", "cor2")]
            ops += [self.fixture_op(command, name, fresh())
                    for command, count in (("verify", 3), ("oracle", 2))
                    for _ in range(count)]
            a, b, cc = fresh()
            while not self.fresh((name, a + 1, b, cc)):
                a, b, cc = fresh()
            ops.append(self.fixture_scan(name, {"a": (a, a + 1)}, {"b": b, "c": cc}))
            cfg = self.fixture(name).config(*fresh())
            for j in range(6):
                power = max(2, round(self.REDUCED_CELLS * self.rng.uniform(0.98, 1.02)
                                     / cfg.reduced_degree))
                ops.append(self.reduced_view(f"c{k}-{name}-reduced-{j}", cfg, power))
        return ops


class ScanGrid(Workload):
    CYCLE_S = 7.4
    FIVE_LINES_AXES = (("a", "b", "c", 0), ("a", "c", "b", 1), ("b", "c", "a", 1))

    def __init__(self, root: Path, seed: int, inputs: Path):
        super().__init__(root, seed, inputs)
        self.offsets = list(range(11))
        self.rng.shuffle(self.offsets)

    def five_lines_grid(self, g: int, predicates=()) -> Op:
        """Grid g of five-lines: 30x30 over two of a, b, c (c ranges over
        0..29 so that its line has multiplicity 1..30); the third is fixed
        and grows by one every three grids. All grids share one d range."""
        x, y, fixed, low = self.FIVE_LINES_AXES[g % 3]
        lo = lambda n: 0 if n == "c" else 1  # noqa: E731
        ranges = {x: (lo(x), lo(x) + 29), y: (lo(y), lo(y) + 29)}
        return self.fixture_scan("five-lines", ranges, {fixed: low + g // 3},
                                 predicates)

    def cycle(self, k: int) -> list[Op]:
        ops = []
        ops.append(self.five_lines_grid(2 * k))
        ops.append(self.five_lines_grid(2 * k + 1, ("n3d_zero",)))
        o = self.offsets[k % len(self.offsets)]
        ops.append(self.fixture_scan("lines-conic",
                                     {"a": (o + 1, o + 15), "b": (11 - o, 25 - o)},
                                     {"c": 2 + k // len(self.offsets)}))
        pencils = ("conic-pencil", "cubic-pencil", "quartic-pencil")
        small = lambda name, c=1: self.fixture_params(name, 120, c)  # noqa: E731
        for name in pencils * 2:
            ops += [self.fixture_op("compute", name, small(name)),
                    self.fixture_op("compute", name, small(name), "--format", "csv",
                                    fmt="csv"),
                    self.fixture_op("compute", name, small(name), "--middle", "cor2")]
        for _ in range(3):
            ops += [self.fixture_op("verify", name, small(name, c))
                    for name, c in (("sextic-pencil", 0), ("five-lines", None),
                                    ("conic-pencil", 1))]
            ops += [self.fixture_op("oracle", name, small(name)) for name in pencils]
            ops += [self.reduced_view(f"c{k}-{name}-reduced-{len(ops)}",
                                      self.fixture(name).config(*abc),
                                      self.rng.randint(power - 2, power + 2))
                    for name, abc, power in (("sextic-pencil", (1, 1, 0), 23),
                                             ("conic-pencil", (1, 1, 1), 50),
                                             ("five-lines", (1, 1, 0), 60))]
        return ops


# Semi-weighted-homogeneous point types: (weights, branch weighted degrees).
# Each has an integral Milnor number and branch degrees in {w, w', w*w'}.
CUSP = ((2, 3), (6,))
A5_TANGENCY = ((1, 3), (3, 3))
TRIPLE = ((1, 1), (1, 1, 1))
HIGH_WEIGHTS = (((5, 7), (35,)), ((4, 7), (28,)), ((3, 7), (21,)), ((4, 5), (20,)))
TWO_BRANCH = (((2, 5), (2, 10)), ((3, 4), (3, 12)), ((2, 7), (2, 14)))
# Brieskorn-Pham exponents (p, q, r): weights lcm/p, lcm/q, lcm/r; the
# first group has Milnor number 12, the second 16.
BRIESKORN = (((2, 3, 7), (2, 4, 5), (3, 3, 4)), ((2, 5, 5), (2, 3, 9), (3, 3, 5)))


def _brieskorn(pqr) -> tuple[tuple[int, int, int], int]:
    d = math.lcm(*pqr)
    return tuple(d // e for e in pqr), d


class WeightedReduced(Workload):
    CYCLE_S = 1.75
    REDUCED_DEGREE = 24

    def point_types(self) -> list:
        rng = self.rng
        return [CUSP, CUSP, A5_TANGENCY, TRIPLE, rng.choice(HIGH_WEIGHTS),
                rng.choice(TWO_BRANCH)]

    def curve(self, mults) -> CurveConfig:
        """A curve of reduced degree 24 with one component per entry of
        mults, of seeded degrees; each branch carries the multiplicity of a
        component drawn by the seed."""
        cuts = sorted(self.rng.sample(range(3, self.REDUCED_DEGREE - 2, 3), len(mults) - 1))
        degs = [b - a for a, b in zip([0, *cuts], [*cuts, self.REDUCED_DEGREE])]
        points = tuple(
            SingularPoint(w, tuple(LocalBranch(b, self.rng.choice(mults))
                                   for b in branches))
            for w, branches in self.point_types())
        return CurveConfig(tuple(GlobalComponent(g, m) for g, m in zip(degs, mults)),
                           points, nodes=self.rng.randint(4, 8))

    def fresh_curve(self, mults_fn) -> CurveConfig:
        for _ in range(1000):
            cfg = self.curve(mults_fn())
            if self.fresh(native_text(cfg)):
                return cfg
        raise RuntimeError("no fresh weighted curve left")

    def reduced_space(self, tag: str) -> Op:
        """``reduced`` at n = 3, d' = 40: four Brieskorn-Pham points, two
        from each Milnor-number group, and a power of 44 to 46."""
        systems = [_brieskorn(pqr) for group in BRIESKORN
                   for pqr in self.rng.sample(group, 2)]
        return self.reduced_op(tag, 3, 40, self.rng.randint(44, 46), systems)

    def cycle(self, k: int) -> list[Op]:
        """compute, verify and oracle on a reduced curve, a constant-
        multiplicity thickening and a mixed-multiplicity curve; reduced
        (and verify) at n = 3 and on the n = 2 view of a reduced curve; two
        scans over the multiplicity m of a curve template."""
        mults = {"reduced-curve": lambda: (1, 1, 1),
                 "thickened": lambda: (25, 25, 25),
                 "mixed": lambda: tuple(self.rng.sample((30, 40, 50), 3))}
        ops = []
        for kind, mults_fn in mults.items():
            for command in ("compute", "verify", "oracle"):
                cfg = self.fresh_curve(mults_fn)
                path = self.write(f"c{k}-{kind}-{command}.cfg", native_text(cfg))
                ops.append(Op(command, [command, path], subject=cfg,
                              cells=3 * cfg.degree if command == "compute" else 0))
        spaces = [self.reduced_space(f"c{k}-n3-{j}") for j in range(3)]
        views = [self.reduced_view(f"c{k}-n2-{j}", self.fresh_curve(mults["reduced-curve"]),
                                   25) for j in range(2)]
        ops += spaces[:2] + views[:1]
        ops += [Op("verify", ["verify", op.argv[1]], subject=op.subject)
                for op in (spaces[2], views[1])]
        for j in range(2):
            curve = self.fresh_curve(mults["reduced-curve"])
            template = self.write(f"c{k}-template-{j}.cfg", native_text(curve, "m"))
            build = lambda binding, curve=curve: with_multiplicity(  # noqa: E731
                curve, binding["m"])
            ops.append(self.scan_op(template, build, {"m": (20, 22)}, {}))
        return ops


def make(name: str, root: Path, seed: int, inputs: Path) -> Workload:
    classes = {"ordinary-large": OrdinaryLarge, "scan-grid": ScanGrid,
               "weighted-reduced": WeightedReduced}
    return classes[name](root, seed, inputs)
