"""Command-line interface.

Commands: ``compute`` (spectrum table of a curve config), ``reduced``
(reduced-cone spectrum, its power transform, and the n=2 table),
``verify`` (invariant checks), ``oracle`` (differential report against the
independent reference), ``scan`` (parameter grids to CSV). The checks of
``verify`` and ``oracle`` are defined in `conespec.oracle`.

Exit codes: 0 success, 1 verification or oracle mismatch, 2 input error.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import sys
from dataclasses import dataclass

from .engine import (ConeSpectrumTable, CurveConfig, ReducedConeConfig,
                     curve_table, local_data_table, ordinary_middle_row,
                     reduced_cone_spectrum, thickened_spectrum)
from .formats import (ConfigError, emit_table, looks_like_vectors,
                      parse_native, parse_singular, parse_vector_text)
from .oracle import cross_check, has_reference, verify
from .spectrum import SpectrumVector

OK, MISMATCH, INPUT_ERROR = 0, 1, 2

PREDICATES = ("n3d_zero", "chi_nonzero")


def _read_config(path: str, binding: dict):
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    if looks_like_vectors(text):
        return parse_singular(parse_vector_text(text), binding)
    return parse_native(text, binding)


def _parse_params(items) -> dict:
    binding = {}
    for item in items or ():
        if "=" not in item:
            raise ConfigError("param-syntax",
                              f"--param expects NAME=VALUE, got {item!r}")
        name, _, value = item.partition("=")
        try:
            binding[name] = int(value)
        except ValueError as exc:
            raise ConfigError("param-syntax",
                              f"--param value for {name!r} must be an integer") \
                from exc
    return binding


def _parse_ranges(items) -> dict:
    ranges = {}
    for item in items or ():
        if "=" not in item or ".." not in item:
            raise ConfigError("range-syntax",
                              f"--range expects NAME=LO..HI, got {item!r}")
        name, _, span = item.partition("=")
        lo_text, _, hi_text = span.partition("..")
        try:
            lo, hi = int(lo_text), int(hi_text)
        except ValueError as exc:
            raise ConfigError("range-syntax",
                              f"--range bounds for {name!r} must be integers") \
                from exc
        ranges[name] = (lo, hi)
    return ranges


def _render_spectrum(spec: SpectrumVector) -> str:
    return spec.render() if spec else "(empty)"


def cmd_compute(args) -> int:
    binding = _parse_params(args.param)
    cfg = _read_config(args.path, binding)
    if not isinstance(cfg, CurveConfig):
        raise ConfigError("mode-conflict",
                          "compute expects a curve config; use 'reduced' for "
                          "reduced-cone inputs")
    table = curve_table(cfg)
    if args.middle == "cor2":
        try:
            middle = ordinary_middle_row(cfg)
        except ValueError as exc:
            raise ConfigError("middle-unavailable", str(exc)) from exc
        table = ConeSpectrumTable(table.d, table.dprime, table.chi_u,
                                  (table.rows[0], tuple(middle), table.rows[2]))
    sys.stdout.write(emit_table(table, args.format))
    return OK


def cmd_reduced(args) -> int:
    binding = _parse_params(args.param)
    cfg = _read_config(args.path, binding)
    if not isinstance(cfg, ReducedConeConfig):
        raise ConfigError("mode-conflict",
                          "reduced expects a config with a 'reduced' header")
    base = reduced_cone_spectrum(cfg)
    print(_render_spectrum(base))
    if cfg.power > 1:
        print(f"power m={cfg.power}: "
              f"{_render_spectrum(thickened_spectrum(base, cfg))}")
    if cfg.ambient_dim == 2:
        table = local_data_table(cfg.degree, cfg.local_spectra)
        sys.stdout.write(emit_table(table, "rows"))
    return OK


def cmd_verify(args) -> int:
    report = verify(_read_config(args.path, _parse_params(args.param)))
    sys.stdout.write(report.render(("pass", "FAIL"), "({})"))
    return OK if report.passed else MISMATCH


def cmd_oracle(args) -> int:
    binding = _parse_params(args.param)
    cfg = _read_config(args.path, binding)
    if not isinstance(cfg, CurveConfig):
        raise ConfigError("mode-conflict", "oracle expects a curve config")
    if not has_reference(cfg):
        print("# config is not ordinary-with-incidence; running the "
              "engine-side checks (column sums, local-spectra table, "
              "brute-force counters)")
    report = cross_check(cfg)
    sys.stdout.write(report.render())
    return OK if report.passed else MISMATCH


@dataclass(frozen=True)
class ScanSpec:
    """A parameter sweep: template text, inclusive ranges, fixed bindings,
    required predicates, and the grid-size cap."""

    template: str
    ranges: dict
    fixed: dict
    predicates: tuple[str, ...] = ()
    cap: int = 10 ** 6


def run_scan(spec: ScanSpec, out) -> int:
    for name in spec.predicates:
        if name not in PREDICATES:
            raise ConfigError("predicate-unknown",
                              f"unknown predicate {name!r}; choose from "
                              f"{', '.join(PREDICATES)}")
    names = sorted(spec.ranges)
    spans = []
    for name in names:
        lo, hi = spec.ranges[name]
        spans.append(range(lo, hi + 1))
    size = 1
    for span in spans:
        size *= len(span)
    if size > spec.cap:
        raise ConfigError("grid-too-large",
                          f"grid has {size} points, cap is {spec.cap}")

    vectors = None
    if looks_like_vectors(spec.template):
        vectors = parse_vector_text(spec.template)

    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(names + ["d", "dprime", "n_3_over_d", "chi_u", "flags"])
    for combo in itertools.product(*spans):
        binding = dict(spec.fixed)
        binding.update(zip(names, combo))
        try:
            if vectors is not None:
                cfg = parse_singular(vectors, binding)
            else:
                cfg = parse_native(spec.template, binding)
            if not isinstance(cfg, CurveConfig):
                raise ConfigError("mode-conflict",
                                  "scan templates must describe curve configs")
            table = curve_table(cfg)
        except ConfigError as exc:
            exc_point = ", ".join(f"{n}={v}" for n, v in zip(names, combo))
            raise ConfigError(exc.code, f"at grid point ({exc_point}): {exc}") \
                from exc
        n3d = table.rows[0][2] if table.d >= 3 else None
        values = {"n3d_zero": (None if n3d is None else n3d == 0),
                  "chi_nonzero": table.chi_u != 0}
        satisfied = [p for p in spec.predicates if values[p] is True]
        undefined = [p for p in spec.predicates if values[p] is None]
        if spec.predicates and not undefined and len(satisfied) != len(spec.predicates):
            continue
        flags = "n/a" if undefined else ";".join(satisfied)
        writer.writerow(list(combo)
                        + [table.d, table.dprime,
                           "n/a" if n3d is None else n3d,
                           table.chi_u, flags])
    return OK


def cmd_scan(args) -> int:
    fixed = _parse_params(args.param)
    ranges = _parse_ranges(args.range)
    with open(args.path, "r", encoding="utf-8") as handle:
        template = handle.read()
    spec = ScanSpec(template=template, ranges=ranges, fixed=fixed,
                    predicates=tuple(args.predicate or ()), cap=args.cap)
    return run_scan(spec, sys.stdout)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conespec",
        description="Exact spectrum tables for cones over plane curves and "
                    "projective hypersurfaces with isolated reduced "
                    "singularities.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(p):
        p.add_argument("--param", action="append", metavar="NAME=VALUE",
                       help="bind a template parameter (repeatable)")

    p = sub.add_parser("compute", help="spectrum table of a curve config")
    p.add_argument("path")
    p.add_argument("--middle", choices=("thm2", "cor2"), default="thm2",
                   help="middle-row route: Euler balance (thm2) or incidence "
                        "data (cor2)")
    p.add_argument("--format", choices=("rows", "csv"), default="rows")
    add_params(p)
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("reduced", help="reduced-cone spectrum and table")
    p.add_argument("path")
    add_params(p)
    p.set_defaults(func=cmd_reduced)

    p = sub.add_parser("verify", help="run the applicable invariants")
    p.add_argument("path")
    add_params(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="differential report against the "
                                      "independent reference")
    p.add_argument("path")
    add_params(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("scan", help="sweep template parameters to CSV")
    p.add_argument("path")
    p.add_argument("--range", action="append", metavar="NAME=LO..HI",
                   help="inclusive parameter range (repeatable)")
    p.add_argument("--predicate", action="append", choices=PREDICATES,
                   help="keep only grid points satisfying every predicate")
    p.add_argument("--cap", type=int, default=10 ** 6,
                   help="largest allowed grid size")
    add_params(p)
    p.set_defaults(func=cmd_scan)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # ConfigError renders with its code and line number
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR


def console() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
