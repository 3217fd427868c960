"""Command-line interface.

Commands: ``compute`` (spectrum table of a curve config), ``reduced``
(reduced-cone spectrum, its power transform, and the n=2 table),
``verify`` (invariant checks), ``oracle`` (differential report against the
independent reference), ``scan`` (parameter grids to CSV). The checks of
``verify`` and ``oracle`` are defined in `conespec.oracle`.

Exit codes: 0 success, 1 verification or oracle mismatch, 2 input error.

`main(argv)` may be called many times in one process (see `build_parser`).
`conespec.oracle` is imported by ``verify`` and ``oracle`` on their first
call, not at import, so the other commands never load the checker.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import sys

from ._record import Record
from .engine import (ConeSpectrumTable, CurveConfig, ReducedConeConfig,
                     _power_row, _spectrum_table, curve_table,
                     ordinary_middle_row, reduced_cone_spectrum, scan_values)
from .formats import (ConfigError, _ascii_int, _lex_expr, config_template,
                      emit_table)
from .spectrum import render_row

OK, MISMATCH, INPUT_ERROR = 0, 1, 2

PREDICATES = ("n3d_zero", "chi_nonzero")

DEFAULT_CAP = 10 ** 6


def _read_text(path: str) -> str:
    """The text of the file at `path` in text mode, less a UTF-8 byte-order
    mark; text that is not UTF-8 is an input-encoding error."""
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ConfigError("input-encoding",
                          f"{path!r} is not UTF-8 text: byte "
                          f"0x{exc.object[exc.start]:02x}, {exc.reason}") \
            from exc


def _read_config(args, kind=None, conflict: str = ""):
    """The config at args.path under the --param bindings; with `kind`, any
    other type of config is a mode-conflict error saying `conflict`."""
    binding = _parse_params(args.param)
    cfg = config_template(_read_text(args.path))(binding)
    if kind is not None and not isinstance(cfg, kind):
        raise ConfigError("mode-conflict", conflict)
    return cfg


def _bind_once(bound: dict, name: str, value, flag: str, code: str) -> None:
    """bound[name] = value, rejecting a name that `flag` gave before."""
    if name in bound:
        raise ConfigError(code, f"{flag} gives {name!r} more than once")
    bound[name] = value


def _split_name(item: str, flag: str, code: str) -> tuple[str, str]:
    """NAME and the rest of `item`, written NAME=rest. NAME must be what the
    template lexer reads as exactly one name token, so '', 'div', 'a b' and
    '1x' are refused: a template could never use them."""
    name, _, rest = item.partition("=")
    try:
        named = _lex_expr(name) == [("name", name)]
    except ConfigError:
        named = False
    if not named:
        raise ConfigError(code, f"{flag} name {name!r} is not a parameter name")
    return name, rest


def _parse_params(items) -> dict:
    binding = {}
    for item in items or ():
        if "=" not in item:
            raise ConfigError("param-syntax",
                              f"--param expects NAME=VALUE, got {item!r}")
        name, value = _split_name(item, "--param", "param-syntax")
        try:
            value = _ascii_int(value)
        except ValueError as exc:
            raise ConfigError("param-syntax",
                              f"--param value for {name!r} must be an integer") \
                from exc
        _bind_once(binding, name, value, "--param", "param-syntax")
    return binding


def _parse_ranges(items) -> dict:
    ranges = {}
    for item in items or ():
        if "=" not in item or ".." not in item:
            raise ConfigError("range-syntax",
                              f"--range expects NAME=LO..HI, got {item!r}")
        name, span = _split_name(item, "--range", "range-syntax")
        lo_text, _, hi_text = span.partition("..")
        try:
            lo, hi = _ascii_int(lo_text), _ascii_int(hi_text)
        except ValueError as exc:
            raise ConfigError("range-syntax",
                              f"--range bounds for {name!r} must be integers") \
                from exc
        _bind_once(ranges, name, (lo, hi), "--range", "range-syntax")
    return ranges


def cmd_compute(args) -> int:
    cfg = _read_config(args, CurveConfig,
                       "compute expects a curve config; use 'reduced' for "
                       "reduced-cone inputs")
    table = curve_table(cfg)
    if args.middle == "cor2":
        try:
            middle = ordinary_middle_row(cfg, table)
        except ValueError as exc:
            raise ConfigError("middle-unavailable", str(exc)) from exc
        table = ConeSpectrumTable(table.d, table.dprime, table.chi_u,
                                  (table.rows[0], tuple(middle), table.rows[2]))
    sys.stdout.write(emit_table(table, args.format))
    return OK


def cmd_reduced(args) -> int:
    cfg = _read_config(args, ReducedConeConfig,
                       "reduced expects a config with a 'reduced' header")
    base = reduced_cone_spectrum(cfg)
    print(base.render() or "(empty)")
    if cfg.power > 1:
        # never "(empty)": the base has no exponent n + 1, so the cells at
        # i = d', p = n hold the correction (-1)^n alone, m - 1 >= 1 of them
        row = _power_row(base, cfg)
        print(f"power m={cfg.power}: {render_row(row, cfg.power * cfg.degree)}")
    if cfg.ambient_dim == 2:
        sys.stdout.write(emit_table(_spectrum_table(cfg, base), "rows"))
    return OK


def cmd_verify(args) -> int:
    from .oracle import verify
    report = verify(_read_config(args))
    sys.stdout.write(report.render(("pass", "FAIL"), "({})"))
    return OK if report.passed else MISMATCH


def cmd_oracle(args) -> int:
    from .oracle import cross_check
    report = cross_check(_read_config(args, CurveConfig,
                                      "oracle expects a curve config"))
    sys.stdout.write(report.render())
    return OK if report.passed else MISMATCH


class ScanSpec(Record):
    """A parameter sweep: template text, inclusive ranges, fixed bindings,
    required predicates, and the grid-size cap."""

    __slots__ = ("template", "ranges", "fixed", "predicates", "cap")

    def __init__(self, template: str, ranges: dict, fixed: dict,
                 predicates: tuple[str, ...] = (), cap: int = DEFAULT_CAP):
        object.__setattr__(self, "template", template)
        object.__setattr__(self, "ranges", ranges)
        object.__setattr__(self, "fixed", fixed)
        object.__setattr__(self, "predicates", predicates)
        object.__setattr__(self, "cap", cap)


def run_scan(spec: ScanSpec, out) -> int:
    """Write the CSV of `spec` to `out`: per grid point the bindings, d, d',
    n[3/d] and chi(U) from `scan_values`, which computes one cell and not
    the table, so a point's cost does not grow with d; the points share
    their lattice rows through one mapping that lives for this call only.
    A point is its values set in the one binding of the scan, the template
    evaluated at it, one `scan_values` call and one CSV row written by one
    ``%`` over the scan's row template of ``%s`` fields: a name is one name
    token, a flag a predicate name and every other field an int or
    ``n/a``, so no field needs CSV quoting. The predicates are evaluated
    only when some are given. An input error names the grid point and keeps
    its code and line. A name may be fixed or ranged, not both. A repeated
    predicate counts once, in the order it was first given."""
    predicates = tuple(dict.fromkeys(spec.predicates))
    for name in predicates:
        if name not in PREDICATES:
            raise ConfigError("predicate-unknown",
                              f"unknown predicate {name!r}; choose from "
                              f"{', '.join(PREDICATES)}")
    both = sorted(set(spec.fixed) & set(spec.ranges))
    if both:
        raise ConfigError("range-syntax",
                          f"{both[0]!r} is given both a value and a range")
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

    template = config_template(spec.template)
    row = "%s," * (len(names) + 4) + "%s\n"
    out.write(row % (*names, "d", "dprime", "n_3_over_d", "chi_u", "flags"))
    lattice: dict = {}
    binding = dict(spec.fixed)
    for combo in itertools.product(*spans):
        binding.update(zip(names, combo))
        try:
            cfg = template(binding)
            if not isinstance(cfg, CurveConfig):
                raise ConfigError("mode-conflict",
                                  "scan templates must describe curve configs")
            d, dprime, n3d, chi_u = scan_values(cfg, lattice)
        except ConfigError as exc:
            exc_point = ", ".join(f"{n}={v}" for n, v in zip(names, combo))
            raise ConfigError(exc.code,
                              f"at grid point ({exc_point}): {exc.args[0]}",
                              exc.line) from exc
        flags = ""
        if predicates:
            values = {"n3d_zero": (None if n3d is None else n3d == 0),
                      "chi_nonzero": chi_u != 0}
            satisfied = [p for p in predicates if values[p] is True]
            undefined = [p for p in predicates if values[p] is None]
            if not undefined and len(satisfied) != len(predicates):
                continue
            flags = "n/a" if undefined else ";".join(satisfied)
        out.write(row % (*combo, d, dprime, "n/a" if n3d is None else n3d,
                         chi_u, flags))
    return OK


def cmd_scan(args) -> int:
    fixed = _parse_params(args.param)
    ranges = _parse_ranges(args.range)
    spec = ScanSpec(template=_read_text(args.path), ranges=ranges, fixed=fixed,
                    predicates=tuple(args.predicate or ()), cap=args.cap)
    return run_scan(spec, sys.stdout)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built on the first call and returned to
    every later one. It is shared, so callers only parse with it: each
    `parse_args` starts from a fresh namespace, and the `append` options
    default to None, so no call leaves state for the next."""
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

    for name, func, text in (
            ("reduced", cmd_reduced, "reduced-cone spectrum and table"),
            ("verify", cmd_verify, "run the applicable invariants"),
            ("oracle", cmd_oracle,
             "differential report against the independent reference")):
        p = sub.add_parser(name, help=text)
        p.add_argument("path")
        add_params(p)
        p.set_defaults(func=func)

    p = sub.add_parser("scan", help="sweep template parameters to CSV")
    p.add_argument("path")
    p.add_argument("--range", action="append", metavar="NAME=LO..HI",
                   help="inclusive parameter range (repeatable)")
    p.add_argument("--predicate", action="append", choices=PREDICATES,
                   help="keep only grid points satisfying every predicate")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP,
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
