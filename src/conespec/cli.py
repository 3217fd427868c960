"""Command-line interface.

Commands: ``compute`` (spectrum table of a curve config), ``reduced``
(reduced-cone spectrum, its power transform, and the n=2 table),
``verify`` (invariant checks), ``oracle`` (differential report against the
independent reference), ``scan`` (parameter grids to CSV). The checks of
``verify`` and ``oracle`` are defined in `conespec.oracle`.

Exit codes: 0 success, 1 verification or oracle mismatch, 2 input error.

`main(argv)` may be called many times in one process (see `build_parser`).
It reads a well-formed argv itself (`_fast_args`) and hands any other, and
every ``-h``, to the `argparse` parser, so help, usage and error texts are
argparse's and `argparse` is loaded only when one of them may be needed.
`conespec.oracle` is imported by ``verify`` and ``oracle`` on their first
call, not at import, so the other commands never load the checker.
"""

from __future__ import annotations

import itertools
import sys
from types import SimpleNamespace

from ._record import Record
from .engine import (ConeSpectrumTable, CurveConfig, ReducedConeConfig,
                     _power_blocks, _spectrum_table, curve_table,
                     ordinary_middle_row, reduced_cone_spectrum, scan_values)
from .formats import (ConfigError, _ascii_int, _lex_expr, config_template,
                      emit_table, scan_template)
from .spectrum import render_blocks

OK, MISMATCH, INPUT_ERROR = 0, 1, 2

PREDICATES = ("n3d_zero", "chi_nonzero")

DEFAULT_CAP = 10 ** 6


def _read_text(path: str) -> str:
    """The text of the file at `path`, less a UTF-8 byte-order mark, with
    its line ends read as text mode reads them (``\\r\\n`` and ``\\r`` are
    ``\\n``). The bytes are decoded in one piece, so a file that is only
    the start of a byte-order mark is not UTF-8 either. The file is read
    unbuffered, in one `readall`: a buffered reader would add an ``isatty``
    call and a copy. Text that is not UTF-8 is an input-encoding error, and
    a file that cannot be opened (a directory fails at `open`) or read an
    input-unreadable one."""
    try:
        with open(path, "rb", buffering=0) as handle:
            data = handle.readall()
        return (data.decode("utf-8-sig").replace("\r\n", "\n")
                .replace("\r", "\n"))
    except UnicodeDecodeError as exc:
        raise ConfigError("input-encoding",
                          f"{path!r} is not UTF-8 text: byte "
                          f"0x{exc.object[exc.start]:02x}, {exc.reason}") \
            from exc
    except OSError as exc:
        raise ConfigError("input-unreadable", f"cannot read {path!r}: "
                          f"{exc.strerror or exc}") from exc


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
                                  (table.rows[0], middle, table.rows[2]))
    sys.stdout.write(emit_table(table, args.format))
    return OK


def cmd_reduced(args) -> int:
    cfg = _read_config(args, ReducedConeConfig,
                       "reduced expects a config with a 'reduced' header")
    base = reduced_cone_spectrum(cfg)
    print(base.render() or "(empty)")
    if cfg.power > 1:
        # written from the blocks, with no dense row; never "(empty)": the
        # base has no exponent n + 1, so block n's last value is the
        # correction (-1)^n alone, and it is written m - 1 >= 1 times
        blocks = _power_blocks(base, cfg)
        print(f"power m={cfg.power}: {render_blocks(blocks, cfg.power)}")
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
    A point is its values set in the one binding of the scan, the curve's
    `CurveConfig._derived` tuple at it (`formats.scan_template`), one
    `scan_values` call and one CSV row written by one ``%`` over the scan's
    row template of ``%s`` fields: a name is one name token, a flag a
    predicate name and every other field an int or ``n/a``, so no field
    needs CSV quoting. A vector template reads that tuple off its point
    plan, compiled before the first point, and builds no config; it builds
    one, as ``compute`` does, only at a point whose values the plan
    declines, so that point's row or error is the built config's. A native
    template builds a config at every point. The predicates are read off
    n[3/d] and chi(U) directly: a point whose n[3/d] is ``n/a`` while
    ``n3d_zero`` is asked for is kept with the flags ``n/a``, any other
    point only when every predicate holds, flagged with them all. An input
    error names the grid point and keeps its code and line. A name may be
    fixed or ranged, not both. A repeated predicate counts once, in the
    order it was first given."""
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

    derived_at = scan_template(spec.template)
    row = "%s," * (len(names) + 4) + "%s\n"
    out.write(row % (*names, "d", "dprime", "n_3_over_d", "chi_u", "flags"))
    zero, nonzero = "n3d_zero" in predicates, "chi_nonzero" in predicates
    kept = ";".join(predicates)
    lattice: dict = {}
    binding = dict(spec.fixed)
    for combo in itertools.product(*spans):
        binding.update(zip(names, combo))
        try:
            d, dprime, n3d, chi_u = scan_values(derived_at(binding), lattice)
        except ConfigError as exc:
            exc_point = ", ".join(f"{n}={v}" for n, v in zip(names, combo))
            raise ConfigError(exc.code,
                              f"at grid point ({exc_point}): {exc.args[0]}",
                              exc.line) from exc
        flags = kept
        if zero and n3d is None:
            flags = "n/a"
        elif zero and n3d or nonzero and not chi_u:
            continue
        out.write(row % (*combo, d, dprime, "n/a" if n3d is None else n3d,
                         chi_u, flags))
    return OK


def cmd_scan(args) -> int:
    fixed = _parse_params(args.param)
    ranges = _parse_ranges(args.range)
    spec = ScanSpec(template=_read_text(args.path), ranges=ranges, fixed=fixed,
                    predicates=tuple(args.predicate or ()), cap=args.cap)
    return run_scan(spec, sys.stdout)


# each command's function, help and options, after its one positional
# ``path``; `build_parser` and `_fast_args` both read this table
_PARAM = ("--param", {"action": "append", "metavar": "NAME=VALUE",
                      "help": "bind a template parameter (repeatable)"})
COMMANDS = {
    "compute": (cmd_compute, "spectrum table of a curve config", (
        ("--middle", {"choices": ("thm2", "cor2"), "default": "thm2",
                      "help": "middle-row route: Euler balance (thm2) or "
                              "incidence data (cor2)"}),
        ("--format", {"choices": ("rows", "csv"), "default": "rows"}),
        _PARAM)),
    "reduced": (cmd_reduced, "reduced-cone spectrum and table", (_PARAM,)),
    "verify": (cmd_verify, "run the applicable invariants", (_PARAM,)),
    "oracle": (cmd_oracle,
               "differential report against the independent reference",
               (_PARAM,)),
    "scan": (cmd_scan, "sweep template parameters to CSV", (
        ("--range", {"action": "append", "metavar": "NAME=LO..HI",
                     "help": "inclusive parameter range (repeatable)"}),
        ("--predicate", {"action": "append", "choices": PREDICATES,
                         "help": "keep only grid points satisfying every "
                                 "predicate"}),
        ("--cap", {"type": int, "default": DEFAULT_CAP,
                   "help": "largest allowed grid size"}),
        _PARAM)),
}


_parser = None      # what `build_parser` built


def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built on the first call and returned to
    every later one. It is shared, so callers only parse with it: each
    `parse_args` starts from a fresh namespace, and the `append` options
    default to None, so no call leaves state for the next."""
    global _parser
    if _parser is not None:
        return _parser
    import argparse
    parser = argparse.ArgumentParser(
        prog="conespec",
        description="Exact spectrum tables for cones over plane curves and "
                    "projective hypersurfaces with isolated reduced "
                    "singularities.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, text, options) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("path")
        for flag, spec in options:
            p.add_argument(flag, **spec)
        p.set_defaults(func=func)
    _parser = parser
    return parser


def _fast_args(argv) -> SimpleNamespace | None:
    """The fields `build_parser().parse_args(argv)` would return, read
    directly from a well-formed argv: a command of `COMMANDS`, then its one
    path and its options, each spelled out in full and followed by its
    value as a token of its own, in any order. A value must be one of the
    option's choices, and ``--cap`` one that int() reads; a single-valued
    option comes at most once. None, so that argparse reads the argv and
    writes its usage, help or error, when the command or an option is
    unknown or abbreviated, a token is ``--opt=value``, ``-h`` or ``--``,
    a path or a value starts with '-', or the path is missing or
    repeated."""
    if not argv or argv[0] not in COMMANDS:
        return None
    func, _, options = COMMANDS[argv[0]]
    options = dict(options)
    args = {flag[2:]: spec.get("default") for flag, spec in options.items()}
    args.update(command=argv[0], path=None, func=func)
    tokens = iter(argv[1:])
    for token in tokens:
        if token[:1] != "-":
            if args["path"] is not None:
                return None
            args["path"] = token
            continue
        spec = options.get(token)
        value = next(tokens, "-")
        if spec is None or value[:1] == "-":
            return None
        if "type" in spec:
            try:
                value = spec["type"](value)
            except ValueError:
                return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        if "action" in spec:
            args[token[2:]] = (args[token[2:]] or []) + [value]
        else:
            del options[token]      # so that a second one declines
            args[token[2:]] = value
    return None if args["path"] is None else SimpleNamespace(**args)


def main(argv=None) -> int:
    """Run one command and return its exit code. A well-formed argv is read
    by `_fast_args`, which loads no `argparse`; every other argv, and every
    ``-h``, goes unchanged to `build_parser`, so usage, help and error
    texts are argparse's. `argv` None reads ``sys.argv[1:]``."""
    if argv is None:
        argv = sys.argv[1:]
    args = _fast_args(argv) or build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # ConfigError renders with its code and line number
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR


def console() -> None:
    raise SystemExit(main())
