"""Input and output formats.

Two input dialects are supported:

* the native line-oriented config format (components, weighted points,
  nodes, incidence, reduced-cone headers), and
* the four-vector compatibility format ``GlCmp=...; Si=...; OD=...; LG=...``
  whose entries are small arithmetic templates over named parameters, with
  negative entries acting as group separators.

Integer slots in both dialects accept template expressions (literals are the
degenerate case), evaluated against an externally supplied parameter binding.
The exceptions are native ``incidence`` and ``incidence-matrix`` entries,
which are literal integers, and native ``localspectrum`` entries, which are
literal fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Union

from .engine import (ConeSpectrumTable, CurveConfig, GlobalComponent,
                     Incidence, ReducedConeConfig)
from .local import (LocalBranch, SingularPoint, WeightSystem,
                    validate_branches, weighted_spectrum)
from .spectrum import SpectrumVector


class ConfigError(ValueError):
    """Input rejection with a machine-readable code and source location."""

    def __init__(self, code: str, message: str, line: Optional[int] = None):
        self.code = code
        self.line = line
        super().__init__(message)

    def __str__(self):
        where = f"line {self.line}: " if self.line is not None else ""
        return f"{where}[{self.code}] {super().__str__()}"


# ---------------------------------------------------------------------------
# template expressions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: int


@dataclass(frozen=True)
class Name:
    ident: str


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * div
    left: "Expr"
    right: "Expr"


Expr = Union[Num, Name, Neg, BinOp]


def _lex_expr(text: str) -> list[tuple[str, object]]:
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch.isdigit():
            start = pos
            while pos < n and text[pos].isdigit():
                pos += 1
            tokens.append(("int", int(text[start:pos])))
            continue
        if ch.isalpha() or ch == "_":
            start = pos
            while pos < n and (text[pos].isalnum() or text[pos] == "_"):
                pos += 1
            word = text[start:pos]
            tokens.append(("div", None) if word == "div" else ("name", word))
            continue
        if ch in "+-*()":
            tokens.append((ch, None))
            pos += 1
            continue
        raise ConfigError("expr-char", f"unexpected character {ch!r} in "
                          f"expression {text!r}")
    return tokens


class _ExprParser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _lex_expr(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> Expr:
        expr = self.sum()
        if self.pos != len(self.tokens):
            raise ConfigError("expr-trailing",
                              f"trailing input in expression {self.text!r}")
        return expr

    def sum(self) -> Expr:
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()[0]
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.unary()
        while self.peek() in ("*", "div"):
            op = self.take()[0]
            node = BinOp(op, node, self.unary())
        return node

    def unary(self) -> Expr:
        if self.peek() == "-":
            self.take()
            return Neg(self.unary())
        return self.atom()

    def atom(self) -> Expr:
        kind = self.peek()
        if kind == "int":
            return Num(self.take()[1])
        if kind == "name":
            return Name(self.take()[1])
        if kind == "(":
            self.take()
            node = self.sum()
            if self.peek() != ")":
                raise ConfigError("expr-paren",
                                  f"unbalanced parentheses in {self.text!r}")
            self.take()
            return node
        raise ConfigError("expr-syntax",
                          f"malformed expression {self.text!r}")


def parse_expr(text: str) -> Expr:
    """Parse an arithmetic template; operators + - * and floor-division
    ``div``, with unary minus binding tightest."""
    if not text.strip():
        raise ConfigError("expr-empty", "empty expression")
    return _ExprParser(text).parse()


def eval_expr(expr: Expr, binding: Mapping[str, int]) -> int:
    """Evaluate a template to an exact integer. ``div`` is defined only for
    a nonnegative dividend and a positive divisor."""
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Name):
        if expr.ident not in binding:
            raise ConfigError("unbound-name",
                              f"parameter {expr.ident!r} is not bound")
        return int(binding[expr.ident])
    if isinstance(expr, Neg):
        return -eval_expr(expr.arg, binding)
    if isinstance(expr, BinOp):
        left = eval_expr(expr.left, binding)
        right = eval_expr(expr.right, binding)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        if expr.op == "div":
            if right == 0:
                raise ConfigError("div-zero", "division by zero in template")
            if right < 0:
                raise ConfigError("div-domain",
                                  "div needs a positive divisor")
            if left < 0:
                raise ConfigError("div-domain",
                                  "div needs a nonnegative dividend")
            return left // right
    raise TypeError(f"not an expression node: {expr!r}")


def render_expr(expr: Expr) -> str:
    """Fully parenthesized text form; parses back to an equivalent tree."""
    if isinstance(expr, Num):
        return str(expr.value)
    if isinstance(expr, Name):
        return expr.ident
    if isinstance(expr, Neg):
        return f"(-{render_expr(expr.arg)})"
    if isinstance(expr, BinOp):
        op = f" {expr.op} " if expr.op == "div" else expr.op
        return f"({render_expr(expr.left)}{op}{render_expr(expr.right)})"
    raise TypeError(f"not an expression node: {expr!r}")


# ---------------------------------------------------------------------------
# four-vector compatibility format
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SingularVectors:
    """The four template vectors: global components, singular points,
    aggregated double points, incidence values."""

    glcmp: tuple[Expr, ...]
    si: tuple[Expr, ...]
    od: Expr
    lg: tuple[Expr, ...]


def parse_vector_text(text: str) -> SingularVectors:
    """Parse ``GlCmp=...; Si=...; OD=...; LG=...`` (order free, '#' comments)."""
    stripped = []
    for line in text.splitlines():
        if "#" in line:
            line = line[: line.index("#")]
        stripped.append(line)
    body = " ".join(stripped)
    fields: dict[str, str] = {}
    for chunk in body.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise ConfigError("vector-syntax",
                              f"expected Key=entries, got {chunk!r}")
        key, _, value = chunk.partition("=")
        key = key.strip()
        if key not in ("GlCmp", "Si", "OD", "LG"):
            raise ConfigError("vector-key", f"unknown vector {key!r}")
        if key in fields:
            raise ConfigError("vector-key", f"vector {key!r} given twice")
        fields[key] = value
    for key in ("GlCmp", "Si", "OD", "LG"):
        if key not in fields:
            raise ConfigError("vector-key", f"missing vector {key!r}")

    def entries(raw: str, key: str) -> tuple[Expr, ...]:
        raw = raw.strip()
        if not raw:
            return ()
        out = []
        for piece in raw.split(","):
            if not piece.strip():
                raise ConfigError("vector-syntax",
                                  f"empty entry in {key}={raw!r}")
            out.append(parse_expr(piece))
        return tuple(out)

    od_entries = entries(fields["OD"], "OD")
    if len(od_entries) != 1:
        raise ConfigError("vector-syntax", "OD must be a single expression")
    return SingularVectors(glcmp=entries(fields["GlCmp"], "GlCmp"),
                           si=entries(fields["Si"], "Si"),
                           od=od_entries[0],
                           lg=entries(fields["LG"], "LG"))


def parse_singular(vectors: SingularVectors,
                   binding: Mapping[str, int]) -> CurveConfig:
    """Expand the four vectors into a curve configuration.

    Negative entries are group separators carrying repeat counts. Points in
    this dialect are always ordinary (weights (1,1), branch degrees 1); the
    point multiplicity lists may be shorter than the branch count and are
    padded with 1.
    """
    glcmp = [eval_expr(e, binding) for e in vectors.glcmp]
    si = [eval_expr(e, binding) for e in vectors.si]
    od = eval_expr(vectors.od, binding)
    lg = [eval_expr(e, binding) for e in vectors.lg]

    if not glcmp or len(glcmp) % 3 != 0:
        raise ConfigError("separator",
                          "GlCmp must consist of (-count, degree, mult) triples")
    components = []
    for k in range(0, len(glcmp), 3):
        sep, degree, mult = glcmp[k: k + 3]
        if sep > 0:
            raise ConfigError("separator",
                              f"GlCmp entry {k + 1} should be a negated count,"
                              f" got {sep}")
        if sep == 0:
            continue
        if degree < 1 or mult < 1:
            raise ConfigError("value-nonpositive",
                              f"component degree/multiplicity must be positive,"
                              f" got ({degree}, {mult})")
        components.extend([GlobalComponent(degree, mult)] * (-sep))

    points = []
    pos = 0
    while pos < len(si):
        sep = si[pos]
        if sep > 0:
            raise ConfigError("separator",
                              f"Si entry {pos + 1} should be a negated count,"
                              f" got {sep}")
        if pos + 1 >= len(si):
            raise ConfigError("separator", "Si ends before a branch count")
        branch_count = si[pos + 1]
        pos += 2
        mults = []
        while pos < len(si) and si[pos] > 0:
            mults.append(si[pos])
            pos += 1
        if sep == 0:
            continue
        if branch_count < 1:
            raise ConfigError("value-nonpositive",
                              f"branch count must be positive, got {branch_count}")
        if len(mults) > branch_count:
            raise ConfigError("si-overflow",
                              f"point lists {len(mults)} multiplicities for "
                              f"{branch_count} branches")
        mults += [1] * (branch_count - len(mults))
        point = SingularPoint((1, 1),
                              tuple(LocalBranch(1, m) for m in mults))
        points.extend([point] * (-sep))

    if od < 0:
        raise ConfigError("value-nonpositive",
                          f"aggregated double point count must be >= 0, got {od}")

    pairs = []
    if lg != [0]:
        if len(lg) % 2 != 0:
            raise ConfigError("separator",
                              "LG must be (-count, value) pairs or the single "
                              "entry 0")
        for k in range(0, len(lg), 2):
            sep, value = lg[k: k + 2]
            if sep > 0:
                raise ConfigError("separator",
                                  f"LG entry {k + 1} should be a negated count,"
                                  f" got {sep}")
            if sep == 0:
                continue
            if value < 1:
                raise ConfigError("value-nonpositive",
                                  f"incidence value must be positive, got {value}")
            pairs.append((-sep, value))

    try:
        return CurveConfig(components=tuple(components), points=tuple(points),
                           nodes=od, incidence=Incidence.from_pairs(pairs))
    except ValueError as exc:
        raise ConfigError("config-invalid", str(exc)) from exc


# ---------------------------------------------------------------------------
# native line format
# ---------------------------------------------------------------------------

def _eval_int(text: str, binding: Mapping[str, int], line: int) -> int:
    try:
        return eval_expr(parse_expr(text), binding)
    except ConfigError as exc:
        if exc.line is None:
            exc.line = line
        raise


def _split_keyvals(parts: list[str], line: int) -> dict[str, str]:
    out = {}
    for part in parts:
        if "=" not in part:
            raise ConfigError("key-syntax",
                              f"expected key=value, got {part!r}", line)
        key, _, value = part.partition("=")
        if key in out:
            raise ConfigError("key-syntax", f"duplicate key {key!r}", line)
        out[key] = value
    return out


def _require_keys(kv: dict, allowed: set, needed: set, line: int):
    for key in kv:
        if key not in allowed:
            raise ConfigError("key-syntax", f"unknown key {key!r}", line)
    for key in needed:
        if key not in kv:
            raise ConfigError("key-syntax", f"missing key {key!r}", line)


def _parse_branches(text: str, binding, line: int) -> tuple[LocalBranch, ...]:
    branches = []
    pos = 0
    while pos < len(text):
        if text[pos] != "(":
            raise ConfigError("branch-syntax",
                              "branches must look like (deg:mult)(deg:mult)...",
                              line)
        depth = 1
        colon = None
        end = pos + 1
        while end < len(text) and depth:
            ch = text[end]
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == ":" and depth == 1:
                colon = end
            end += 1
        if depth or colon is None:
            raise ConfigError("branch-syntax",
                              f"malformed branch list {text!r}", line)
        deg = _eval_int(text[pos + 1: colon], binding, line)
        mult = _eval_int(text[colon + 1: end - 1], binding, line)
        if deg < 1 or mult < 1:
            raise ConfigError("value-nonpositive",
                              "branch degree and multiplicity must be positive",
                              line)
        branches.append(LocalBranch(deg, mult))
        pos = end
    if not branches:
        raise ConfigError("branch-syntax", "a point needs at least one branch",
                          line)
    return tuple(branches)


def _parse_fraction(text: str, line: int) -> Fraction:
    try:
        if "/" in text:
            num, _, den = text.partition("/")
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError("fraction-syntax",
                          f"bad fraction {text!r}", line) from exc


def _tokenize_line(line: str) -> list[str]:
    """Whitespace split, except that parenthesized groups stay together."""
    tokens = []
    current = []
    depth = 0
    for ch in line:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(0, depth - 1)
        if ch.isspace() and depth == 0:
            if current:
                tokens.append("".join(current))
                current = []
        else:
            current.append(ch)
    if current:
        tokens.append("".join(current))
    return tokens


def parse_native(text: str,
                 binding: Optional[Mapping[str, int]] = None
                 ) -> Union[CurveConfig, ReducedConeConfig]:
    """Parse the native config format.

    Returns a `ReducedConeConfig` when a ``reduced`` header line is present,
    otherwise a `CurveConfig`. All violations raise `ConfigError` with a line
    number and machine-readable code.
    """
    binding = binding or {}
    components: list[GlobalComponent] = []
    points: list[SingularPoint] = []
    nodes = 0
    incidence: Optional[Incidence] = None
    reduced_header = None
    spectra: list[SpectrumVector] = []
    saw_curve_keyword = False
    first_line: dict[str, int] = {}     # single-valued slot -> its line

    for lineno, raw in enumerate(text.splitlines(), start=1):
        if "#" in raw:
            raw = raw[: raw.index("#")]
        tokens = _tokenize_line(raw)
        if not tokens:
            continue
        keyword, args = tokens[0], tokens[1:]
        slot = "incidence" if keyword == "incidence-matrix" else keyword
        if slot in ("reduced", "nodes", "incidence"):
            if slot in first_line:
                raise ConfigError("key-syntax",
                                  f"{keyword!r} repeats line "
                                  f"{first_line[slot]}: {slot} may be given "
                                  "once", lineno)
            first_line[slot] = lineno

        if keyword == "ambient":
            if len(args) != 1:
                raise ConfigError("key-syntax", "ambient takes one value", lineno)
            value = _eval_int(args[0], binding, lineno)
            if value != 2:
                raise ConfigError("ambient-unsupported",
                                  "curve configs are planar (ambient 2); use a "
                                  "'reduced' header for other dimensions", lineno)
            saw_curve_keyword = True

        elif keyword == "component":
            kv = _split_keyvals(args, lineno)
            _require_keys(kv, {"degree", "mult", "count"}, {"degree", "mult"},
                          lineno)
            degree = _eval_int(kv["degree"], binding, lineno)
            mult = _eval_int(kv["mult"], binding, lineno)
            count = _eval_int(kv.get("count", "1"), binding, lineno)
            if count < 1:
                raise ConfigError("value-nonpositive",
                                  f"count must be positive, got {count}", lineno)
            if degree < 1 or mult < 1:
                raise ConfigError("value-nonpositive",
                                  "degree and mult must be positive", lineno)
            components.extend([GlobalComponent(degree, mult)] * count)
            saw_curve_keyword = True

        elif keyword == "point":
            kv = _split_keyvals(args, lineno)
            _require_keys(kv, {"weights", "branches", "count"},
                          {"weights", "branches"}, lineno)
            weight_parts = kv["weights"].split(",")
            if len(weight_parts) != 2:
                raise ConfigError("weights-syntax",
                                  "point weights must be w,w'", lineno)
            w = _eval_int(weight_parts[0], binding, lineno)
            wp = _eval_int(weight_parts[1], binding, lineno)
            branches = _parse_branches(kv["branches"], binding, lineno)
            count = _eval_int(kv.get("count", "1"), binding, lineno)
            if count < 1:
                raise ConfigError("value-nonpositive",
                                  f"count must be positive, got {count}", lineno)
            try:
                point = SingularPoint((w, wp), branches)
                if not validate_branches(point):
                    raise ConfigError(
                        "branch-degree",
                        f"branch degrees must lie in {{w, w', w*w'}} = "
                        f"{{{w}, {wp}, {w * wp}}}", lineno)
                point.milnor()
            except ConfigError:
                raise
            except ValueError as exc:
                raise ConfigError("point-invalid", str(exc), lineno) from exc
            points.extend([point] * count)
            saw_curve_keyword = True

        elif keyword == "nodes":
            if len(args) != 1:
                raise ConfigError("key-syntax", "nodes takes one value", lineno)
            nodes = _eval_int(args[0], binding, lineno)
            if nodes < 0:
                raise ConfigError("value-nonpositive",
                                  "node count must be >= 0", lineno)
            saw_curve_keyword = True

        elif keyword == "incidence":
            pairs = []
            for token in args:
                if "x" not in token:
                    raise ConfigError("incidence-syntax",
                                      f"expected COUNTxVALUE, got {token!r}",
                                      lineno)
                c_text, _, v_text = token.partition("x")
                try:
                    count, value = int(c_text), int(v_text)
                except ValueError as exc:
                    raise ConfigError("incidence-syntax",
                                      f"expected COUNTxVALUE, got {token!r}",
                                      lineno) from exc
                if count < 1 or value < 1:
                    raise ConfigError("value-nonpositive",
                                      "incidence counts and values must be "
                                      "positive", lineno)
                pairs.append((count, value))
            incidence = Incidence.from_pairs(pairs)
            saw_curve_keyword = True

        elif keyword == "incidence-matrix":
            rows: list[list[int]] = [[]]
            for token in args:
                if token == ";":
                    rows.append([])
                    continue
                parts = token.split(";")
                for idx, part in enumerate(parts):
                    if idx:
                        rows.append([])
                    if part:
                        try:
                            rows[-1].append(int(part))
                        except ValueError as exc:
                            raise ConfigError("incidence-syntax",
                                              f"bad matrix entry {part!r}",
                                              lineno) from exc
            rows = [r for r in rows if r]
            if not rows:
                raise ConfigError("incidence-syntax",
                                  "incidence-matrix needs at least one row",
                                  lineno)
            incidence = Incidence.from_matrix(rows)
            saw_curve_keyword = True

        elif keyword == "reduced":
            kv = _split_keyvals(args, lineno)
            _require_keys(kv, {"n", "degree", "power"}, {"n", "degree"}, lineno)
            reduced_header = (lineno,
                              _eval_int(kv["n"], binding, lineno),
                              _eval_int(kv["degree"], binding, lineno),
                              _eval_int(kv.get("power", "1"), binding, lineno))

        elif keyword == "localspectrum":
            if reduced_header is None:
                raise ConfigError("mode-conflict",
                                  "localspectrum needs a preceding 'reduced' "
                                  "header", lineno)
            entries = []
            for token in args:
                if ":" not in token:
                    raise ConfigError("spectrum-syntax",
                                      f"expected p/q:m, got {token!r}", lineno)
                e_text, _, m_text = token.rpartition(":")
                exponent = _parse_fraction(e_text, lineno)
                try:
                    mult = int(m_text)
                except ValueError as exc:
                    raise ConfigError("spectrum-syntax",
                                      f"bad multiplicity {m_text!r}",
                                      lineno) from exc
                entries.append((exponent, mult))
            if not entries:
                raise ConfigError("spectrum-syntax",
                                  "localspectrum needs at least one entry",
                                  lineno)
            try:
                spectra.append(SpectrumVector(entries,
                                              ambient_dim=reduced_header[1]))
            except ValueError as exc:
                raise ConfigError("config-invalid", str(exc), lineno) from exc

        elif keyword == "localwh":
            if reduced_header is None:
                raise ConfigError("mode-conflict",
                                  "localwh needs a preceding 'reduced' header",
                                  lineno)
            kv = _split_keyvals(args, lineno)
            _require_keys(kv, {"weights", "degree"}, {"weights", "degree"},
                          lineno)
            weight_parts = kv["weights"].split(",")
            weights = tuple(_eval_int(p, binding, lineno) for p in weight_parts)
            if len(weights) != reduced_header[1]:
                raise ConfigError("weights-syntax",
                                  f"localwh needs {reduced_header[1]} weights "
                                  "(one per variable)", lineno)
            degree = _eval_int(kv["degree"], binding, lineno)
            try:
                spectra.append(weighted_spectrum(WeightSystem(weights, degree)))
            except ValueError as exc:
                raise ConfigError("point-invalid", str(exc), lineno) from exc

        else:
            raise ConfigError("bad-keyword",
                              f"unknown keyword {keyword!r}", lineno)

    if reduced_header is not None:
        if saw_curve_keyword:
            raise ConfigError("mode-conflict",
                              "cannot mix curve lines with a 'reduced' header",
                              reduced_header[0])
        lineno, n, degree, power = reduced_header
        try:
            return ReducedConeConfig(ambient_dim=n, degree=degree,
                                     local_spectra=tuple(spectra), power=power)
        except ValueError as exc:
            raise ConfigError("config-invalid", str(exc), lineno) from exc

    if not components:
        raise ConfigError("config-invalid",
                          "config defines no components")
    try:
        return CurveConfig(components=tuple(components), points=tuple(points),
                           nodes=nodes, incidence=incidence)
    except ValueError as exc:
        raise ConfigError("config-invalid", str(exc)) from exc


def emit_native(cfg: Union[CurveConfig, ReducedConeConfig]) -> str:
    """Render a config back into native text; parsing the result reproduces
    the config exactly."""
    lines = []
    if isinstance(cfg, ReducedConeConfig):
        lines.append(f"reduced n={cfg.ambient_dim} degree={cfg.degree} "
                     f"power={cfg.power}")
        for spec in cfg.local_spectra:
            body = " ".join(f"{e}:{m}" for e, m in spec.items())
            lines.append(f"localspectrum {body}")
        return "\n".join(lines) + "\n"
    lines.append("ambient 2")
    for comp in cfg.components:
        lines.append(f"component degree={comp.degree} mult={comp.multiplicity} "
                     "count=1")
    for point in cfg.points:
        branches = "".join(f"({b.weighted_degree}:{b.multiplicity})"
                           for b in point.branches)
        lines.append(f"point weights={point.weights[0]},{point.weights[1]} "
                     f"branches={branches} count=1")
    lines.append(f"nodes {cfg.nodes}")
    if cfg.incidence is not None:
        if cfg.incidence.matrix is not None:
            body = " ; ".join(" ".join(str(v) for v in row)
                              for row in cfg.incidence.matrix)
            lines.append(f"incidence-matrix {body}")
        elif cfg.incidence.pairs:
            body = " ".join(f"{c}x{v}" for c, v in cfg.incidence.pairs)
            lines.append(f"incidence {body}")
        else:
            lines.append("incidence")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# table emission
# ---------------------------------------------------------------------------

def emit_table(table: ConeSpectrumTable, mode: str = "rows") -> str:
    """Render a spectrum table.

    ``rows``: four lines (e=0, e=1, e=2 truncated at i = d-1, chi) plus a
    note line reporting the suppressed integer-exponent cell. ``csv``: all
    3*d cells as ``i,alpha,e,value`` with exact fractional exponents.
    """
    if mode == "rows":
        d = table.d
        lines = [
            "e=0: " + ",".join(str(v) for v in table.rows[0]),
            "e=1: " + ",".join(str(v) for v in table.rows[1]),
            "e=2: " + ",".join(str(v) for v in table.rows[2][: d - 1]),
            f"chi(U)={table.chi_u}",
            f"# note: omitted e=2,i={d} value {table.rows[2][d - 1]}; "
            "integer-exponent entries are formula values (no +1 adjustment "
            "applied at alpha=3)",
        ]
        return "\n".join(lines) + "\n"
    if mode == "csv":
        lines = ["i,alpha,e,value"]
        for e in range(3):
            for i in range(1, table.d + 1):
                alpha = Fraction(i, table.d) + e
                lines.append(f"{i},{alpha},{e},{table.rows[e][i - 1]}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown table mode {mode!r}")


def looks_like_vectors(text: str) -> bool:
    """Heuristic dialect sniff for CLI convenience."""
    for line in text.splitlines():
        if "#" in line:
            line = line[: line.index("#")]
        if "GlCmp" in line:
            return True
    return False
