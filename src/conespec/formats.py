"""Input and output formats.

Two input dialects, which `config_template` tells apart: the native
line-oriented config format (`parse_native`) and the four-vector
compatibility format ``GlCmp=...; Si=...; OD=...; LG=...``
(`parse_vector_text`, `parse_singular`). Integer slots of both accept
template expressions (`parse_expr`). A config text is compiled once, in
time proportional to its tokens, into a function of the parameter binding.
Every input error is a `ConfigError` with a code. `emit_table` writes a
table as ``rows`` or ``csv``.
"""

from __future__ import annotations

import operator
from itertools import chain, repeat

from ._record import Record
from .engine import (ConeSpectrumTable, CurveConfig, GlobalComponent,
                     Incidence, ReducedConeConfig)
from .local import (BranchDegreeError, LocalBranch, SingularPoint,
                    WeightSystem, weighted_spectrum)
from .spectrum import SpectrumVector, _positive, exponent_texts

TYPE_CHECKING = False
if TYPE_CHECKING:       # annotations only: no `collections` at run time
    from collections.abc import Callable, Mapping

    # a template as a function of its parameter binding
    Expr = Callable[[Mapping[str, int]], int]
    # a compiled native line: it evaluates its slots at the binding and
    # records what it describes in the fields of that call
    Step = Callable[[Mapping[str, int], "_Fields"], None]
    # a config text as a function of its parameter binding
    Template = Callable[[Mapping[str, int]],
                        "CurveConfig | ReducedConeConfig"]


class ConfigError(ValueError):
    """Input rejection with a machine-readable code and source location."""

    def __init__(self, code: str, message: str, line: int | None = None):
        self.code = code
        self.line = line
        super().__init__(message)

    def __str__(self):
        where = f"line {self.line}: " if self.line is not None else ""
        return f"{where}[{self.code}] {super().__str__()}"


def _coded(code: str, exc: ValueError) -> ConfigError:
    """What a handler raises for a constructor's ValueError `exc`: `exc`
    itself when it is a ConfigError, else a ConfigError with `code` and its
    message, caused by it."""
    if isinstance(exc, ConfigError):
        return exc
    error = ConfigError(code, str(exc))
    error.__cause__ = exc
    return error


# ---------------------------------------------------------------------------
# template expressions
# ---------------------------------------------------------------------------

def _div(left: int, right: int) -> int:
    if right == 0:
        raise ConfigError("div-zero", "division by zero in template")
    if right < 0:
        raise ConfigError("div-domain", "div needs a positive divisor")
    if left < 0:
        raise ConfigError("div-domain", "div needs a nonnegative dividend")
    return left // right


# the binary operators of each precedence level, loosest first
_LEVELS = ({"+": operator.add, "-": operator.sub},
           {"*": operator.mul, "div": _div})

# nesting bound, counting parentheses and unary minus: deeper texts are
# rejected before the parser's recursion could exhaust the stack
MAX_DEPTH = 100


def _quote(text: str) -> str:
    """`text` quoted for an error message: its first 60 characters, then
    '...' when it is longer."""
    cut = text[:60]
    return repr(cut) + ("..." if cut != text else "")


def _literal(digits: str) -> int:
    try:
        return int(digits)
    except ValueError as exc:
        raise ConfigError("expr-limit", f"integer literal of {len(digits)} "
                          "digits is too long") from exc


def _lex_expr(text: str) -> list[tuple[str, object]]:
    """The lexemes of `text`, in one pass over its characters: an ASCII
    digit run is an int, a run of `str.isalnum` or '_' that starts with a
    letter or '_' is a name (or ``div``), one of ``+-*()`` is itself, and
    `str.isspace` characters separate them; any other character is refused
    where it stands."""
    tokens = []
    pos, end = 0, len(text)
    while pos < end:
        ch = text[pos]
        start, pos = pos, pos + 1
        if "0" <= ch <= "9":
            while pos < end and "0" <= text[pos] <= "9":
                pos += 1
            tokens.append(("int", _literal(text[start:pos])))
        elif ch.isalpha() or ch == "_":
            while pos < end and (text[pos].isalnum() or text[pos] == "_"):
                pos += 1
            word = text[start:pos]
            tokens.append(("div", None) if word == "div" else ("name", word))
        elif ch in "+-*()":
            tokens.append((ch, None))
        elif not ch.isspace():
            raise ConfigError("expr-char", f"unexpected character {ch!r} in "
                              f"expression {_quote(text)}")
    return tokens


def _lookup(ident: str) -> Expr:
    def lookup(binding):
        try:
            return int(binding[ident])
        except KeyError:
            raise ConfigError("unbound-name",
                              f"parameter {ident!r} is not bound") from None
    return lookup


# the end of a token list: its kind continues no expression
_END = ("end", None)


def _chain(tokens: list, text: str, depth: int, level: int = 0) -> Expr:
    """The left-associative chain of the operators of `_LEVELS[level]` over
    operands of the next level, unary ones after the last, taken from the
    end of `tokens` (the lexemes of `text` in reverse order, above `_END`).
    It compiles to one closure that folds the operands left to right, so its
    length costs no stack."""
    if level == len(_LEVELS):
        return _unary(tokens, text, depth)
    ops = _LEVELS[level]
    first = _chain(tokens, text, depth, level + 1)
    rest = []
    while tokens[-1][0] in ops:
        rest.append((ops[tokens.pop()[0]],
                     _chain(tokens, text, depth, level + 1)))
    if not rest:
        return first

    def fold(binding):
        value = first(binding)
        for op, operand in rest:
            value = op(value, operand(binding))
        return value
    return fold


def _unary(tokens: list, text: str, depth: int) -> Expr:
    kind, value = tokens.pop()
    if kind == "int":
        return lambda binding: value
    if kind == "name":
        return _lookup(value)
    if kind not in ("-", "("):
        raise ConfigError("expr-syntax", f"malformed expression {_quote(text)}")
    if depth == MAX_DEPTH:
        raise ConfigError("expr-limit", "expression nests deeper than "
                          f"{MAX_DEPTH} levels")
    if kind == "-":
        arg = _unary(tokens, text, depth + 1)
        return lambda binding: -arg(binding)
    expr = _chain(tokens, text, depth + 1)
    if tokens.pop()[0] != ")":
        raise ConfigError("expr-paren", "unbalanced parentheses in "
                          f"{_quote(text)}")
    return expr


def _parse(text: str) -> tuple[Expr, bool]:
    """`_compile` of a slot that needs the parser."""
    lexemes = _lex_expr(text)
    tokens = [_END, *reversed(lexemes)]
    expr = _chain(tokens, text, 0)
    if len(tokens) > 1:
        raise ConfigError("expr-trailing",
                          f"trailing input in expression {_quote(text)}")
    return expr, any(kind == "name" for kind, _ in lexemes)


def parse_expr(text: str) -> Expr:
    """Compile an arithmetic template into a function of its parameter
    binding that returns an exact integer. Operators are + - * and
    floor-division ``div``, with unary minus binding tightest; ``div`` is
    defined only for a nonnegative dividend and a positive divisor. Digits
    are ASCII. An unbound name or a bad ``div`` is an error of the call,
    not of the compilation."""
    return _compile(text, {})[0]


def _compile(text: str, compiled: dict) -> tuple[Expr, bool]:
    """`parse_expr`'s function of `text`, and whether its tokens name a
    parameter. `compiled` is a template's slot compiler: it maps each slot
    text that the template has compiled, less its outer white space, to
    that pair, so a text is compiled once per template. A slot that is one
    ASCII literal or name, or one negated, needs no parser."""
    slot = text.strip()
    found = compiled.get(slot)
    if found is not None:
        return found
    if not slot:
        raise ConfigError("expr-empty", "empty expression")
    negated = slot[0] == "-"
    word = slot[1:] if negated else slot
    if word.isascii() and word.isdigit():
        value = -_literal(word) if negated else _literal(word)
        found = (lambda binding: value), False
    elif word.isascii() and word.isidentifier() and word != "div":
        lookup = _lookup(word)
        found = (lambda binding: -lookup(binding)) if negated else lookup, True
    else:
        found = _parse(text)
    compiled[slot] = found
    return found


# ---------------------------------------------------------------------------
# four-vector compatibility format
# ---------------------------------------------------------------------------

class SingularVectors(Record):
    """The four template vectors: global components, singular points,
    aggregated double points, incidence values. A slot is an int when it
    names no parameter, else an `Expr`; the derived `_plan` lists the
    distinct `Expr`s, the compiled slots and, for each slot that holds an
    `Expr`, its (position, `Expr` number)."""

    __slots__ = ("glcmp", "si", "od", "lg", "_plan")

    def __init__(self, glcmp: tuple[int | Expr, ...],
                 si: tuple[int | Expr, ...], od: int | Expr,
                 lg: tuple[int | Expr, ...]):
        object.__setattr__(self, "glcmp", glcmp)
        object.__setattr__(self, "si", si)
        object.__setattr__(self, "od", od)
        object.__setattr__(self, "lg", lg)
        slots = (*glcmp, *si, od, *lg)
        exprs = {e: k for k, e in enumerate(dict.fromkeys(filter(callable,
                                                                 slots)))}
        index = tuple((k, exprs[s]) for k, s in enumerate(slots)
                      if callable(s))
        object.__setattr__(self, "_plan", (tuple(exprs), list(slots), index,
                                           len(glcmp), len(glcmp) + len(si)))


def parse_vector_text(text: str) -> SingularVectors:
    """Parse ``GlCmp=...; Si=...; OD=...; LG=...`` (order free, '#' comments).
    Each distinct slot text is compiled once; one whose tokens name no
    parameter is evaluated here and kept as its value, unless that raises
    (``1 div 0`` does), which each binding then raises again."""
    body = " ".join(line.partition("#")[0] for line in text.splitlines())
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
    compiled: dict[str, tuple[Expr, bool]] = {}

    def entries(raw: str, key: str) -> tuple[int | Expr, ...]:
        raw = raw.strip()
        if not raw:
            return ()
        out = []
        for piece in raw.split(","):
            slot = piece.strip()
            if not slot:
                raise ConfigError("vector-syntax",
                                  f"empty entry in {key}={_quote(raw)}")
            expr, named = _compile(piece, compiled)
            if not named:
                try:
                    expr = expr({})
                except ConfigError:     # 1 div 0: raised at each binding
                    pass
            out.append(expr)
        return tuple(out)

    od_entries = entries(fields["OD"], "OD")
    if len(od_entries) != 1:
        raise ConfigError("vector-syntax", "OD must be a single expression")
    return SingularVectors(glcmp=entries(fields["GlCmp"], "GlCmp"),
                           si=entries(fields["Si"], "Si"),
                           od=od_entries[0],
                           lg=entries(fields["LG"], "LG"))


def _negated_count(vector: str, k: int, sep: int) -> None:
    """Reject a group separator, entry k (from 0) of `vector`, above 0."""
    if sep > 0:
        raise ConfigError("separator", f"{vector} entry {k + 1} should be a "
                          f"negated count, got {sep}")


# records of one kind that a template keeps; one more empties them
MEMO_BOUND = 4096


def _stored(records: dict, key, built):
    if len(records) >= MEMO_BOUND:
        records.clear()
    records[key] = built
    return built


def parse_singular(vectors: SingularVectors, binding: Mapping[str, int],
                   memo: tuple[dict, dict, dict, dict] | None = None
                   ) -> CurveConfig:
    """Expand the four vectors into a curve configuration.

    Negative entries are group separators carrying repeat counts. Points in
    this dialect are always ordinary (weights (1,1), branch degrees 1); the
    point multiplicity lists may be shorter than the branch count and are
    padded with 1. A separator is checked only when it is not negative, a
    record of count 1 is appended once, and the `Si` walk reads values: a
    multiplicity slot that evaluates to 0 or less ends its point's group.
    Each distinct `Expr` is evaluated once, in the order of its first slot,
    and its value written at its positions in a copy of the compiled slots.

    `memo` holds the records already built (fresh dicts when none is
    given), one dict per kind so that keys of two kinds never meet:
    components by (degree, mult), points by (branch count, *mults), the
    incidence by its pairs and branches by their multiplicity. A component
    is checked by its constructor on a miss, every other check before the
    lookup; a record is stored once its constructor has returned, and a
    dict that holds `MEMO_BOUND` records is emptied first.
    """
    component_memo, point_memo, incidence_memo, branch_memo = \
        memo or ({}, {}, {}, {})
    exprs, compiled, index, g, s = vectors._plan
    values = [e(binding) for e in exprs]
    slots = compiled.copy()                         # GlCmp, Si, OD, LG
    for k, n in index:
        slots[k] = values[n]

    if not g or g % 3 != 0:
        raise ConfigError("separator",
                          "GlCmp must consist of (-count, degree, mult) triples")
    components = []
    for k in range(0, g, 3):
        sep = slots[k]
        if sep >= 0:
            _negated_count("GlCmp", k, sep)
            continue
        degree, mult = slots[k + 1], slots[k + 2]
        component = component_memo.get((degree, mult))
        if component is None:
            try:
                component = GlobalComponent(degree, mult)
            except ValueError as exc:
                raise _coded("value-nonpositive", exc)
            _stored(component_memo, (degree, mult), component)
        if sep == -1:
            components.append(component)
        else:
            components.extend([component] * -sep)

    points = []
    si = slots[g:s]
    pos, end = 0, s - g
    while pos < end:
        sep = si[pos]
        if sep >= 0:
            _negated_count("Si", pos, sep)
        if pos + 1 >= end:
            raise ConfigError("separator", "Si ends before a branch count")
        branch_count = si[pos + 1]
        pos = start = pos + 2
        while pos < end and si[pos] > 0:
            pos += 1
        if sep == 0:
            continue
        if branch_count < 1:
            raise ConfigError("value-nonpositive",
                              f"branch count must be positive, got {branch_count}")
        if pos - start > branch_count:
            raise ConfigError("si-overflow",
                              f"point lists {pos - start} multiplicities for "
                              f"{branch_count} branches")
        key = tuple(si[start - 1:pos])              # (branch_count, *mults)
        point = point_memo.get(key)
        if point is None:
            mults = si[start:pos] + [1] * (branch_count - (pos - start))
            # a record is never false, so `or` builds only what is missing
            branches = [branch_memo.get(m)
                        or _stored(branch_memo, m, LocalBranch(1, m))
                        for m in mults]
            point = _stored(point_memo, key, SingularPoint((1, 1), branches))
        if sep == -1:
            points.append(point)
        else:
            points.extend([point] * -sep)

    od = slots[s]
    if od < 0:
        raise ConfigError("value-nonpositive",
                          f"aggregated double point count must be >= 0, got {od}")

    pairs = []
    lg = slots[s + 1:]
    if lg != [0]:
        if len(lg) % 2 != 0:
            raise ConfigError("separator",
                              "LG must be (-count, value) pairs or the single "
                              "entry 0")
        for k in range(0, len(lg), 2):
            sep, value = lg[k], lg[k + 1]
            if sep >= 0:
                _negated_count("LG", k, sep)
                continue
            if value < 1:
                raise ConfigError("value-nonpositive",
                                  f"incidence value must be positive, got {value}")
            pairs.append((-sep, value))
    key = tuple(pairs)
    incidence = incidence_memo.get(key)
    if incidence is None:
        incidence = _stored(incidence_memo, key, Incidence.from_pairs(pairs))

    try:
        return CurveConfig(tuple(components), tuple(points), od, incidence)
    except ValueError as exc:
        raise ConfigError("config-invalid", str(exc)) from exc


# ---------------------------------------------------------------------------
# native line format
# ---------------------------------------------------------------------------

def _keyvals(parts: list[str], needed: tuple,
             optional: tuple) -> dict[str, str]:
    """key=value tokens as a dict; keys are checked in grammar order, so the
    first missing key named is always the same."""
    out = {}
    for part in parts:
        if "=" not in part:
            raise ConfigError("key-syntax",
                              f"expected key=value, got {part!r}")
        key, _, value = part.partition("=")
        if key in out:
            raise ConfigError("key-syntax", f"duplicate key {key!r}")
        out[key] = value
    for key in out:
        if key not in needed + optional:
            raise ConfigError("key-syntax", f"unknown key {key!r}")
    for key in needed:
        if key not in out:
            raise ConfigError("key-syntax", f"missing key {key!r}")
    return out


def _compile_branches(text: str, compiled: dict) -> list[tuple[Expr, Expr]]:
    """The (degree, multiplicity) templates of ``(deg:mult)(deg:mult)...``:
    each branch is split at its last ':' outside nested parentheses."""
    branches = []
    pos = 0
    while pos < len(text):
        if text[pos] != "(":
            raise ConfigError(
                "branch-syntax",
                "branches must look like (deg:mult)(deg:mult)...")
        depth, colon, end = 1, -1, pos + 1
        while depth:        # from `end`, at `depth`, to the next '(' or ')'
            close = text.find(")", end)
            if close < 0:
                break
            opening = text.find("(", end, close)
            stop = close if opening < 0 else opening
            if depth == 1:
                colon = max(colon, text.rfind(":", end, stop))
            depth += -1 if opening < 0 else 1
            end = stop + 1
        if depth or colon < 0:
            raise ConfigError("branch-syntax",
                              f"malformed branch list {_quote(text)}")
        branches.append((_compile(text[pos + 1: colon], compiled)[0],
                         _compile(text[colon + 1: end - 1], compiled)[0]))
        pos = end
    if not branches:
        raise ConfigError("branch-syntax", "a point needs at least one branch")
    return branches


def _ascii_int(text: str) -> int:
    """int(text), save that its digits must be ASCII and without '_', as in
    a template literal; anything else is a ValueError."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"not an ASCII integer: {text!r}")
    return int(text)


def _parse_fraction(text: str) -> Fraction:
    from fractions import Fraction
    num, slash, den = text.partition("/")
    try:
        return Fraction(_ascii_int(num), _ascii_int(den) if slash else 1)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError("fraction-syntax", f"bad fraction {text!r}") from exc


def _depth_after(word: str, depth: int) -> int:
    """The '(' left open after `word`, `depth` open before it; a ')' with
    none open closes nothing."""
    if "(" in word or ")" in word:
        *closed, last = word.split(")")
        for piece in closed:
            depth = max(0, depth + piece.count("(") - 1)
        depth += last.count("(")
    return depth


def _tokenize_line(line: str) -> list[str]:
    """Whitespace split, except that a word that starts inside an open '('
    joins the token before it; so a line whose every word closes its own
    '(' is its split."""
    words = line.split()
    for word in words:
        if "(" in word and _depth_after(word, 0):
            break
    else:
        return words
    tokens, depth, end = [], 0, 0
    for word in words:
        start = line.find(word, end)
        if depth:
            tokens[-1] += line[end:start] + word
        else:
            tokens.append(word)
        end = start + len(word)
        depth = _depth_after(word, depth)
    if depth:                           # white space left open at the end
        tokens[-1] += line[end:]
    return tokens


class _Fields:
    """What one evaluation of a native template collects; every call starts
    from a new one."""

    def __init__(self):
        self.components: list[GlobalComponent] = []
        self.points: list[SingularPoint] = []
        self.spectra: list[SpectrumVector] = []
        self.nodes = 0
        self.incidence: Incidence | None = None
        self.header: tuple[int, int, int] | None = None  # n, degree, power
        self.weighted: dict = {}        # (weights, degree) -> its spectrum


def _one_value(keyword: str, args: list[str], compiled: dict) -> Expr:
    if len(args) != 1:
        raise ConfigError("key-syntax", f"{keyword} takes one value")
    return _compile(args[0], compiled)[0]


def _ambient(args: list[str], compiled: dict, *_) -> Step:
    value = _one_value("ambient", args, compiled)

    def step(binding, out):
        if value(binding) != 2:
            raise ConfigError("ambient-unsupported",
                              "curve configs are planar (ambient 2); use a "
                              "'reduced' header for other dimensions")
    return step


def _nodes(args: list[str], compiled: dict, *_) -> Step:
    value = _one_value("nodes", args, compiled)

    def step(binding, out):
        out.nodes = value(binding)
        if out.nodes < 0:
            raise ConfigError("value-nonpositive", "node count must be >= 0")
    return step


def _component(args: list[str], compiled: dict, memo: tuple) -> Step:
    kv = _keyvals(args, ("degree", "mult"), ("count",))
    degree, mult, count = (_compile(kv.get(key, "1"), compiled)[0]
                           for key in ("degree", "mult", "count"))
    components = memo[0]

    def step(binding, out):
        key = degree(binding), mult(binding)
        try:
            copies = _positive(count(binding), "component count")
            component = (components.get(key)
                         or _stored(components, key, GlobalComponent(*key)))
        except ValueError as exc:
            raise _coded("value-nonpositive", exc)
        out.components += [component] * copies
    return step


def _point(args: list[str], compiled: dict, memo: tuple) -> Step:
    kv = _keyvals(args, ("weights", "branches"), ("count",))
    weight_parts = kv["weights"].split(",")
    if len(weight_parts) != 2:
        raise ConfigError("weights-syntax", "point weights must be w,w'")
    w_expr, wp_expr = (_compile(part, compiled)[0] for part in weight_parts)
    branch_exprs = _compile_branches(kv["branches"], compiled)
    count = _compile(kv.get("count", "1"), compiled)[0]
    _, branches, points = memo

    def step(binding, out):
        weights = w_expr(binding), wp_expr(binding)
        pairs, built = [], []
        try:
            for deg, mult in branch_exprs:
                pair = deg(binding), mult(binding)
                pairs.append(pair)
                built.append(branches.get(pair) or
                             _stored(branches, pair, LocalBranch(*pair)))
            copies = _positive(count(binding), "point count")
        except ValueError as exc:
            raise _coded("value-nonpositive", exc)
        key = weights, tuple(pairs)
        point = points.get(key)
        if point is None:
            try:
                point = _stored(points, key,
                                SingularPoint(weights, tuple(built)))
            except BranchDegreeError as exc:
                raise ConfigError("branch-degree", str(exc)) from exc
            except ValueError as exc:
                raise _coded("point-invalid", exc)
        out.points += [point] * copies
    return step


def _set_incidence(incidence: Incidence) -> Step:
    def step(binding, out):
        out.incidence = incidence
    return step


def _incidence(args: list[str], *_) -> Step:
    pairs = []
    for token in args:
        try:
            count, value = map(_ascii_int, token.split("x"))
        except ValueError as exc:
            raise ConfigError("incidence-syntax",
                              f"expected COUNTxVALUE, got {token!r}") from exc
        if count < 1 or value < 1:
            raise ConfigError("value-nonpositive",
                              "incidence counts and values must be positive")
        pairs.append((count, value))
    return _set_incidence(Incidence.from_pairs(pairs))


def _incidence_matrix(args: list[str], *_) -> Step:
    rows: list[list[int]] = [[]]
    for token in args:
        for idx, part in enumerate(token.split(";")):
            if idx:
                rows.append([])
            if part:
                try:
                    rows[-1].append(_ascii_int(part))
                except ValueError as exc:
                    raise ConfigError("incidence-syntax",
                                      f"bad matrix entry {part!r}") from exc
    rows = [r for r in rows if r]
    if not rows:
        raise ConfigError("incidence-syntax",
                          "incidence-matrix needs at least one row")
    try:
        return _set_incidence(Incidence.from_matrix(rows))
    except ValueError as exc:
        raise _coded("value-nonpositive", exc)


def _reduced(args: list[str], compiled: dict, *_) -> Step:
    kv = _keyvals(args, ("n", "degree"), ("power",))
    header = tuple(_compile(kv.get(key, "1"), compiled)[0]
                   for key in ("n", "degree", "power"))

    def step(binding, out):
        out.header = tuple(e(binding) for e in header)
    return step


def _localspectrum(args: list[str], *_) -> Step:
    entries = []
    for token in args:
        if ":" not in token:
            raise ConfigError("spectrum-syntax",
                              f"expected p/q:m, got {token!r}")
        e_text, _, m_text = token.rpartition(":")
        exponent = _parse_fraction(e_text)
        try:
            mult = _ascii_int(m_text)
        except ValueError as exc:
            raise ConfigError("spectrum-syntax",
                              f"bad multiplicity {m_text!r}") from exc
        entries.append((exponent, mult))
    if not entries:
        raise ConfigError("spectrum-syntax",
                          "localspectrum needs at least one entry")

    def step(binding, out):
        try:
            out.spectra.append(SpectrumVector(entries,
                                              ambient_dim=out.header[0]))
        except ValueError as exc:
            raise _coded("config-invalid", exc)
    return step


def _localwh(args: list[str], compiled: dict, *_) -> Step:
    """A ``localwh`` line: the spectrum of its weights and degree, built
    once per evaluation of the config for all lines that repeat them."""
    kv = _keyvals(args, ("weights", "degree"), ())
    weight_exprs = [_compile(p, compiled)[0] for p in kv["weights"].split(",")]
    degree = _compile(kv["degree"], compiled)[0]

    def step(binding, out):
        weights = tuple(e(binding) for e in weight_exprs)
        n = out.header[0]
        if len(weights) != n:
            raise ConfigError("weights-syntax", f"localwh needs {n} weights "
                              "(one per variable)")
        key = weights, degree(binding)
        if key not in out.weighted:
            try:
                out.weighted[key] = weighted_spectrum(WeightSystem(*key))
            except ValueError as exc:
                raise _coded("point-invalid", exc)
        out.spectra.append(out.weighted[key])
    return step


# keyword -> (compile function, slot it may fill once, mode): a "curve" line
# cannot share a config with a 'reduced' header, and a "local" line needs
# one before it
_KEYWORDS = {
    "ambient": (_ambient, None, "curve"),
    "component": (_component, None, "curve"),
    "point": (_point, None, "curve"),
    "nodes": (_nodes, "nodes", "curve"),
    "incidence": (_incidence, "incidence", "curve"),
    "incidence-matrix": (_incidence_matrix, "incidence", "curve"),
    "reduced": (_reduced, "reduced", None),
    "localspectrum": (_localspectrum, None, "local"),
    "localwh": (_localwh, None, "local"),
}


def parse_native(text: str) -> Template:
    """Compile the native config format into a function of the parameter
    binding that returns a `ReducedConeConfig` when a ``reduced`` header
    line is present, otherwise a `CurveConfig`.

    All violations raise `ConfigError` with a machine-readable code. What
    holds at every binding is checked here, once: keywords, keys, repeated
    lines, mode conflicts, the syntax of expressions and branches, literal
    incidence and spectrum entries, and a curve config without components.
    What depends on the binding is checked at each call: unbound names,
    ``div``, values, and the objects built from them. The error carries the
    line number where one line is at fault; errors about the whole config
    (no components, an incidence matrix of the wrong width) carry none, and a
    refused reduced config that of its header or of the spectrum at fault.
    Each stage has one place that sets it: an error raised while line N is
    compiled or evaluated, and that names no line of its own, gets N.

    The lines share one slot compiler (`_compile`) and one memo that keeps
    records for every call, as `parse_singular`'s does: components and
    branches by (degree, mult), points by (weights, branch pairs). A record
    is stored once built, so a construction that raises does so at every
    call; a line checks its branches, then its count, then its point.
    """
    compiled: dict[str, tuple[Expr, bool]] = {}
    memo = ({}, {}, {})                 # components, branches, points
    steps: list[tuple[int, Step]] = []
    first_line: dict[str, int] = {}     # single-valued slot -> its line
    local_lines = []                    # one line per local spectrum
    seen = set()                        # keywords of the lines read
    for lineno, raw in enumerate(text.splitlines(), start=1):
        try:
            tokens = _tokenize_line(raw.partition("#")[0])
            if not tokens:
                continue
            keyword, args = tokens[0], tokens[1:]
            if keyword not in _KEYWORDS:
                raise ConfigError("bad-keyword",
                                  f"unknown keyword {keyword!r}")
            compile_line, slot, mode = _KEYWORDS[keyword]
            if slot is not None:
                if slot in first_line:
                    raise ConfigError("key-syntax",
                                      f"{keyword!r} repeats line "
                                      f"{first_line[slot]}: {slot} may be "
                                      "given once")
                first_line[slot] = lineno
            if mode == "local" and "reduced" not in first_line:
                raise ConfigError("mode-conflict", f"{keyword} needs a "
                                  "preceding 'reduced' header")
            seen.add(keyword)
            steps.append((lineno, compile_line(args, compiled, memo)))
            if mode == "local":
                local_lines.append(lineno)
        except ConfigError as exc:
            if exc.line is None:
                exc.line = lineno
            raise

    header_line = first_line.get("reduced")
    if header_line is not None:
        if any(_KEYWORDS[k][2] == "curve" for k in seen):
            raise ConfigError("mode-conflict", "cannot mix curve lines with "
                              "a 'reduced' header", header_line)
    elif "component" not in seen:
        raise ConfigError("config-invalid", "config defines no components")

    def build(binding: Mapping[str, int]):
        out = _Fields()
        for lineno, step in steps:
            try:
                step(binding, out)
            except ConfigError as exc:
                if exc.line is None:
                    exc.line = lineno
                raise
        if header_line is not None:
            n, degree, power = out.header
            try:
                return ReducedConeConfig(n, degree, tuple(out.spectra), power)
            except ValueError as exc:
                # at fault: the header or the first spectrum refused alone
                for line, spectra in ((header_line, ()),
                                      *zip(local_lines, zip(out.spectra))):
                    try:
                        ReducedConeConfig(n, degree, spectra, power)
                    except ValueError:
                        break
                raise ConfigError("config-invalid", str(exc), line) from exc
        try:
            return CurveConfig(components=tuple(out.components),
                               points=tuple(out.points), nodes=out.nodes,
                               incidence=out.incidence)
        except ValueError as exc:
            raise _coded("config-invalid", exc)
    return build


# ---------------------------------------------------------------------------
# table emission
# ---------------------------------------------------------------------------

def emit_table(table: ConeSpectrumTable, mode: str = "rows") -> str:
    """Render a spectrum table.

    ``rows``: four lines (e=0, e=1, e=2 truncated at i = d-1, chi) plus a
    note line reporting the suppressed integer-exponent cell. ``csv``: all
    3*d cells as ``i,alpha,e,value`` with exact fractional exponents. Either
    mode writes a row's values in one ``%`` call, whose ``%s`` gives each
    cell's ``str``: over a repeated ``"%s,"`` in ``rows``; in ``csv`` over
    the row's lines, joined from the column heads, built once for all three
    rows, and the ``alpha`` texts, with a ``%s`` in each value's place.
    """
    d = table.d
    r0, r1, r2 = table.rows
    if mode == "rows":
        cells = "%s," * d
        return (f"e=0: {cells[:-1] % tuple(r0)}\n"
                f"e=1: {cells[:-1] % tuple(r1)}\n"
                f"e=2: {cells[:-4] % tuple(r2[:d - 1])}\n"
                f"chi(U)={table.chi_u}\n"
                f"# note: omitted e=2,i={d} value {r2[d - 1]}; "
                "integer-exponent entries are formula values (no +1 "
                "adjustment applied at alpha=3)\n")
    if mode == "csv":
        heads = [f"\n{i}," for i in range(1, d + 1)]
        alphas = exponent_texts(range(1, 3 * d + 1), d)
        parts = ["i,alpha,e,value"]
        for e, row in enumerate(table.rows):
            lines = zip(heads, alphas[e * d:], repeat(f",{e},%s"))
            parts.append("".join(chain.from_iterable(lines)) % tuple(row))
        parts.append("\n")
        return "".join(parts)
    raise ValueError(f"unknown table mode {mode!r}")


def looks_like_vectors(text: str) -> bool:
    """Dialect sniff: vector text names ``GlCmp`` outside comments."""
    return any("GlCmp" in line.partition("#")[0]
               for line in text.splitlines())


def config_template(text: str) -> Template:
    """The config of `text` as a function of its parameter binding, in the
    dialect `looks_like_vectors` picks. Either dialect is parsed here, once;
    each call only evaluates the compiled slots and builds the config. A
    template of either dialect keeps one memo for all its calls, so a record
    whose slot values recur is built once (`parse_singular`,
    `parse_native`)."""
    if looks_like_vectors(text):
        vectors = parse_vector_text(text)
        memo = ({}, {}, {}, {})
        return lambda binding: parse_singular(vectors, binding, memo)
    return parse_native(text)
