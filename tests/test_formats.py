import collections
import io
import itertools
import math
import os
import random
import re
import string
import subprocess
import sys
from collections.abc import Mapping
from fractions import Fraction
from pathlib import Path

import pytest

from conespec import formats, local
from conespec.cli import ScanSpec, run_scan
from conespec.engine import (ConeSpectrumTable, CurveConfig,
                             GlobalComponent, Incidence, ReducedConeConfig,
                             curve_table)
from conespec.formats import (MAX_DEPTH, ConfigError, config_template,
                              emit_table, looks_like_vectors, parse_expr,
                              parse_native, parse_singular, parse_vector_text)
from conespec.local import LocalBranch, SingularPoint
from conespec.spectrum import SpectrumVector
from generators import random_ordinary_config, random_reduced_swh_config
from reference import (BinOp, Name, Neg, Num, emit_native,
                       emit_table_by_cells, lex_expr_by_chars,
                       lex_expr_by_pattern, render_expr, thicken,
                       tokenize_line_by_chars)

F = Fraction
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"


# -- template expressions ----------------------------------------------------

def ev(text, **binding):
    return parse_expr(text)(binding)


def test_eval_examples():
    assert ev("c+2", c=2) == 4
    assert ev("5*c*(c+1)div 2+2*(c+1)", c=2) == 21
    assert ev("-(c+1)", c=1) == -2
    assert ev("7+3*c", c=0) == 7
    assert ev("4*(c+2)", c=1) == 12


def test_eval_precedence():
    assert ev("2+3*4") == 14
    assert ev("-2*3") == -6          # unary minus binds tighter than *
    assert ev("10-2-3") == 5         # left associative
    assert ev("12 div 2 div 3") == 2
    assert ev("2*6 div 4") == 3


def test_eval_errors():
    with pytest.raises(ConfigError):
        ev("a+1")                    # unbound
    with pytest.raises(ConfigError):
        ev("5 div 0")
    with pytest.raises(ConfigError):
        ev("(0-5) div 2")            # negative dividend
    with pytest.raises(ConfigError):
        ev("5 div (0-2)")            # negative divisor
    with pytest.raises(ConfigError):
        parse_expr("")
    with pytest.raises(ConfigError):
        parse_expr("2+")
    with pytest.raises(ConfigError):
        parse_expr("(2")
    with pytest.raises(ConfigError):
        parse_expr("2 ? 3")


def test_nesting_bound_counts_parentheses_and_unary_minus():
    half = MAX_DEPTH // 2
    deepest = ["(" * MAX_DEPTH + "7" + ")" * MAX_DEPTH, "-" * MAX_DEPTH + "7",
               "-(" * half + "7" + ")" * half]
    for text in deepest:
        assert ev(text) == 7
        for deeper in (f"({text})", f"-{text}"):
            with pytest.raises(ConfigError) as err:
                parse_expr(deeper)
            assert str(err.value) == (
                f"[expr-limit] expression nests deeper than {MAX_DEPTH} levels")
    # a flat chain costs no depth, however long
    assert ev("+".join(["c"] * 3000), c=2) == 6000
    assert ev("-".join(["1"] * 3000)) == -2998
    assert ev("*".join(["c"] * 3000) + " div 2", c=1) == 0


def _random_expr(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Num(rng.randint(0, 99))
        return Name(rng.choice("abc"))
    op = rng.choice(["+", "-", "*", "div", "neg"])
    if op == "neg":
        return Neg(_random_expr(rng, depth - 1))
    return BinOp(op, _random_expr(rng, depth - 1), _random_expr(rng, depth - 1))


def _direct_eval(node, binding):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Name):
        return binding[node.ident]
    if isinstance(node, Neg):
        return -_direct_eval(node.arg, binding)
    left = _direct_eval(node.left, binding)
    right = _direct_eval(node.right, binding)
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    if node.op == "*":
        return left * right
    if right <= 0 or left < 0:
        raise ZeroDivisionError
    return left // right


def test_eval_matches_direct_evaluator_on_random_trees():
    rng = random.Random(12345)
    binding = {"a": 3, "b": 7, "c": 2}
    agreed = 0
    for _ in range(10_000):
        tree = _random_expr(rng, rng.randint(0, 6))
        text = render_expr(tree)
        reparsed = parse_expr(text)
        try:
            want = _direct_eval(tree, binding)
        except ZeroDivisionError:
            with pytest.raises(ConfigError):
                reparsed(binding)
            continue
        assert reparsed(binding) == want
        agreed += 1
    assert agreed > 5000


# -- compiling in token time --------------------------------------------------

def test_trivial_slots_skip_the_parser(monkeypatch):
    """A slot that is one ASCII literal or name, negated or not, compiles
    without the expression parser; every other slot still goes through
    it."""
    built = []
    parse = formats._parse

    def counting_parse(text):
        built.append(text)
        return parse(text)
    monkeypatch.setattr(formats, "_parse", counting_parse)
    template = parse_native("ambient 2\n"
                            "component degree=a mult=007 count=2\n"
                            "point weights=1,1 branches=(1:b)(1: 1 )"
                            " count=_n\n"
                            "nodes b\n")
    assert built == []
    point = SingularPoint((1, 1), (LocalBranch(1, 3), LocalBranch(1, 1)))
    assert template({"a": 2, "b": 3, "_n": 1}) == CurveConfig(
        components=(GlobalComponent(2, 7),) * 2, points=(point,), nodes=3)
    parse_native("component degree=a+1 mult=1\n")
    assert built == ["a+1"]
    assert [parse_expr(text)({"c": 4}) for text in ("-1", "-c", "-007")] == [
        -1, -4, -7]
    vectors = parse_vector_text("GlCmp=-1,c,-c; Si=; OD=0; LG=0")
    assert vectors.glcmp[0] == -1 and vectors.glcmp[2]({"c": 4}) == -4
    assert built == ["a+1"]
    assert parse_expr("-(c+1)")({"c": 4}) == -5
    assert built == ["a+1", "-(c+1)"]


@pytest.mark.parametrize("slot, stage, outcome", [
    ("007", "call", 7),
    (" a ", "call", 5),
    ("div", "compile", "[expr-syntax] malformed expression 'div'"),
    ("b", "call", "[unbound-name] parameter 'b' is not bound"),
], ids=["leading-zeros", "padded-name", "div-alone", "unbound-name"])
def test_trivial_slot_outcomes(slot, stage, outcome):
    """The stage (compile or call) and the value or error of a one-token
    slot, alone and as the second line of a native text."""
    def staged(compile_text, text, evaluate):
        try:
            compiled = compile_text(text)
        except ConfigError as exc:
            return "compile", str(exc)
        try:
            return "call", evaluate(compiled)
        except ConfigError as exc:
            return "call", str(exc)
    binding = {"a": 5}
    assert staged(parse_expr, slot, lambda e: e(binding)) == (stage, outcome)
    native = staged(parse_native, f"component degree=1 mult=1\nnodes {slot}\n",
                    lambda template: template(binding).nodes)
    assert native == (stage, outcome if isinstance(outcome, int)
                      else f"line 2: {outcome}")


def test_native_template_builds_each_record_once_per_key():
    """Equal point lines yield one `SingularPoint`, at one binding and again
    at a later binding with the same values; a line whose record cannot be
    built raises at every binding, with its code and line, whatever the
    bindings between."""
    template = parse_native("component degree=6 mult=m\n"
                            "point weights=2,3 branches=(6:m)\n"
                            "point weights=2,3 branches=(6:m) count=2\n")
    first = template({"m": 2})
    assert len(first.points) == 3
    assert all(point is first.points[0] for point in first.points)
    assert template({"m": 3}).points[0] != first.points[0]
    again = template({"m": 2})
    assert again.points[0] is first.points[0]
    assert again.components[0] is first.components[0]
    faulty = parse_native("component degree=6 mult=1\n"
                          "point weights=2,3 branches=(6:1)\n"
                          "point weights=2,3 branches=(a:1)\n")
    for a in (5, 6, 5, 5):
        if a == 6:
            assert faulty({"a": a}).points[1].branches == (LocalBranch(6, 1),)
            continue
        with pytest.raises(ConfigError) as exc:
            faulty({"a": a})
        assert str(exc.value) == ("line 3: [branch-degree] branch degrees must "
                                  "lie in {w, w', w*w'} = {2, 3, 6}")


@pytest.mark.parametrize("text, error", [
    ("component degree=0 mult=1\ncomponent degree=1 mult=0\n",
     "line 1: [value-nonpositive] component degree must be positive"),
    ("component degree=1 mult=1\npoint weights=1,1 branches=(1:0)\n"
     "point weights=2,3 branches=(1:1)\n",
     "line 2: [value-nonpositive] branch multiplicity must be positive"),
    ("component degree=1 mult=1\nnodes -1\ncomponent degree=a mult=1\n",
     "line 2: [value-nonpositive] node count must be >= 0"),
    ("component degree=0 mult=1 count=0\n",
     "line 1: [value-nonpositive] component count must be positive"),
    ("component degree=1 mult=1\n"
     "point weights=1,1 branches=(1:0)(1:b) count=0\n",
     "line 2: [value-nonpositive] branch multiplicity must be positive"),
    ("component degree=1 mult=1\n"
     "point weights=1,1 branches=(1:1)(1:0) count=0\n",
     "line 2: [value-nonpositive] branch multiplicity must be positive"),
    ("component degree=1 mult=1\npoint weights=2,3 branches=(1:1) count=0\n",
     "line 2: [value-nonpositive] point count must be positive"),
    ("component degree=1 mult=1\npoint weights=2,3 branches=(6:1)(1:1)\n",
     "line 2: [branch-degree] branch degrees must lie in {w, w', w*w'} = "
     "{2, 3, 6}"),
    ("component degree=1 mult=1\npoint weights=0,3 branches=(1:1) count=c\n",
     "line 2: [point-invalid] point weight must be positive"),
], ids=["two-components", "two-points", "nodes-then-unbound",
        "degree-and-count", "branch-then-unbound", "branch-then-count",
        "count-then-point", "two-branch-degrees", "weights-after-count"])
def test_native_reports_the_first_of_two_faults(text, error):
    """With two faulty lines the first line's error wins, and within a line
    the branches are checked in order, then the count, then the point: at
    the first binding and again at the next."""
    template = parse_native(text)
    for _ in range(2):
        with pytest.raises(ConfigError) as exc:
            template({"c": 1})
        assert str(exc.value) == error


# the characters on which a regular expression and the character loops
# could disagree: Unicode letters, digits of categories Nd, No and Nl,
# white space outside ASCII and stray parentheses
LEXER_ALPHABET = (list(string.ascii_letters + string.digits + "_+-*():")
                  + ["div", "\u00e9", "\u0663", "\u00b2", "\u216b", " ",
                     "\u00a0", "\u2003", "\x1c", ")", ")"])


def _tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except ConfigError as exc:
        return exc.code, str(exc)


def test_lexer_and_tokenizer_match_character_loops():
    """The lexer gives the tokens, or the error, of both references: the
    character loop and the `re` pattern it once was; the line tokenizer
    splits as its character loop does."""
    rng = random.Random(2104)
    for trial in range(20_000):
        pieces = [rng.choice(LEXER_ALPHABET)
                  for _ in range(rng.randint(0, 24))]
        if trial % 500 == 0:
            pieces.insert(rng.randint(0, len(pieces)), "9" * 5000)
        text = "".join(pieces)
        tokens = _tokens_or_error(formats._lex_expr, text)
        assert tokens == _tokens_or_error(lex_expr_by_chars, text), text
        assert tokens == _tokens_or_error(lex_expr_by_pattern, text), text
        assert formats._tokenize_line(text) == \
            tokenize_line_by_chars(text), text


# -- vector dialect ----------------------------------------------------------

PENCIL = ("GlCmp=-1,2,a,-c,2,1,-1,1,b,-1,1,1; Si=-2,c+2,a,b,-2,c+2,a; "
          "OD=1; LG=0;")


def test_parse_vectors_pencil():
    cfg = parse_singular(parse_vector_text(PENCIL), dict(a=2, b=5, c=2))
    assert [(c.degree, c.multiplicity) for c in cfg.components] == \
        [(2, 2), (2, 1), (2, 1), (1, 5), (1, 1)]
    assert [[b.multiplicity for b in p.branches] for p in cfg.points] == \
        [[2, 5, 1, 1], [2, 5, 1, 1], [2, 1, 1, 1], [2, 1, 1, 1]]
    assert cfg.nodes == 1
    assert cfg.incidence is not None and cfg.incidence.pairs == ()


def test_parse_vectors_five_lines():
    text = ("GlCmp=-1,1,a,-1,1,b,-1,1,c+1,-2,1,1; Si=-1,3,a,b,-1,3,c+1; "
            "OD=4; LG=-6,1;")
    cfg = parse_singular(parse_vector_text(text), dict(a=4, b=2, c=0))
    assert [c.multiplicity for c in cfg.components] == [4, 2, 1, 1, 1]
    assert [[b.multiplicity for b in p.branches] for p in cfg.points] == \
        [[4, 2, 1], [1, 1, 1]]
    assert cfg.nodes == 4
    assert cfg.incidence.pairs == ((6, 1),)


def test_parse_vectors_zero_count_groups():
    cfg = parse_singular(parse_vector_text(PENCIL), dict(a=1, b=1, c=0))
    assert len(cfg.components) == 3          # the -c group is empty
    assert len(cfg.points) == 4


def test_parse_vectors_incidence_counts_positive():
    text = "GlCmp=-2,1,1; Si=; OD=0; LG=-3,2,-2,1;"
    cfg = parse_singular(parse_vector_text(text), {})
    assert cfg.incidence.pairs == ((3, 2), (2, 1))


def test_parse_vectors_errors():
    with pytest.raises(ConfigError):
        parse_vector_text("GlCmp=-1,1,1; Si=; OD=0")          # LG missing
    with pytest.raises(ConfigError):
        parse_vector_text("Bad=-1; GlCmp=-1,1,1; Si=; OD=0; LG=0")
    vec = parse_vector_text("GlCmp=-1,1,1,-1,2; Si=; OD=0; LG=0")
    with pytest.raises(ConfigError):
        parse_singular(vec, {})                               # broken triples
    vec = parse_vector_text("GlCmp=1,1,1; Si=; OD=0; LG=0")
    with pytest.raises(ConfigError):
        parse_singular(vec, {})                               # separator sign
    vec = parse_vector_text("GlCmp=-1,1,1; Si=-1,2,5,5,5; OD=0; LG=0")
    with pytest.raises(ConfigError):
        parse_singular(vec, {})                               # too many mults
    vec = parse_vector_text("GlCmp=-1,0,1; Si=; OD=0; LG=0")
    with pytest.raises(ConfigError):
        parse_singular(vec, {})                               # degree 0


def test_fixture_grids_never_error():
    for path in sorted(FIXTURES.glob("*.vectors")):
        vectors = parse_vector_text(path.read_text())
        for a in range(1, 6):
            for b in range(1, 6):
                for c in range(0, 5):
                    cfg = parse_singular(vectors, dict(a=a, b=b, c=c))
                    assert cfg.degree >= 1


FIVE_LINES = (FIXTURES / "five-lines.vectors").read_text()


def test_vector_template_shares_recurring_records():
    """One compiled template builds a component, point or incidence once
    for each set of slot values and hands the same object to every config
    that has it."""
    template = config_template(FIVE_LINES)
    first = template(dict(a=2, b=3, c=0))
    second = template(dict(a=2, b=5, c=0))
    assert first.components[0] is second.components[0]    # (1, a=2)
    assert first.components[2] is second.components[2]    # (1, c+1=1)
    assert first.points[1] is second.points[1]            # (3, c+1=1)
    assert first.incidence is second.incidence            # LG = -6,1
    assert first.points[0] is not second.points[0]        # (3, 2, 3), (3, 2, 5)
    assert first.points[0] == SingularPoint((1, 1), [LocalBranch(1, 2),
                                                     LocalBranch(1, 3),
                                                     LocalBranch(1, 1)])


def test_vector_memo_stays_within_its_bound():
    """Over more distinct points than `MEMO_BOUND`, every config equals a
    fresh build and no kind ever holds more than the bound."""
    vectors = parse_vector_text(FIVE_LINES)
    memo = ({}, {}, {}, {})
    side = math.isqrt(formats.MEMO_BOUND) + 1
    most = 0
    for a in range(1, side + 1):
        for b in range(1, side + 1):
            binding = dict(a=a, b=b, c=a % 3)
            assert parse_singular(vectors, binding, memo) == \
                parse_singular(parse_vector_text(FIVE_LINES), binding)
            assert max(map(len, memo)) <= formats.MEMO_BOUND
            most = max(most, *map(len, memo))
    assert most == formats.MEMO_BOUND
    assert len(memo[1]) < formats.MEMO_BOUND            # points, emptied


def test_vector_memo_shares_one_branch_per_multiplicity():
    """Every branch of multiplicity m that one template builds is one
    object, listed or padded, across points and grid points; a fresh
    template builds its own."""
    template = config_template(FIVE_LINES)
    configs = [template(dict(a=a, b=b, c=c))
               for a, b, c in itertools.product((1, 2, 5), (1, 2, 7), (0, 1))]
    by_mult = collections.defaultdict(set)
    for cfg in configs:
        for point in cfg.points:
            for branch in point.branches:
                by_mult[branch.multiplicity].add(id(branch))
    assert sorted(by_mult) == [1, 2, 5, 7]
    assert all(len(ids) == 1 for ids in by_mult.values())
    fresh = config_template(FIVE_LINES)(dict(a=2, b=2, c=1))
    assert fresh == template(dict(a=2, b=2, c=1))
    assert fresh.points[0].branches[0] is not \
        template(dict(a=2, b=2, c=1)).points[0].branches[0]


def test_vector_branch_memo_stays_within_its_bound():
    """Over more distinct multiplicities than `MEMO_BOUND`, each of the
    four memo dicts stays within the bound and the branch dict is emptied
    and refilled; every config equals a fresh build."""
    text = "GlCmp=-1,1,2; Si=-1,2,m, -1,1,m+1; OD=0; LG=0;"
    vectors = parse_vector_text(text)
    memo = ({}, {}, {}, {})
    most = 0
    for m in range(1, formats.MEMO_BOUND + 10):
        cfg = parse_singular(vectors, dict(m=m), memo)
        assert max(map(len, memo)) <= formats.MEMO_BOUND
        most = max(most, len(memo[3]))
        if m % 997 == 0:
            assert cfg == parse_singular(parse_vector_text(text), dict(m=m))
    assert most == formats.MEMO_BOUND
    assert len(memo[3]) < formats.MEMO_BOUND            # branches, emptied
    assert [b.multiplicity for p in cfg.points for b in p.branches] == \
        [m, 1, m + 1]


def test_one_template_at_bindings_in_turn_builds_fresh_configs():
    """One vector template evaluated at binding after binding, records kept
    in its memo, gives the configs of a fresh template at each."""
    for path in sorted(FIXTURES.glob("*.vectors")):
        text = path.read_text()
        template = config_template(text)
        for a, b, c in itertools.product((1, 3), (2, 1), (0, 2, 0)):
            binding = dict(a=a, b=b, c=c)
            assert template(binding) == config_template(text)(binding)


# A vector template whose `Si` multiplicity slot m evaluates to a positive
# value, 0 and a negative value across one grid, so the point groups change
# with the binding, and templates with a separator slot s at each position
# of GlCmp, Si and LG. Each expected outcome, the scan's output and its
# error, is a literal: none is derived from the code under test.
WALK = "GlCmp=-1,1,a, -1,1,2, -2,1,1; Si=-1,3,m,a, -1,2,a; OD=1; LG=-4,1;"
WALK_SCANS = [
    ((WALK, {"m": (-2, 2), "a": (1, 3)}, {}, ()),
     ("a,m,d,dprime,n_3_over_d,chi_u,flags\n1,-2,5,4,0,1,\n1,-1,5,4,0,1,\n"
      "1,0,5,4,0,1,\n1,1,5,4,0,1,\n1,2,5,4,0,1,\n2,-2,6,4,1,-1,\n"
      "2,-1,6,4,1,0,\n2,0,6,4,1,1,\n2,1,6,4,1,1,\n2,2,6,4,0,1,\n"
      "3,-2,7,4,0,-7,\n3,-1,7,4,0,-3,\n3,0,7,4,0,1,\n3,1,7,4,0,1,\n"
      "3,2,7,4,0,1,\n", None)),
    ((WALK, {"m": (-2, 2), "a": (1, 3)}, {}, ("n3d_zero", "chi_nonzero")),
     ("a,m,d,dprime,n_3_over_d,chi_u,flags\n"
      "1,-2,5,4,0,1,n3d_zero;chi_nonzero\n1,-1,5,4,0,1,n3d_zero;chi_nonzero\n"
      "1,0,5,4,0,1,n3d_zero;chi_nonzero\n1,1,5,4,0,1,n3d_zero;chi_nonzero\n"
      "1,2,5,4,0,1,n3d_zero;chi_nonzero\n2,2,6,4,0,1,n3d_zero;chi_nonzero\n"
      "3,-2,7,4,0,-7,n3d_zero;chi_nonzero\n"
      "3,-1,7,4,0,-3,n3d_zero;chi_nonzero\n"
      "3,0,7,4,0,1,n3d_zero;chi_nonzero\n3,1,7,4,0,1,n3d_zero;chi_nonzero\n"
      "3,2,7,4,0,1,n3d_zero;chi_nonzero\n", None)),
    (("GlCmp=-1,1,2; Si=-1,2,m,a,b; OD=0; LG=0;", {"m": (-2, 1)},
      {"a": 2, "b": 3}, ()),
     ("m,d,dprime,n_3_over_d,chi_u,flags\n-2,2,1,n/a,-2,\n-1,2,1,n/a,-1,\n"
      "0,2,1,n/a,0,\n",
      ("si-overflow", None, "[si-overflow] at grid point (m=1): point lists "
       "3 multiplicities for 2 branches"))),
    (("GlCmp=s,1,2, -1,1,3; Si=-1,3,2; OD=0; LG=0;", {"s": (-2, 1)}, {}, ()),
     ("s,d,dprime,n_3_over_d,chi_u,flags\n-2,7,3,0,-1,\n-1,5,2,0,-3,\n"
      "0,3,1,-1,-3,\n",
      ("separator", None, "[separator] at grid point (s=1): GlCmp entry 1 "
       "should be a negated count, got 1"))),
    (("GlCmp=-1,1,2, s,1,3; Si=-1,3,2; OD=0; LG=0;", {"s": (-2, 1)}, {}, ()),
     ("s,d,dprime,n_3_over_d,chi_u,flags\n-2,8,3,0,-1,\n-1,5,2,0,-3,\n"
      "0,2,1,n/a,-3,\n",
      ("separator", None, "[separator] at grid point (s=1): GlCmp entry 4 "
       "should be a negated count, got 1"))),
    (("GlCmp=s,1,2; Si=; OD=0; LG=0;", {"s": (-1, 0)}, {}, ()),
     ("s,d,dprime,n_3_over_d,chi_u,flags\n-1,2,1,n/a,1,\n",
      ("config-invalid", None, "[config-invalid] at grid point (s=0): a "
       "curve needs at least one component"))),
    (("GlCmp=-1,1,4; Si=s,3,2, -1,2; OD=0; LG=0;", {"s": (-2, 1)}, {}, ()),
     ("s,d,dprime,n_3_over_d,chi_u,flags\n-2,4,1,0,-8,\n-1,4,1,0,-4,\n"
      "0,4,1,0,0,\n",
      ("separator", None, "[separator] at grid point (s=1): Si entry 1 "
       "should be a negated count, got 1"))),
    (("GlCmp=-1,1,4; Si=-1,3,2, s,2; OD=0; LG=0;", {"s": (-2, 3)}, {}, ()),
     ("s,d,dprime,n_3_over_d,chi_u,flags\n-2,4,1,0,-5,\n-1,4,1,0,-4,\n"
      "0,4,1,0,-3,\n1,4,1,0,-3,\n2,4,1,0,-3,\n3,4,1,0,-3,\n", None)),
    (("GlCmp=-1,1,4; Si=-1,3,2, 2-s; OD=0; LG=0;", {"s": (0, 3)}, {}, ()),
     ("s,d,dprime,n_3_over_d,chi_u,flags\n0,4,1,0,-3,\n1,4,1,0,-3,\n",
      ("separator", None, "[separator] at grid point (s=2): Si ends before a "
       "branch count"))),
    (("GlCmp=-1,1,4; Si=-1,3,2; OD=0; LG=s,1, -1,2;", {"s": (-2, 1)}, {}, ()),
     ("s,d,dprime,n_3_over_d,chi_u,flags\n-2,4,1,0,-3,\n-1,4,1,0,-3,\n"
      "0,4,1,0,-3,\n",
      ("separator", None, "[separator] at grid point (s=1): LG entry 1 "
       "should be a negated count, got 1"))),
    (("GlCmp=-1,1,4; Si=-1,3,2; OD=0; LG=-1,1, s,2;", {"s": (-2, 1)}, {}, ()),
     ("s,d,dprime,n_3_over_d,chi_u,flags\n-2,4,1,0,-3,\n-1,4,1,0,-3,\n"
      "0,4,1,0,-3,\n",
      ("separator", None, "[separator] at grid point (s=1): LG entry 3 "
       "should be a negated count, got 1"))),
    (("GlCmp=-1,1,4; Si=-1,3,2; OD=0; LG=s-1;", {"s": (1, 2)}, {}, ()),
     ("s,d,dprime,n_3_over_d,chi_u,flags\n1,4,1,0,-3,\n",
      ("separator", None, "[separator] at grid point (s=2): LG must be "
       "(-count, value) pairs or the single entry 0"))),
]


@pytest.mark.parametrize("scan, expected", WALK_SCANS)
def test_vector_walk_follows_the_binding(scan, expected):
    """Rows, grid points, codes and messages of scans whose group structure
    or separators change with the binding."""
    out = io.StringIO()
    try:
        run_scan(ScanSpec(*scan), out)
        error = None
    except ConfigError as exc:
        error = (exc.code, exc.line, str(exc))
    assert (out.getvalue(), error) == expected


# (g, p, o, l) -> the config's (d, points, nodes, pairs) or its error, for
# a template in which every stage can fail: the first failing stage in
# GlCmp, Si, OD, LG order is the one reported
STACKED = "GlCmp=-1,1,2, -1,1,g; Si=-1,p,2,3; OD=o; LG=-1,l;"
NONPOSITIVE = "[value-nonpositive] "
STACKED_OUTCOMES = {
    (1, 3, 0, 1): (3, 1, 0, ((1, 1),)),
    (1, 3, 0, 0): ("value-nonpositive",
                   NONPOSITIVE + "incidence value must be positive, got 0"),
    (1, 3, -1, 1): ("value-nonpositive", NONPOSITIVE + "aggregated double "
                    "point count must be >= 0, got -1"),
    (1, 3, -1, 0): ("value-nonpositive", NONPOSITIVE + "aggregated double "
                    "point count must be >= 0, got -1"),
    **{(1, 1, o, l): ("si-overflow", "[si-overflow] point lists 2 "
                      "multiplicities for 1 branches")
       for o in (0, -1) for l in (1, 0)},
    **{(1, 0, o, l): ("value-nonpositive",
                      NONPOSITIVE + "branch count must be positive, got 0")
       for o in (0, -1) for l in (1, 0)},
    **{(0, p, o, l): ("value-nonpositive", NONPOSITIVE + "component "
                      "multiplicity must be positive")
       for p in (3, 1, 0) for o in (0, -1) for l in (1, 0)},
}


def test_vector_errors_keep_their_order():
    template = config_template(STACKED)
    seen = {}
    for key in STACKED_OUTCOMES:
        g, p, o, l = key
        try:
            cfg = template(dict(g=g, p=p, o=o, l=l))
            seen[key] = (cfg.degree, len(cfg.points), cfg.nodes,
                         cfg.incidence.pairs)
        except ConfigError as exc:
            assert exc.line is None
            seen[key] = (exc.code, str(exc))
    assert seen == STACKED_OUTCOMES


def outcome(build, binding):
    """The config `build` makes at `binding`, or its error's code, line and
    text."""
    try:
        return build(binding)
    except ConfigError as exc:
        return exc.code, exc.line, str(exc)


def test_vector_memo_keeps_errors_at_each_binding():
    """A binding that fails raises as a fresh parse does, after valid
    bindings have stored their records; valid bindings after it still
    build."""
    text = "GlCmp=-1,1,a-1, -1,1,b; Si=-1,c+1,a,b; OD=0; LG=-2,a-1;"
    template = config_template(text)
    bindings = [dict(a=2, b=2, c=1), dict(a=3, b=2, c=1),
                dict(a=2, b=2, c=0), dict(a=1, b=2, c=1),
                dict(a=2, b=2, c=1), dict(a=3, b=3, c=2),
                dict(a=2, b=2, c=2)]                 # mults of the first
    seen = [outcome(template, b) for b in bindings]
    assert seen == [outcome(lambda b: parse_singular(
        parse_vector_text(text), b), b) for b in bindings]
    assert seen[2] == ("si-overflow", None, "[si-overflow] point lists 2 "
                       "multiplicities for 1 branches")
    assert seen[3] == ("value-nonpositive", None, "[value-nonpositive] "
                       "component multiplicity must be positive")
    assert isinstance(seen[4], CurveConfig) and seen[4] == seen[0]


def test_vector_memo_kinds_do_not_collide():
    """A component (3, 1) and a point keyed (3, 1) are each their own
    record, in one call and across calls."""
    template = config_template("GlCmp=-1,3,a; Si=-1,3,a; OD=0; LG=0;")
    for _ in range(2):
        cfg = template(dict(a=1))
        assert cfg.components == (GlobalComponent(3, 1),)
        assert cfg.points == (SingularPoint((1, 1), [LocalBranch(1, 1)] * 3),)


def unfolded(text):
    """The vectors of `text` with every slot its own `Expr`: nothing
    evaluated at compile time, nothing shared between equal texts."""
    vectors = parse_vector_text(text)
    fields = dict(chunk.split("=", 1) for chunk in
                  "".join(line.partition("#")[0]
                          for line in text.splitlines()).split(";")
                  if chunk.strip())
    fields = {k.strip(): v for k, v in fields.items()}

    def exprs(key):
        raw = fields[key].strip()
        return tuple(map(parse_expr, raw.split(","))) if raw else ()
    folded = type(vectors)(exprs("GlCmp"), exprs("Si"),
                           parse_expr(fields["OD"]), exprs("LG"))
    assert len(folded._plan[0]) == len(folded._plan[2])   # no sharing
    return folded


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.vectors")),
                         ids=lambda p: p.stem)
def test_folded_template_builds_the_unfolded_configs(path):
    """Slots that name no parameter are ints of the compiled template, and
    every config it builds equals the one of the template whose every slot
    is evaluated at each binding."""
    text = path.read_text()
    vectors = parse_vector_text(text)
    slots = (*vectors.glcmp, *vectors.si, vectors.od, *vectors.lg)
    constant = [s for s in slots if isinstance(s, int)]
    assert 0 < len(constant) < len(slots)
    reference = unfolded(text)
    for a, b, c in itertools.product((1, 2, 7), (1, 3), (0, 1, 4)):
        binding = dict(a=a, b=b, c=c)
        assert parse_singular(vectors, binding) == \
            parse_singular(reference, binding)


def test_raising_slot_raises_at_every_binding():
    """A slot that names no parameter but raises stays a function of the
    binding: each call raises with its code and message, and a scan over
    it names the grid point."""
    text = "GlCmp=-1,1,a, -1,1 div 0,1; Si=; OD=0; LG=0;"
    vectors = parse_vector_text(text)
    assert callable(vectors.glcmp[4])
    template = config_template(text)
    for a in (1, 2, 1):
        with pytest.raises(ConfigError) as err:
            template(dict(a=a))
        assert (err.value.code, err.value.line, err.value.args[0]) == \
            ("div-zero", None, "division by zero in template")
    spec = ScanSpec(template=text, ranges={"a": (2, 3)}, fixed={})
    with pytest.raises(ConfigError) as err:
        run_scan(spec, io.StringIO())
    assert str(err.value) == \
        "[div-zero] at grid point (a=2): division by zero in template"


def shared_slots_config(c):
    """The config of `SHARED_SLOTS` at `c`, built from its records."""
    return CurveConfig(
        (GlobalComponent(1, c), GlobalComponent(c + 1, 1)),
        (SingularPoint((1, 1), [LocalBranch(1, c)] + [LocalBranch(1, 1)] * 2),
         SingularPoint((1, 1), [LocalBranch(1, c + 1), LocalBranch(1, 1)])),
        c, Incidence(((c, 1),)))


# `c` fills a slot of each vector (LG's as `-c`), and `c+1` two slots of
# two vectors
SHARED_SLOTS = "GlCmp=-1,1,c, -1,c+1,1; Si=-1,3,c, -1,2, c+1; OD=c; LG=-c,1;"


def test_variable_slots_fill_every_position_of_a_copy():
    """Each distinct variable slot text is one `Expr`, listed at each of
    its positions; at every binding, a fresh one or a repeat, each position
    takes its value, each name is read once per distinct text, and the
    compiled slots are left as they were."""
    vectors = parse_vector_text(SHARED_SLOTS)
    exprs, compiled, index, _, _ = vectors._plan
    before = list(compiled)
    assert len(exprs) == 3
    assert index == ((2, 0), (4, 1), (8, 0), (11, 1), (12, 0), (13, 2))
    template = config_template(SHARED_SLOTS)
    for c in (2, 5, 2):
        binding = CountingBinding(dict(c=c))
        assert template(binding) == shared_slots_config(c)
        assert binding.reads == {"c": 3}
        assert parse_singular(vectors, dict(c=c)) == shared_slots_config(c)
    assert compiled == before
    assert all(a is b for a, b in zip(compiled, before))


def test_literal_slots_build_equal_configs_at_any_binding():
    """A text whose slots name no parameter has no `Expr` to evaluate, and
    builds one config at every binding."""
    vectors = parse_vector_text("GlCmp=-1,1,2, -1,3,1; Si=-1,3,2, -1,2,3;"
                                " OD=2; LG=-2,1;")
    assert vectors._plan[0] == vectors._plan[2] == ()
    assert parse_singular(vectors, {}) == \
        parse_singular(vectors, dict(c=7)) == shared_slots_config(2)


@pytest.mark.parametrize("binding, name", [
    ({}, "y"), ({"y": 1}, "x"), ({"x": 1, "y": 1}, "z"),
    ({"x": 1, "y": 1, "z": 1}, "w")])
def test_unbound_names_are_reported_in_slot_order(binding, name):
    text = "GlCmp=-1,1,y, -1,x,1; Si=-1,3,x,z; OD=y+w; LG=0;"
    with pytest.raises(ConfigError) as err:
        parse_singular(parse_vector_text(text), binding)
    assert str(err.value) == f"[unbound-name] parameter {name!r} is not bound"


class CountingBinding(Mapping):
    """A binding that counts the reads of each name."""

    def __init__(self, values):
        self.values, self.reads = values, collections.Counter()

    def __contains__(self, name):
        return name in self.values

    def __getitem__(self, name):
        self.reads[name] += 1
        return self.values[name]

    def __iter__(self):
        return iter(self.values)

    def __len__(self):
        return len(self.values)


@pytest.mark.parametrize("name", ["five-lines", "lines-conic"])
def test_each_variable_slot_text_is_read_once_per_binding(name):
    """`a`, `b` and `c+1` occur two or three times each; each is evaluated
    once per binding, so each name is read once."""
    template = config_template((FIXTURES / f"{name}.vectors").read_text())
    for a, b in ((2, 3), (4, 1), (2, 3)):
        binding = CountingBinding(dict(a=a, b=b, c=1))
        template(binding)
        assert binding.reads == {"a": 1, "b": 1, "c": 1}


class ReadingBinding(CountingBinding):
    """A counting binding whose membership test is `Mapping`'s own, which
    reads the name through `__getitem__`."""

    __contains__ = Mapping.__contains__


def test_a_name_is_read_once_per_evaluation():
    """A name is looked up by one read of the binding, not by a membership
    test and a read: a binding whose membership test reads counts one read
    per name per evaluation, and an unbound name is still `unbound-name`."""
    expr = parse_expr("a * (b + 1)")
    for a, b in ((2, 3), (4, 1)):
        binding = ReadingBinding(dict(a=a, b=b))
        assert expr(binding) == a * (b + 1)
        assert binding.reads == {"a": 1, "b": 1}
    template = config_template((FIXTURES / "five-lines.vectors").read_text())
    binding = ReadingBinding(dict(a=2, b=3, c=1))
    template(binding)
    assert binding.reads == {"a": 1, "b": 1, "c": 1}
    with pytest.raises(ConfigError) as err:
        expr(ReadingBinding(dict(a=2)))
    assert str(err.value) == "[unbound-name] parameter 'b' is not bound"


# -- native dialect ----------------------------------------------------------

def test_parse_native_component():
    cfg = parse_native("component degree=2 mult=5 count=1\n")({})
    assert cfg.components == (GlobalComponent(2, 5),)


def test_parse_native_weighted_point():
    cfg = parse_native("component degree=3 mult=1 count=1\n"
                       "point weights=2,3 branches=(6:1) count=1\n")({})
    assert cfg.points[0].weights == (2, 3)
    assert cfg.points[0].branches == (LocalBranch(6, 1),)


def test_parse_native_rejects_noncoprime_weights():
    with pytest.raises(ConfigError) as err:
        parse_native("component degree=3 mult=1\n"
                     "point weights=2,2 branches=(4:1)\n")({})
    assert err.value.line == 2


def test_parse_native_rejects_bad_branch_degree():
    with pytest.raises(ConfigError) as err:
        parse_native("component degree=3 mult=1\n"
                     "point weights=2,3 branches=(4:1)\n")({})
    assert err.value.code == "branch-degree"


def test_parse_native_reduced_mode():
    cfg = parse_native("reduced n=2 degree=3 power=1\n"
                       "localwh weights=2,3 degree=6\n")({})
    assert isinstance(cfg, ReducedConeConfig)
    assert cfg.local_spectra[0] == SpectrumVector({F(5, 6): 1, F(7, 6): 1}, 2)


def test_parse_native_localspectrum_line():
    cfg = parse_native("reduced n=2 degree=3\n"
                       "localspectrum 5/6:1 7/6:1\n")({})
    assert cfg.local_spectra[0] == SpectrumVector({F(5, 6): 1, F(7, 6): 1}, 2)
    assert cfg.power == 1


def test_parse_native_mode_conflict():
    with pytest.raises(ConfigError) as err:
        parse_native("component degree=1 mult=1\nreduced n=2 degree=3\n")({})
    assert err.value.code == "mode-conflict"


@pytest.mark.parametrize("text, line, first", [
    ("component degree=1 mult=1 count=3\nincidence-matrix 1 1 1\n"
     "incidence 3x1\n", 3, "'incidence' repeats line 2"),
    ("component degree=1 mult=1 count=3\nincidence 3x1\n"
     "incidence-matrix 1 1 1\n", 3, "'incidence-matrix' repeats line 2"),
    ("nodes 1\ncomponent degree=1 mult=1 count=2\nnodes 0\n", 3,
     "'nodes' repeats line 1"),
    ("reduced n=2 degree=3\nreduced n=3 degree=3\n", 2,
     "'reduced' repeats line 1"),
])
def test_parse_native_rejects_repeated_single_lines(text, line, first):
    with pytest.raises(ConfigError) as err:
        parse_native(text)({})
    assert (err.value.code, err.value.line) == ("key-syntax", line)
    assert first in str(err.value)


def test_missing_key_message_ignores_hash_seed():
    # the first missing key is named in grammar order, whatever the set
    # iteration order of the interpreter
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("from conespec.formats import ConfigError, parse_native\n"
            "try:\n    parse_native('component\\n')({})\n"
            "except ConfigError as exc:\n    print(exc)\n")
    messages = set()
    for seed in range(8):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=str(src))
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        messages.add(run.stdout)
    assert messages == {"line 1: [key-syntax] missing key 'degree'\n"}


def test_parse_native_incidence_forms():
    cfg = parse_native("component degree=1 mult=1 count=2\nnodes 1\n"
                       "incidence 2x1\n")({})
    assert cfg.incidence.pairs == ((2, 1),)
    cfg = parse_native("component degree=1 mult=1 count=2\nnodes 1\n"
                       "incidence-matrix 1 1\n")({})
    assert cfg.incidence.matrix == ((1, 1),)
    cfg = parse_native("component degree=3 mult=1 count=2\nnodes 9\n"
                       "incidence-matrix 1 1 ; 1 1\n")({})
    assert cfg.incidence.matrix == ((1, 1), (1, 1))


def test_parse_native_templates():
    cfg = parse_native("component degree=1 mult=a count=c+1\n")(
        {"a": 4, "c": 1})
    assert [c.multiplicity for c in cfg.components] == [4, 4]
    with pytest.raises(ConfigError) as err:
        parse_native("component degree=1 mult=a count=1\n")({})
    assert err.value.code == "unbound-name"


def test_parse_native_reports_line_numbers():
    with pytest.raises(ConfigError) as err:
        parse_native("# comment\ncomponent degree=1 mult=1\nnonsense 3\n")({})
    assert err.value.line == 3
    assert err.value.code == "bad-keyword"


def test_parse_native_parses_once(monkeypatch):
    """The text is tokenized and its slots compiled when parse_native is
    called; evaluating the result at a binding does neither."""
    template = parse_native("ambient 2\n"
                            "component degree=a mult=b count=2\n"
                            "component degree=1 mult=b*a\n"
                            "point weights=1,1 branches=(1:a)(1:b) count=a\n"
                            "point weights=2,3 branches=(6:b)\n"
                            "nodes a+1\n")

    def forbidden(*args):
        raise AssertionError("native text parsed again")
    monkeypatch.setattr(formats, "_tokenize_line", forbidden)
    monkeypatch.setattr(formats, "parse_expr", forbidden)
    for a, b in ((1, 1), (2, 3), (4, 2)):
        node_pair = SingularPoint((1, 1),
                                  (LocalBranch(1, a), LocalBranch(1, b)))
        cusp = SingularPoint((2, 3), (LocalBranch(6, b),))
        assert template({"a": a, "b": b}) == CurveConfig(
            components=(GlobalComponent(a, b),) * 2
            + (GlobalComponent(1, b * a),),
            points=(node_pair,) * a + (cusp,), nodes=a + 1)


@pytest.mark.parametrize("text, code", [
    ("nodes a+1\nincidence 3x1\ncomponent degree=1 mult=1 count=2\n"
     "component degree=a mult=1\n", "value-nonpositive"),
    ("reduced n=2 degree=3 power=a+1\nlocalwh weights=2,3 degree=6\n"
     "localwh weights=a,1 degree=2*a\n", "point-invalid"),
], ids=["curve", "reduced"])
def test_parse_native_keeps_no_state_between_calls(text, code):
    # the call at a = 0 fails on the last line, after the earlier lines
    # have filled in their fields
    template = parse_native(text)
    with pytest.raises(ConfigError) as err:
        template({"a": 0})
    assert (err.value.code, err.value.line) == (code, text.count("\n"))
    first, second = template({"a": 2}), template({"a": 2})
    assert first == second == parse_native(text)({"a": 2})


HEADER = "reduced n=2 degree=3\n"


@pytest.mark.parametrize("text, line, message", [
    (HEADER + "localspectrum 1/2:1 3/2:1\nlocalspectrum 1:1\n"
     "localspectrum 7/3:1\n", 4,
     "local spectrum 7/3:1 has exponents outside (0, 2)"),
    (HEADER + "localwh weights=2,3 degree=6\nlocalspectrum 1/2:1\n"
     "localspectrum 1/2:1\n", 3, "local spectrum 1/2:1 is not symmetric"),
    (HEADER + "localspectrum 1:1\nlocalspectrum 1:-1\n", 3,
     "local spectrum 1:-1 has a negative multiplicity"),
    ("reduced n=2 degree=a\nlocalspectrum 7/3:1\n", 1,
     "degree must be positive"),
], ids=["support", "symmetry-repeated", "negative", "header-first"])
def test_refused_spectrum_names_its_line(text, line, message):
    """`ReducedConeConfig` refuses a spectrum at the line that gave it, the
    first such line when it repeats; a refused header stays at its own."""
    with pytest.raises(ConfigError) as err:
        parse_native(text)({"a": 0})
    assert (err.value.code, err.value.line, err.value.args[0]) == \
        ("config-invalid", line, message)


def test_localwh_spectrum_built_once_per_call(monkeypatch):
    """Repeated (weights, degree) lines share one spectrum within a call;
    each call builds its own, and a bad line still fails at its line."""
    calls = []

    def counting(ws):
        calls.append(ws)
        return local.weighted_spectrum(ws)
    monkeypatch.setattr(formats, "weighted_spectrum", counting)
    text = (HEADER + "localwh weights=1,1 degree=2\n" * 3
            + "localwh weights=2,3 degree=a\nlocalwh weights=1,1 degree=2\n")
    template = parse_native(text)
    cfg = template({"a": 6})
    assert len(calls) == 2
    assert cfg.local_spectra == (local.weighted_spectrum(
        local.WeightSystem((1, 1), 2)),) * 3 + (local.weighted_spectrum(
            local.WeightSystem((2, 3), 6)),) + cfg.local_spectra[:1]
    template({"a": 6})
    assert len(calls) == 4
    with pytest.raises(ConfigError) as err:
        template({"a": 7})
    assert (err.value.code, err.value.line) == ("point-invalid", 5)


def test_binding_independent_error_comes_first():
    # an unbound name on line 1, an unknown keyword on line 2: the text is
    # rejected before any binding is tried
    with pytest.raises(ConfigError) as err:
        parse_native("component degree=a mult=1\nnonsense 3\n")
    assert (err.value.code, err.value.line) == ("bad-keyword", 2)


def test_templated_multiplicity_matches_thickening():
    rng = random.Random(2020)
    for _ in range(30):
        cfg = random_reduced_swh_config(rng)
        text = re.sub(r":\d+\)", ":m)",
                      re.sub(r"mult=\d+", "mult=m", emit_native(cfg)))
        template = parse_native(text)
        for m in range(1, 5):
            literal = text.replace("mult=m", f"mult={m}").replace(
                ":m)", f":{m})")
            assert template({"m": m}) == thicken(cfg, m) == \
                parse_native(literal)({})


def test_round_trip_curve_configs():
    rng = random.Random(42)
    for trial in range(50):
        cfg = random_ordinary_config(rng, with_matrix=(trial % 2 == 0))
        assert parse_native(emit_native(cfg))({}) == cfg
    for _ in range(50):
        cfg = random_reduced_swh_config(rng)
        assert parse_native(emit_native(cfg))({}) == cfg


def test_round_trip_reduced_config():
    cfg = ReducedConeConfig(
        2, 4, (SpectrumVector({F(5, 6): 1, F(7, 6): 1}, 2),), power=3)
    assert parse_native(emit_native(cfg))({}) == cfg


# -- input errors, pinned --------------------------------------------------

def vec(glcmp="-1,1,1", si="", od="0", lg="0"):
    return f"GlCmp={glcmp}; Si={si}; OD={od}; LG={lg}"


C1 = "component degree=1 mult=1\n"
C2 = "component degree=1 mult=1 count=2\n"
R2 = "reduced n=2 degree=3\n"

# (case, dialect, text): at least one input per coded error the parsers
# raise and per constructor error they translate; the outcomes are in
# tests/golden/input-errors.txt, one "case: outcome" line each
INPUT_ERROR_CASES = [
    ("expr-char-native", "native", "component degree=1? mult=1\n"),
    ("expr-char-vector", "vector", vec(glcmp="-1,1?,1")),
    ("expr-trailing-native", "native", "component degree=(1)2 mult=1\n"),
    ("expr-trailing-vector", "vector", vec(glcmp="-1,1 2,1")),
    ("expr-paren-native", "native", "component degree=1 mult=1 count=(1\n"),
    ("expr-paren-vector", "vector", vec(glcmp="-1,(1,1")),
    ("expr-syntax-native", "native", "component degree=1+ mult=1\n"),
    ("expr-syntax-vector", "vector", vec(glcmp="-1,*1,1")),
    ("expr-empty-native", "native", "component degree= mult=1\n"),
    ("unbound-name-native", "native", "component degree=a mult=1\n"),
    ("unbound-name-vector", "vector", vec(glcmp="-1,a,1")),
    ("div-zero-native", "native", "component degree=(1 div 0) mult=1\n"),
    ("div-zero-vector", "vector", vec(glcmp="-1,1 div 0,1")),
    ("div-divisor-native", "native", "component degree=(4 div (0-2)) mult=1\n"),
    ("div-divisor-vector", "vector", vec(glcmp="-1,4 div -2,1")),
    ("div-dividend-native", "native", "component degree=(-4 div 2) mult=1\n"),
    ("div-dividend-vector", "vector", vec(glcmp="-1,-4 div 2,1")),
    ("vector-no-equals", "vector", vec() + "; junk"),
    ("vector-unknown-key", "vector", "Bad=1; " + vec()),
    ("vector-key-twice", "vector", "GlCmp=-1,1,1; " + vec()),
    ("vector-key-missing", "vector", "GlCmp=-1,1,1; Si=; OD=0"),
    ("vector-empty-entry", "vector", vec(glcmp="-1,,1")),
    ("vector-od-two", "vector", vec(od="1,2")),
    ("vector-od-empty", "vector", vec(od="")),
    ("glcmp-triples", "vector", vec(glcmp="-1,1")),
    ("glcmp-empty", "vector", vec(glcmp="")),
    ("glcmp-separator", "vector", vec(glcmp="-1,1,1,1,1,1")),
    ("glcmp-nonpositive", "vector", vec(glcmp="-1,2,0")),
    ("glcmp-nonpositive-first", "vector", vec(glcmp="-1,0,1,1,1,1")),
    ("si-separator", "vector", vec(si="1,2")),
    ("si-ends", "vector", vec(si="-1,2,1,-1")),
    ("si-branch-count", "vector", vec(si="-1,0")),
    ("si-overflow", "vector", vec(si="-1,2,5,5,5")),
    ("od-negative", "vector", vec(od="-1")),
    ("lg-pairs", "vector", vec(lg="-1")),
    ("lg-separator", "vector", vec(lg="-1,1,1,1")),
    ("lg-nonpositive", "vector", vec(lg="-1,0")),
    ("lg-nonpositive-first", "vector", vec(lg="-1,0,1,1")),
    ("vector-no-components", "vector", vec(glcmp="0,1,1")),
    ("key-no-equals", "native", "component degree=1 mult=1 junk\n"),
    ("key-duplicate", "native", "component degree=1 degree=2 mult=1\n"),
    ("key-unknown", "native", "component degree=1 mult=1 colour=2\n"),
    ("key-missing", "native", "component degree=1\n"),
    ("branch-start", "native", C1 + "point weights=1,1 branches=x(1:1)\n"),
    ("branch-malformed", "native", C1 + "point weights=1,1 branches=(1)\n"),
    ("branch-unclosed", "native", C1 + "point weights=1,1 branches=(1:1\n"),
    ("branch-nonpositive", "native", C1 + "point weights=1,1 branches=(0:1)\n"),
    ("branch-none", "native", C1 + "point weights=1,1 branches=\n"),
    ("branch-template", "native", C1 + "point weights=1,1 branches=(1:b)\n"),
    ("fraction-syntax", "native", R2 + "localspectrum a/6:1\n"),
    ("fraction-zero", "native", R2 + "localspectrum 1/0:1\n"),
    ("repeat-nodes", "native", "nodes 1\n" + C2 + "nodes 0\n"),
    ("repeat-incidence", "native",
     C2 + "incidence 1x1\n# a comment\nincidence-matrix 1 1\n"),
    ("repeat-reduced", "native", R2 + "reduced n=3 degree=3\n"),
    ("ambient-values", "native", "ambient 2 3\n" + C1),
    ("ambient-none", "native", "ambient\n" + C1),
    ("ambient-unsupported", "native", "ambient 3\n" + C1),
    ("ambient-template", "native", "ambient n\n" + C1),
    ("component-count", "native", "component degree=1 mult=1 count=0\n"),
    ("component-degree", "native", "component degree=0 mult=1\n"),
    ("component-mult", "native", "component degree=1 mult=-1\n"),
    ("weights-syntax", "native", C1 + "point weights=1 branches=(1:1)\n"),
    ("point-count", "native",
     C1 + "point weights=1,1 branches=(1:1)(1:1) count=0\n"),
    ("branch-degree", "native", C1 + "point weights=2,3 branches=(4:1)\n"),
    ("point-weights-zero", "native", C1 + "point weights=0,1 branches=(1:1)\n"),
    ("point-weights-coprime", "native",
     C1 + "point weights=2,2 branches=(2:1)\n"),
    ("point-milnor", "native",
     C1 + "point weights=2,3 branches=(2:1)(2:1)(3:1)\n"),
    ("nodes-none", "native", C1 + "nodes\n"),
    ("nodes-negative", "native", C1 + "nodes -1\n"),
    ("incidence-no-x", "native", C2 + "incidence 3\n"),
    ("incidence-not-int", "native", C2 + "incidence ax1\n"),
    ("incidence-nonpositive", "native", C2 + "incidence 0x1\n"),
    ("matrix-entry", "native", C2 + "incidence-matrix 1 a\n"),
    ("matrix-no-rows", "native", C2 + "incidence-matrix ;\n"),
    ("matrix-negative", "native", C2 + "incidence-matrix -1 1\n"),
    ("matrix-width", "native", C2 + "incidence-matrix 1 1 ; 1\n"),
    ("matrix-short", "native",
     C2 + "point weights=1,1 branches=(1:1)(1:1) count=2\n"
     "incidence-matrix 1 1\n"),
    ("localspectrum-header", "native", "localspectrum 1/2:1\n"),
    ("localspectrum-colon", "native", R2 + "localspectrum 1/2\n"),
    ("localspectrum-mult", "native", R2 + "localspectrum 1/2:x\n"),
    ("localspectrum-empty", "native", R2 + "localspectrum\n"),
    ("localspectrum-dim", "native",
     "reduced n=0 degree=3\nlocalspectrum 1/2:1\n"),
    ("localwh-header", "native", "localwh weights=2,3 degree=6\n"),
    ("localwh-weight-count", "native", R2 + "localwh weights=2 degree=6\n"),
    ("localwh-gcd", "native", R2 + "localwh weights=2,4 degree=6\n"),
    ("localwh-isolated", "native", R2 + "localwh weights=2,3 degree=3\n"),
    ("localwh-inexact", "native", R2 + "localwh weights=2,3 degree=7\n"),
    ("localwh-degree", "native", R2 + "localwh weights=1,1 degree=0\n"),
    ("bad-keyword", "native", C1 + "nonsense 3\n"),
    ("mode-conflict-curve-first", "native", C1 + R2),
    ("mode-conflict-header-first", "native", R2 + "nodes 1\n"),
    ("reduced-missing-key", "native", "reduced n=2\n"),
    ("reduced-dimension", "native", "reduced n=0 degree=3\n"),
    ("reduced-degree", "native", "reduced n=2 degree=0\n"),
    ("reduced-power", "native", "reduced n=2 degree=3 power=0\n"),
    ("reduced-support", "native", R2 + "localspectrum 5/2:1 -1/2:1\n"),
    ("reduced-symmetry", "native", R2 + "localspectrum 1/2:1\n"),
    ("reduced-negative-mult", "native", R2 + "localspectrum 1:-1\n"),
    ("no-components", "native", "nodes 0\n"),
    ("empty-native", "native", ""),
]


def input_outcome(dialect, text):
    """str() of the ConfigError the parser raises on `text`, the type and
    message of any other exception, or "ok"."""
    try:
        if dialect == "vector":
            parse_singular(parse_vector_text(text), {})
        else:
            parse_native(text)({})
    except ConfigError as exc:
        return str(exc)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return "ok"


@pytest.mark.parametrize("case, dialect, text", INPUT_ERROR_CASES,
                         ids=[case for case, _, _ in INPUT_ERROR_CASES])
def test_input_error_matches_golden(case, dialect, text):
    lines = (GOLDEN / "input-errors.txt").read_text().splitlines()
    golden = dict(line.split(": ", 1) for line in lines)
    assert input_outcome(dialect, text) == golden[case]


# (dialect, text, line, code, the record call that refuses the same value):
# each case in every dialect that can write it
RECORD_REFUSALS = [
    ("vector", vec(glcmp="-1,0,1"), None, "value-nonpositive",
     lambda: GlobalComponent(0, 1)),
    ("native", "component degree=0 mult=1\n", 1, "value-nonpositive",
     lambda: GlobalComponent(0, 1)),
    ("vector", vec(glcmp="-1,1,0"), None, "value-nonpositive",
     lambda: GlobalComponent(1, 0)),
    ("native", "component degree=1 mult=0\n", 1, "value-nonpositive",
     lambda: GlobalComponent(1, 0)),
    ("native", C1 + "point weights=1,1 branches=(0:1)\n", 2,
     "value-nonpositive", lambda: LocalBranch(0, 1)),
    ("native", C1 + "point weights=1,1 branches=(1:0)\n", 2,
     "value-nonpositive", lambda: LocalBranch(1, 0)),
    ("native", C1 + "point weights=0,1 branches=(1:1)\n", 2, "point-invalid",
     lambda: SingularPoint((0, 1), [LocalBranch(1, 1)])),
]


@pytest.mark.parametrize("dialect, text, line, code, build", RECORD_REFUSALS,
                         ids=["component-degree-vector",
                              "component-degree-native",
                              "component-mult-vector", "component-mult-native",
                              "branch-degree", "branch-mult", "point-weight"])
def test_parser_refusal_is_the_records_own(dialect, text, line, code, build):
    """A parser refuses a non-positive field with the record's own
    message under its code, so the rule and its text live in one place."""
    with pytest.raises(ValueError) as info:
        build()
    where = "" if line is None else f"line {line}: "
    assert input_outcome(dialect, text) == f"{where}[{code}] {info.value}"


# ASCII digits, the literal limit, and the 60-character quote of a long
# expression, in a slot of each dialect
@pytest.mark.parametrize("entry, outcome", [
    ("\u00b2", "[expr-char] unexpected character '\u00b2' in expression "
                "'\u00b2'"),
    ("\u0663", "[expr-char] unexpected character '\u0663' in expression "
                "'\u0663'"),
    ("9" * 5000, "[expr-limit] integer literal of 5000 digits is too long"),
    ("1+" * 2999 + "1?", "[expr-char] unexpected character '?' in expression "
                         f"{'1+' * 30!r}..."),
], ids=["superscript-two", "arabic-indic-three", "5000-digits",
        "3000-terms-quoted-short"])
def test_template_digits_are_ascii(entry, outcome):
    assert input_outcome("native", f"component degree={entry} mult=1\n") == \
        f"line 1: {outcome}"
    assert input_outcome("vector", vec(glcmp=f"-1,{entry},1")) == outcome


def _native_total(text, binding=None):
    """Parse native `text`; a rejection must be a ConfigError, and it must
    name a line unless it is about the whole config."""
    try:
        parse_native(text)(binding or {})
    except ConfigError as exc:
        assert exc.line is not None or exc.code == "config-invalid", exc


def test_parser_totality_fuzz():
    rng = random.Random(777)
    alphabet = string.printable
    for _ in range(400):
        text = "".join(rng.choice(alphabet)
                       for _ in range(rng.randint(0, 120)))
        _native_total(text)
        try:
            parse_singular(parse_vector_text(text), {})
        except ConfigError:
            pass
    # mutated fixture lines stay total too
    base = (FIXTURES / "conic-pencil.vectors").read_text()
    for _ in range(400):
        pos = rng.randrange(len(base))
        text = base[:pos] + rng.choice(alphabet) + base[pos + 1:]
        try:
            parse_singular(parse_vector_text(text), dict(a=1, b=1, c=1))
        except ConfigError:
            pass
    # mutated generator configs reach the native grammar: character edits
    # and inserted keyword lines with signed entries
    inserts = ("component degree={} mult={} count={}", "nodes {}",
               "incidence {}x{}", "incidence-matrix {} {} ; {} {}",
               "point weights=1,1 branches=({}:1)(1:{})", "ambient {}",
               "reduced n=2 degree={}", "localwh weights=2,3 degree={}",
               "localspectrum 1/{}:1")
    for trial in range(400):
        cfg = (random_reduced_swh_config(rng) if trial % 3 == 0 else
               random_ordinary_config(rng, with_matrix=trial % 3 == 1))
        lines = emit_native(cfg).splitlines()
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.5:
                line = rng.choice(inserts)
                values = [rng.randint(-2, 6) for _ in range(line.count("{}"))]
                lines.insert(rng.randint(0, len(lines)), line.format(*values))
            else:
                k = rng.randrange(len(lines))
                pos = rng.randrange(len(lines[k]) + 1)
                lines[k] = (lines[k][:pos] + rng.choice(alphabet)
                            + lines[k][pos + 1:])
        _native_total("\n".join(lines))
    # deep, long and non-ASCII-digit templates in a slot of each dialect
    atoms = ("0", "1", "7", "a")
    last = atoms + ("\u00b2", "\u0663", "9" * 4400)
    for _ in range(100):
        opening = "".join(rng.choice(("(", "-", " -", "-("))
                          for _ in range(rng.randint(0, 150)))
        body = "".join(rng.choice(atoms) + rng.choice(("+", "-", "*", " div "))
                       for _ in range(rng.randint(0, 3000)))
        text = (opening + body + rng.choice(last)
                + ")" * rng.randint(0, opening.count("(")))
        _native_total(f"component degree=({text}) mult=1\n", {"a": 1})
        try:
            parse_singular(parse_vector_text(vec(glcmp=f"-1,{text},1")),
                           {"a": 1})
        except ConfigError:
            pass


# -- emission ----------------------------------------------------------------

def test_emit_table_rows_shape():
    cfg = parse_singular(parse_vector_text(PENCIL), dict(a=2, b=5, c=2))
    text = emit_table(curve_table(cfg), "rows")
    lines = text.splitlines()
    assert lines[0].startswith("e=0: ") and lines[0].endswith(",3,9")
    assert lines[1].endswith(",3,-4")
    assert lines[2].count(",") == 12          # d-1 = 13 values
    assert lines[3] == "chi(U)=6"
    assert lines[4].startswith("# note: omitted e=2,i=14 value 0")


def test_emit_table_conic():
    text = emit_table(curve_table(CurveConfig((GlobalComponent(2, 1),))), "rows")
    assert "e=1: 1,0" in text and "chi(U)=1" in text


def test_emit_table_csv():
    table = curve_table(CurveConfig((GlobalComponent(2, 1),)))
    lines = emit_table(table, "csv").splitlines()
    assert lines[0] == "i,alpha,e,value"
    assert len(lines) == 1 + 3 * table.d
    assert "1,3/2,1,1" in lines
    assert lines[1] == "1,1/2,0,0"


def test_emit_table_matches_cell_transcription():
    """Both modes against a per-cell writer, on tables no golden has: d = 1
    and 2, negative cells, values past 10**6, rows of distinct values, list
    rows, and real tables."""
    rng = random.Random(3636)
    tables = [curve_table(CurveConfig((GlobalComponent(1, 1),))),
              curve_table(CurveConfig((GlobalComponent(2, 1),))),
              ConeSpectrumTable(1, 1, -7, ((-3,), (10**7,), (-10**9,))),
              ConeSpectrumTable(2, 2, 0, ((0, -1), (1, -10**6 - 1),
                                          (10**6 + 1, 0)))]
    for d in (3, 7, 60, 1500):
        values = rng.sample(range(-10**12, 10**12), 3 * d)
        rows = tuple(tuple(values[e * d:(e + 1) * d]) for e in range(3))
        tables.append(ConeSpectrumTable(d, d, rng.randint(-99, 99), rows))
    tables.append(ConeSpectrumTable(4, 3, 2, ([1, -2, 3, 4], [0, 0, 0, 0],
                                              [5, -6, 7, -1])))
    for _ in range(20):
        tables.append(curve_table(random_ordinary_config(rng)))
    for table in tables:
        for mode in ("rows", "csv"):
            assert emit_table(table, mode) == emit_table_by_cells(table, mode)


def test_emit_table_rejects_unknown_mode():
    table = curve_table(CurveConfig((GlobalComponent(2, 1),)))
    with pytest.raises(ValueError, match="unknown table mode 'json'"):
        emit_table(table, "json")


def test_looks_like_vectors():
    assert looks_like_vectors(PENCIL)
    assert not looks_like_vectors("component degree=1 mult=1\n")
    assert not looks_like_vectors("# GlCmp mentioned in a comment only\n"
                                  "component degree=1 mult=1\n")
