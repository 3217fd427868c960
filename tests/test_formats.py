import random
import string
from fractions import Fraction
from pathlib import Path

import pytest

from conespec.engine import (CurveConfig, GlobalComponent,
                             ReducedConeConfig, curve_table)
from conespec.formats import (BinOp, ConfigError, Name, Neg, Num, emit_native,
                              emit_table, eval_expr, looks_like_vectors,
                              parse_expr, parse_native, parse_singular,
                              parse_vector_text, render_expr)
from conespec.local import LocalBranch
from conespec.spectrum import SpectrumVector
from generators import random_ordinary_config, random_reduced_swh_config

F = Fraction
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


# -- template expressions ----------------------------------------------------

def ev(text, **binding):
    return eval_expr(parse_expr(text), binding)


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
                eval_expr(reparsed, binding)
            continue
        assert eval_expr(reparsed, binding) == want
        agreed += 1
    assert agreed > 5000


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


# -- native dialect ----------------------------------------------------------

def test_parse_native_component():
    cfg = parse_native("component degree=2 mult=5 count=1\n")
    assert cfg.components == (GlobalComponent(2, 5),)


def test_parse_native_weighted_point():
    cfg = parse_native("component degree=3 mult=1 count=1\n"
                       "point weights=2,3 branches=(6:1) count=1\n")
    assert cfg.points[0].weights == (2, 3)
    assert cfg.points[0].branches == (LocalBranch(6, 1),)


def test_parse_native_rejects_noncoprime_weights():
    with pytest.raises(ConfigError) as err:
        parse_native("component degree=3 mult=1\n"
                     "point weights=2,2 branches=(4:1)\n")
    assert err.value.line == 2


def test_parse_native_rejects_bad_branch_degree():
    with pytest.raises(ConfigError) as err:
        parse_native("component degree=3 mult=1\n"
                     "point weights=2,3 branches=(4:1)\n")
    assert err.value.code == "branch-degree"


def test_parse_native_reduced_mode():
    cfg = parse_native("reduced n=2 degree=3 power=1\n"
                       "localwh weights=2,3 degree=6\n")
    assert isinstance(cfg, ReducedConeConfig)
    assert cfg.local_spectra[0] == SpectrumVector({F(5, 6): 1, F(7, 6): 1}, 2)


def test_parse_native_localspectrum_line():
    cfg = parse_native("reduced n=2 degree=3\n"
                       "localspectrum 5/6:1 7/6:1\n")
    assert cfg.local_spectra[0] == SpectrumVector({F(5, 6): 1, F(7, 6): 1}, 2)
    assert cfg.power == 1


def test_parse_native_mode_conflict():
    with pytest.raises(ConfigError) as err:
        parse_native("component degree=1 mult=1\nreduced n=2 degree=3\n")
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
        parse_native(text)
    assert (err.value.code, err.value.line) == ("key-syntax", line)
    assert first in str(err.value)


def test_parse_native_incidence_forms():
    cfg = parse_native("component degree=1 mult=1 count=2\nnodes 1\n"
                       "incidence 2x1\n")
    assert cfg.incidence.pairs == ((2, 1),)
    cfg = parse_native("component degree=1 mult=1 count=2\nnodes 1\n"
                       "incidence-matrix 1 1\n")
    assert cfg.incidence.matrix == ((1, 1),)
    cfg = parse_native("component degree=3 mult=1 count=2\nnodes 9\n"
                       "incidence-matrix 1 1 ; 1 1\n")
    assert cfg.incidence.matrix == ((1, 1), (1, 1))


def test_parse_native_templates():
    cfg = parse_native("component degree=1 mult=a count=c+1\n",
                       {"a": 4, "c": 1})
    assert [c.multiplicity for c in cfg.components] == [4, 4]
    with pytest.raises(ConfigError) as err:
        parse_native("component degree=1 mult=a count=1\n")
    assert err.value.code == "unbound-name"


def test_parse_native_reports_line_numbers():
    with pytest.raises(ConfigError) as err:
        parse_native("# comment\ncomponent degree=1 mult=1\nnonsense 3\n")
    assert err.value.line == 3
    assert err.value.code == "bad-keyword"


def test_round_trip_curve_configs():
    rng = random.Random(42)
    for trial in range(50):
        cfg = random_ordinary_config(rng, with_matrix=(trial % 2 == 0))
        assert parse_native(emit_native(cfg)) == cfg
    for _ in range(50):
        cfg = random_reduced_swh_config(rng)
        assert parse_native(emit_native(cfg)) == cfg


def test_round_trip_reduced_config():
    cfg = ReducedConeConfig(
        2, 4, (SpectrumVector({F(5, 6): 1, F(7, 6): 1}, 2),), power=3)
    assert parse_native(emit_native(cfg)) == cfg


def test_parser_totality_fuzz():
    rng = random.Random(777)
    alphabet = string.printable
    for _ in range(400):
        text = "".join(rng.choice(alphabet)
                       for _ in range(rng.randint(0, 120)))
        for parser in (parse_native,):
            try:
                parser(text)
            except ConfigError:
                pass
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


def test_looks_like_vectors():
    assert looks_like_vectors(PENCIL)
    assert not looks_like_vectors("component degree=1 mult=1\n")
    assert not looks_like_vectors("# GlCmp mentioned in a comment only\n"
                                  "component degree=1 mult=1\n")
