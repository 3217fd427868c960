"""The paper's stated special case: reduced line arrangements.

The paper's curve formula generalises Budur and Saito's formula for the
spectrum of a reduced line arrangement (`reference.line_arrangement_count`),
which reads only the number d of lines and the number nu_m of points of
each multiplicity m. Every cell of `curve_table` is compared with it on
arrangements that exist (generic, pencil, near-pencil, Ceva, Hesse and its
dual, random lines with small integer coefficients, and the `five-lines`
fixture at a = b = 1, c = 0) and on seeded (d, nu) data that only count
the pairs of lines right, sum nu_m C(m, 2) = C(d, 2), which need not be an
arrangement. The formula was transcribed from memory of the paper; see
its docstring.
"""

import random
from pathlib import Path

from conespec.engine import curve_table
from conespec.formats import config_template
from generators import (line_arrangement_curve, named_line_arrangements,
                        random_line_arrangement, random_line_arrangement_data)
from reference import line_arrangement_count

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _negative(rows) -> bool:
    """Whether a cell at i < d is negative."""
    return min(min(row[:-1]) for row in rows) < 0


def test_named_arrangements_are_the_count():
    names, negative = set(), 0
    for name, d, nu in named_line_arrangements():
        rows = curve_table(line_arrangement_curve(d, nu)).rows
        assert rows == line_arrangement_count(d, nu), name
        names.add(name)
        negative += _negative(rows)
    assert len(names) == 3 * 27 + 6 + 2
    assert negative > 0


def test_random_arrangements_are_the_count():
    rng = random.Random(31)
    for _ in range(300):
        d, nu = random_line_arrangement(rng)
        assert curve_table(line_arrangement_curve(d, nu)).rows == \
            line_arrangement_count(d, nu), (d, nu)


def test_random_data_are_the_count():
    rng = random.Random(31)
    negative = 0
    for _ in range(3000):
        d, nu = random_line_arrangement_data(rng)
        rows = curve_table(line_arrangement_curve(d, nu)).rows
        assert rows == line_arrangement_count(d, nu), (d, nu)
        negative += _negative(rows)
    assert negative > 0


def test_five_lines_fixture_is_the_count():
    """five-lines at a = b = 1, c = 0 is five reduced lines with two triple
    points and four nodes."""
    text = (FIXTURES / "five-lines.vectors").read_text()
    cfg = config_template(text)({"a": 1, "b": 1, "c": 0})
    assert (cfg.degree, cfg.nodes) == (5, 4)
    assert [p.branch_count for p in cfg.points] == [3, 3]
    assert curve_table(cfg).rows == line_arrangement_count(5, {3: 2, 2: 4})
