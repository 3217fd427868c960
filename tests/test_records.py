"""The value records of the package behave as immutable values.

One instance of each record class is checked for its repr text, equality
and hash of equal values, refused assignment and deletion, keyword
construction with defaults, and copy and pickle round trips. The
constructors, `SpectrumVector`'s too, reject a bad field with its message,
and `SingularPoint` a bad branch degree or Milnor number with the message
the CLI prints. Every integer field takes 2.0 as 2 and refuses 2.5 and None
with a message that names it; a call with two bad fields names the first.
"""

import copy
import pickle

import pytest

from conespec.cli import DEFAULT_CAP, ScanSpec
from conespec.engine import (ConeSpectrumTable, CurveConfig, GlobalComponent,
                             Incidence, ReducedConeConfig, curve_table)
from conespec.formats import SingularVectors
from conespec.local import LocalBranch, SingularPoint, WeightSystem
from conespec.oracle import CheckReport, CheckResult
from conespec.spectrum import SpectrumVector


def curve_config():
    return CurveConfig(
        [GlobalComponent(1, 2), GlobalComponent(1, 1)],
        [SingularPoint((1, 1), [LocalBranch(1, 2), LocalBranch(1, 1)])],
        nodes=1, incidence=Incidence([(1, 1), (1, 2)], [[2, 1]]))


def table():
    return ConeSpectrumTable(3, 2, 1, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))


def report():
    return CheckReport((CheckResult("row-sum", True, kind="identity"),
                        CheckResult("rows-agree", False, "at (i=1, e=0)")),
                       "ordinary")


# (constructor of one instance, its repr)
CASES = [
    (lambda: GlobalComponent(2, 3),
     "GlobalComponent(degree=2, multiplicity=3)"),
    (lambda: Incidence([(1, 2)], [[2, 0]]),
     "Incidence(pairs=((1, 2),), matrix=((2, 0),))"),
    (curve_config,
     "CurveConfig(components=(GlobalComponent(degree=1, multiplicity=2), "
     "GlobalComponent(degree=1, multiplicity=1)), "
     "points=(SingularPoint(weights=(1, 1), "
     "branches=(LocalBranch(weighted_degree=1, multiplicity=2), "
     "LocalBranch(weighted_degree=1, multiplicity=1))),), nodes=1, "
     "incidence=Incidence(pairs=((1, 1), (1, 2)), matrix=((2, 1),)))"),
    (table,
     "ConeSpectrumTable(d=3, dprime=2, chi_u=1, "
     "rows=((1, 0, 0), (0, 1, 0), (0, 0, 1)))"),
    (lambda: ReducedConeConfig(2, 4, [SpectrumVector({1: 1}, 2)], 2),
     "ReducedConeConfig(ambient_dim=2, degree=4, "
     "local_spectra=(SpectrumVector({1:1}, ambient_dim=2),), power=2)"),
    (lambda: WeightSystem([2, 3], 6),
     "WeightSystem(weights=(2, 3), degree=6)"),
    (lambda: LocalBranch(3, 2),
     "LocalBranch(weighted_degree=3, multiplicity=2)"),
    (lambda: SingularPoint((2, 3), [LocalBranch(6, 1)]),
     "SingularPoint(weights=(2, 3), "
     "branches=(LocalBranch(weighted_degree=6, multiplicity=1),))"),
    (lambda: SingularVectors((1, 2), (), 0, (3,)),
     "SingularVectors(glcmp=(1, 2), si=(), od=0, lg=(3,))"),
    (lambda: CheckResult("row-sum", True),
     "CheckResult(name='row-sum', passed=True, detail='', kind='oracle')"),
    (report,
     "CheckReport(checks=(CheckResult(name='row-sum', passed=True, "
     "detail='', kind='identity'), CheckResult(name='rows-agree', "
     "passed=False, detail='at (i=1, e=0)', kind='oracle')), "
     "note='ordinary')"),
    (lambda: ScanSpec("GlCmp=1,a;", {"a": (1, 2)}, {"b": 3}),
     "ScanSpec(template='GlCmp=1,a;', ranges={'a': (1, 2)}, "
     "fixed={'b': 3}, predicates=(), cap=1000000)"),
]

IDS = [text.partition("(")[0] for _, text in CASES]


@pytest.mark.parametrize("make, text", CASES, ids=IDS)
def test_repr_equality_and_hash(make, text):
    one, two = make(), make()
    assert repr(one) == text
    assert one == two and not one != two
    assert one is not two
    if isinstance(one, ScanSpec):
        # its ranges and bindings are dicts
        with pytest.raises(TypeError):
            hash(one)
    else:
        assert hash(one) == hash(two)


@pytest.mark.parametrize("make, text", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(make, text):
    record = make()
    field = text.partition("(")[2].partition("=")[0]
    before = repr(record)
    with pytest.raises(AttributeError):
        setattr(record, field, 0)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.unknown_field = 0
    assert repr(record) == before


def test_records_of_different_classes_differ():
    assert LocalBranch(3, 2) != GlobalComponent(3, 2)
    assert not LocalBranch(3, 2) == GlobalComponent(3, 2)
    assert LocalBranch(3, 2) != (3, 2)


def test_keyword_construction_with_defaults():
    cfg = CurveConfig(components=[GlobalComponent(degree=2, multiplicity=1)])
    assert (cfg.points, cfg.nodes, cfg.incidence) == ((), 0, None)
    assert cfg.components == (GlobalComponent(2, 1),)
    assert Incidence(pairs=[(1, 2)]).matrix is None
    reduced = ReducedConeConfig(ambient_dim=3, degree=2)
    assert (reduced.local_spectra, reduced.power) == ((), 1)
    check = CheckResult(name="x", passed=False)
    assert (check.detail, check.kind) == ("", "oracle")
    assert CheckReport(checks=()).note == ""
    spec = ScanSpec(template="", ranges={}, fixed={})
    assert (spec.predicates, spec.cap) == ((), DEFAULT_CAP)


# (constructor call with one bad field, its message)
REJECTED = [
    (lambda: GlobalComponent(0, 1), "component degree must be positive"),
    (lambda: GlobalComponent(1, 0), "component multiplicity must be positive"),
    (lambda: Incidence([(0, 1)]), "incidence count must be positive"),
    (lambda: Incidence([(1, 0)]), "incidence value must be positive"),
    (lambda: CurveConfig([GlobalComponent(1, 1)], nodes=-1),
     "node count must be >= 0"),
    (lambda: WeightSystem([], 1), "weight system needs at least one weight"),
    (lambda: LocalBranch(0, 1), "branch weighted degree must be positive"),
    (lambda: LocalBranch(1, 0), "branch multiplicity must be positive"),
    (lambda: SingularPoint((1, 1), []),
     "a singular point needs at least one branch"),
    (lambda: SingularPoint((2, 3), [LocalBranch(4, 1)]),
     "branch degrees must lie in {w, w', w*w'} = {2, 3, 6}"),
    (lambda: SingularPoint((2, 3), [LocalBranch(2, 1), LocalBranch(2, 1),
                                    LocalBranch(3, 1)]),
     "invalid point data: Milnor number (7-2)(7-3)/6 is not a nonnegative "
     "integer"),
    (lambda: SingularPoint((1, 1), [LocalBranch(2, 1), LocalBranch(1, 1)]),
     "branch degrees must lie in {w, w', w*w'} = {1}"),
    (lambda: SpectrumVector({1: 1}, 2, denominator=0),
     "denominator must be positive"),
    (lambda: ReducedConeConfig(2.5, 4),
     "ambient dimension 2.5 is not an integer"),
    (lambda: ReducedConeConfig(2, 4.5), "degree 4.5 is not an integer"),
    (lambda: ReducedConeConfig(2, 4, (), 2.5), "power 2.5 is not an integer"),
    (lambda: SingularPoint((1, 1, 1), [LocalBranch(1, 1)]),
     "point weights (1, 1, 1) must be a pair"),
    (lambda: ConeSpectrumTable(0, 0, 0, ((), (), ())), "d must be positive"),
    (lambda: GlobalComponent(0, 2.5), "component degree must be positive"),
    (lambda: LocalBranch(6.5, 0), "branch weighted degree 6.5 is not an "
                                  "integer"),
    (lambda: ReducedConeConfig(0, 4.5), "ambient dimension must be positive"),
]


@pytest.mark.parametrize("make, message", REJECTED, ids=[
    "component-degree", "component-multiplicity", "incidence-count",
    "incidence-value", "curve-nodes", "weights-empty", "branch-degree",
    "branch-multiplicity", "point-no-branch", "point-branch-degree",
    "point-milnor", "point-fat-ordinary", "spectrum-denominator",
    "reduced-ambient-dim", "reduced-degree", "reduced-power",
    "point-weight-triple", "table-d", "first-of-two-component",
    "first-of-two-branch", "first-of-two-reduced"])
def test_constructor_rejects_a_bad_field(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


def test_reduced_cone_config_takes_integral_values_as_ints():
    node = SpectrumVector({1: 1}, 2)
    cfg = ReducedConeConfig(2.0, 4.0, [node], 2.0)
    assert cfg == ReducedConeConfig(2, 4, [node], 2)
    assert [type(v) for v in (cfg.ambient_dim, cfg.degree, cfg.power)] == [
        int, int, int]


def test_table_keeps_its_rows_as_tuples():
    """A table built from lists is the table built from tuples: equal,
    with the same hash, its rows tuples."""
    lists = ConeSpectrumTable(2, 2, 0, [[1, 0], [0, 0], [0, -1]])
    tuples = ConeSpectrumTable(2, 2, 0, ((1, 0), (0, 0), (0, -1)))
    assert lists == tuples and hash(lists) == hash(tuples)
    assert lists.rows == ((1, 0), (0, 0), (0, -1))


def round_trips(record):
    return [copy.copy(record), copy.deepcopy(record),
            pickle.loads(pickle.dumps(record))]


@pytest.mark.parametrize("make, text", CASES, ids=IDS)
def test_copy_and_pickle_keep_the_value(make, text):
    record = make()
    for clone in round_trips(record):
        assert type(clone) is type(record)
        assert clone == record
        assert repr(clone) == text


def test_curve_config_round_trip_keeps_points_and_incidence():
    cfg = curve_config()
    for clone in round_trips(cfg):
        assert clone.points == cfg.points
        assert clone.incidence == cfg.incidence
        assert clone.incidence.matrix == ((2, 1),)
        assert clone.nodes == 1


def test_report_round_trip_keeps_its_checks():
    original = report()
    for clone in round_trips(original):
        assert clone.checks == original.checks
        assert clone.render() == original.render()
        assert clone.record() == original.record()


def test_derived_slot_is_no_field():
    """`SingularPoint._key` is derived by the constructor: equality, hash,
    repr, copy and pickle read the fields only, and a rebuilt point derives
    the same key."""
    point = SingularPoint((2, 3), [LocalBranch(6, 2), LocalBranch(2, 1),
                                   LocalBranch(6, 1)])
    assert SingularPoint._fields == ("weights", "branches")
    assert point._key == ((2, 3), ((1, 8), (2, 6)), 14, 20, 22)
    assert "_key" not in repr(point)
    assert point.__reduce__() == (SingularPoint,
                                  (point.weights, point.branches))
    twin = SingularPoint(point.weights, point.branches)
    assert twin == point and hash(twin) == hash(point)
    assert hash(point) == hash(point._values())
    for clone in round_trips(point):
        assert clone == point and clone._key == point._key
    with pytest.raises(AttributeError):
        setattr(point, "_key", None)


# (constructor call with one non-integral field, its message); the parent
# truncated or kept each of these values
NOT_INTEGRAL = [
    (lambda: CurveConfig([GlobalComponent(1, 1)], nodes=0.5),
     "node count 0.5 is not an integer"),
    (lambda: Incidence([(1, 2.7)]), "incidence value 2.7 is not an integer"),
    (lambda: Incidence([(1.5, 2)]), "incidence count 1.5 is not an integer"),
    (lambda: Incidence.from_matrix([[2.5, 1]]),
     "incidence matrix entry 2.5 is not an integer"),
    (lambda: WeightSystem((1.9, 3), 7), "weight 1.9 is not an integer"),
    (lambda: WeightSystem((2, 3), 6.5),
     "weighted degree 6.5 is not an integer"),
    (lambda: SpectrumVector({1: 1}, 2.5), "ambient_dim 2.5 is not an integer"),
    (lambda: GlobalComponent(2.5, 1), "component degree 2.5 is not an integer"),
    (lambda: GlobalComponent(2, 1.5),
     "component multiplicity 1.5 is not an integer"),
    (lambda: LocalBranch(6.5, 1),
     "branch weighted degree 6.5 is not an integer"),
    (lambda: LocalBranch(6, 0.5), "branch multiplicity 0.5 is not an integer"),
    (lambda: GlobalComponent(float("inf"), 1),
     "component degree inf is not an integer"),
    (lambda: LocalBranch(6, float("nan")),
     "branch multiplicity nan is not an integer"),
    (lambda: CurveConfig([GlobalComponent(1, 1)], nodes=float("-inf")),
     "node count -inf is not an integer"),
    (lambda: GlobalComponent(None, 1),
     "component degree None is not an integer"),
    (lambda: SpectrumVector({1: None}, 2),
     "multiplicity None is not an integer"),
    (lambda: SingularPoint((2.0, 1.5), [LocalBranch(1, 1)]),
     "point weight 1.5 is not an integer"),
    (lambda: SpectrumVector({}, None), "ambient_dim None is not an integer"),
    (lambda: SpectrumVector({1: 1}, 1, denominator=1.5),
     "denominator 1.5 is not an integer"),
    (lambda: ConeSpectrumTable(2.5, 2, 0, ((1, 0), (0, 0), (0, 0))),
     "d 2.5 is not an integer"),
]

# (a record built from one integer field's value, the field's name in the
# messages): every integer field of every record the paper's inputs reach,
# but `SpectrumVector`'s denominator, whose None means fraction exponents
INTEGER_FIELDS = [
    (lambda v: GlobalComponent(v, 1), "component degree"),
    (lambda v: GlobalComponent(1, v), "component multiplicity"),
    (lambda v: LocalBranch(v, 1), "branch weighted degree"),
    (lambda v: LocalBranch(6, v), "branch multiplicity"),
    (lambda v: WeightSystem((v, 3), 7), "weight"),
    (lambda v: WeightSystem((2, 3), v), "weighted degree"),
    (lambda v: SingularPoint((v, 3), [LocalBranch(6, 1)]), "point weight"),
    (lambda v: SingularPoint((3, v), [LocalBranch(6, 1)]), "point weight"),
    (lambda v: Incidence([(v, 1)]), "incidence count"),
    (lambda v: Incidence([(1, v)]), "incidence value"),
    (lambda v: Incidence([(1, 2)], [[v, 0]]), "incidence matrix entry"),
    (lambda v: CurveConfig([GlobalComponent(1, 1)], nodes=v), "node count"),
    (lambda v: ConeSpectrumTable(v, 2, 0, ((1, 0), (0, 0), (0, 0))), "d"),
    (lambda v: ConeSpectrumTable(2, v, 0, ((1, 0), (0, 0), (0, 0))),
     "dprime"),
    (lambda v: ConeSpectrumTable(2, 2, v, ((1, 0), (0, 0), (0, 0))), "chi_u"),
    (lambda v: ReducedConeConfig(v, 4), "ambient dimension"),
    (lambda v: ReducedConeConfig(2, v), "degree"),
    (lambda v: ReducedConeConfig(2, 4, (), v), "power"),
    (lambda v: SpectrumVector({1: 1}, v), "ambient_dim"),
    (lambda v: SpectrumVector({1: v}, 2), "multiplicity"),
]


def test_integer_fields_refuse_other_numbers():
    """An integral value (2 or 2.0) is taken as an int, as
    `SpectrumVector` takes a multiplicity; any other is refused."""
    for make, message in NOT_INTEGRAL:
        with pytest.raises(ValueError) as info:
            make()
        assert str(info.value) == message
    cfg = CurveConfig([GlobalComponent(1, 1)], nodes=2.0)
    assert type(cfg.nodes) is int and cfg._derived[4] == -1
    assert repr(Incidence([(1, 2.0)], [[2.0, 0]])) == repr(
        Incidence([(1, 2)], [[2, 0]]))
    assert repr(WeightSystem((2.0, 3), 6.0)) == repr(WeightSystem((2, 3), 6))
    assert type(SpectrumVector({1: 1}, 2.0).ambient_dim) is int
    assert repr(GlobalComponent(2.0, 3.0)) == repr(GlobalComponent(2, 3))
    assert repr(LocalBranch(6.0, 2.0)) == repr(LocalBranch(6, 2))
    assert curve_table(CurveConfig([GlobalComponent(2.0, 1)])) == \
        curve_table(CurveConfig([GlobalComponent(2, 1)]))
    for make, what in INTEGER_FIELDS:
        assert repr(make(2.0)) == repr(make(2)), what
        for value in (2.5, None):
            with pytest.raises(ValueError) as info:
                make(value)
            assert str(info.value) == f"{what} {value!r} is not an integer"
    point = SingularPoint((2.0, 3), [LocalBranch(6, 1)])
    assert point == SingularPoint((2, 3), [LocalBranch(6, 1)])
    assert point._key == SingularPoint((2, 3), [LocalBranch(6, 1)])._key
    flat = ConeSpectrumTable(2.0, 2, 0, ((1, 0), (0, 0), (0, 0)))
    assert flat.as_spectrum() == SpectrumVector({"1/2": 1}, 3)
    assert SpectrumVector({1: 1}, 2, denominator=2.0).denominator == 2


@pytest.mark.parametrize("pairs, matrix", [
    (((1, 2),), ((3, 3),)),
    (((1, 2),), ((2, 2),)),
    (((2, 2), (1, 1)), ((2, 2),)),
    ((), ((1, 0),)),
    (((1, 1),), ((0, 0),)),
])
def test_incidence_refuses_pairs_that_disagree_with_its_matrix(pairs, matrix):
    with pytest.raises(ValueError) as info:
        Incidence(pairs, matrix)
    assert str(info.value) == ("incidence pairs disagree with the matrix's "
                               "count of each value")


def test_incidence_pairs_may_split_a_count_of_the_matrix():
    """The check compares the total count per value, so pairs in any order
    and split over several entries agree with the matrix, and
    `from_matrix` gives the sorted pairs."""
    matrix = ((2, 1), (2, 0), (0, 2))
    assert Incidence(((1, 2), (1, 1), (2, 2)), matrix).matrix == matrix
    assert Incidence.from_matrix(matrix).pairs == ((1, 1), (3, 2))
    assert Incidence.from_matrix([[0, 0]]).pairs == ()
