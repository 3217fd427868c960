import os
import subprocess
import sys
from pathlib import Path

import pytest

import conespec.cli
import conespec.engine
import conespec.formats
import conespec.oracle
from conespec.cli import (DEFAULT_CAP, ScanSpec, _parse_params, _parse_ranges,
                          main, run_scan)
from conespec.engine import (CurveConfig, GlobalComponent, curve_table,
                             reduced_cone_spectrum)
from conespec.formats import ConfigError
from conespec.local import LocalBranch, SingularPoint
from conespec.spectrum import SpectrumVector
from test_oracle import floor_rows_built, load

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


GOLDEN_CASES = [
    ("conic-pencil.vectors", dict(a=2, b=5, c=2), "conic-pencil_a2_b5_c2.rows"),
    ("cubic-pencil.vectors", dict(a=3, b=2, c=2), "cubic-pencil_a3_b2_c2.rows"),
    ("quartic-pencil.vectors", dict(a=2, b=3, c=1), "quartic-pencil_a2_b3_c1.rows"),
    ("sextic-pencil.vectors", dict(a=3, b=2, c=1), "sextic-pencil_a3_b2_c1.rows"),
    ("five-lines.vectors", dict(a=4, b=2, c=0), "five-lines_a4_b2_c0.rows"),
    ("five-lines.vectors", dict(a=5, b=1, c=0), "five-lines_a5_b1_c0.rows"),
    ("lines-conic.vectors", dict(a=1, b=1, c=4), "lines-conic_a1_b1_c4.rows"),
]


@pytest.mark.parametrize("fixture,params,golden", GOLDEN_CASES)
def test_compute_matches_golden(capsys, fixture, params, golden):
    argv = ["compute", FIXTURES / fixture]
    for name, value in params.items():
        argv += ["--param", f"{name}={value}"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


@pytest.mark.parametrize("fixture,params,golden", GOLDEN_CASES)
def test_compute_cor2_matches_golden(capsys, fixture, params, golden):
    argv = ["compute", FIXTURES / fixture, "--middle=cor2"]
    for name, value in params.items():
        argv += ["--param", f"{name}={value}"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


@pytest.mark.parametrize("fixture,params,golden", GOLDEN_CASES)
def test_compute_csv_matches_golden(capsys, fixture, params, golden):
    """`compute --format csv` prints tests/golden/<case>.csv byte for byte."""
    argv = ["compute", FIXTURES / fixture, "--format=csv"]
    for name, value in params.items():
        argv += ["--param", f"{name}={value}"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.encode() == (GOLDEN / golden).with_suffix(".csv").read_bytes()


def test_compute_csv_format(capsys):
    code, out, _ = run(capsys, "compute", FIXTURES / "five-lines.vectors",
                       "--format=csv", "--param", "a=4", "--param", "b=2",
                       "--param", "c=0")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "i,alpha,e,value"
    assert len(lines) == 1 + 27
    assert "9,1,0,4" in lines          # alpha = 1 cell of the first row
    assert "9,3,2,0" in lines          # the suppressed alpha = 3 cell


def test_compute_cor2_rejects_weighted_config(capsys):
    code, _, err = run(capsys, "compute",
                       FIXTURES / "doubled-cuspidal-cubic.cfg",
                       "--middle=cor2")
    assert code == 2
    assert "[middle-unavailable]" in err


@pytest.mark.parametrize("command", [["compute"], ["verify"], ["oracle"],
                                     ["compute", "--middle", "cor2"]])
def test_one_row_pass_per_command(capsys, command):
    """``compute``, ``verify``, ``oracle`` and ``compute --middle cor2``
    build exactly the floor rows of one `curve_table`, the incidence middle
    row included, whichever module imported the function that builds them:
    the rows are counted at `_floor_row` itself."""
    table_rows = floor_rows_built(curve_table,
                                  load("conic-pencil.vectors", a=2, b=5, c=2))
    assert len(table_rows) == 3     # the twist row, two distinct points
    ran = []
    assert floor_rows_built(lambda: ran.append(run(
        capsys, command[0], FIXTURES / "conic-pencil.vectors", *command[1:],
        "--param", "a=2", "--param", "b=5", "--param", "c=2"))) == table_rows
    code, out, _ = ran[0]
    assert code == 0
    assert "middle-" in out or command[0] == "compute"


def test_compute_rejects_reduced_config(capsys):
    code, _, err = run(capsys, "compute", FIXTURES / "cuspidal-cubic.cfg")
    assert code == 2
    assert "reduced" in err


def test_compute_missing_param(capsys):
    code, _, err = run(capsys, "compute", FIXTURES / "conic-pencil.vectors")
    assert code == 2
    assert "unbound-name" in err


def test_compute_missing_file(capsys):
    path = FIXTURES / "no-such-file.cfg"
    code, out, err = run(capsys, "compute", path)
    assert code == 2
    assert out == ""
    assert err == (f"error: [input-unreadable] cannot read {str(path)!r}: "
                   "No such file or directory\n")


def test_unreadable_file_has_a_code(capsys, tmp_path):
    """A directory given as FILE cannot be read: coded like a missing file."""
    code, out, err = run(capsys, "scan", tmp_path, "--range", "a=1..2")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: [input-unreadable] cannot read "
                          f"{str(tmp_path)!r}: ")


def test_reduced_cuspidal_cubic(capsys):
    code, out, _ = run(capsys, "reduced", FIXTURES / "cuspidal-cubic.cfg")
    assert code == 0
    assert out.splitlines()[0] == "4/3:1, 5/3:1"
    assert "e=0: 0,0,0" in out


def test_reduced_conic_power(capsys):
    code, out, _ = run(capsys, "reduced", FIXTURES / "conic-squared.cfg")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "3/2:1"
    assert lines[1] == "power m=2: 5/4:1, 7/4:1, 5/2:1"


# command, fixture and the denominator m*d' of its power grid: `reduced`
# writes the power line, `verify` checks it on a reduced config (power 2)
# and on a curve whose multiplicities all equal 2
POWER_ROUTES = [("reduced", "conic-squared", 4),
                ("verify", "conic-squared", 4),
                ("verify", "doubled-cuspidal-cubic", 6)]


@pytest.mark.parametrize("command,name,power_den", POWER_ROUTES,
                         ids=[f"{c}-{n}" for c, n, _ in POWER_ROUTES])
def test_reduced_builds_no_power_vector(capsys, monkeypatch, command, name,
                                        power_den):
    """``reduced`` writes its power line from the power blocks, and
    ``verify`` checks the power transform on the dense row they stand for:
    once the base spectrum is built, no `SpectrumVector` is built on the
    power grid and none is rendered but the base, `thickened_spectrum` is
    never called, and ``reduced`` never expands the row (`_power_row`). A
    curve's base comes from `oracle`; its cusp spectrum, also over 6, is
    built before it. The table of `table-spectrum-agreement` is a vector
    over d', which is allowed."""
    built = []

    def base_once(cfg):
        built.append(reduced_cone_spectrum(cfg))
        return built[-1]

    def refused(*args, **kwargs):
        raise AssertionError(f"{command} built a power vector or row")

    init, render = SpectrumVector.__init__, SpectrumVector.render

    def guarded_init(self, *args, **kwargs):
        if built and kwargs.get("denominator") == power_den:
            refused()
        init(self, *args, **kwargs)

    def guarded_render(self):
        if not built or self is not built[0]:
            refused()
        return render(self)

    for module in (conespec.cli, conespec.oracle):
        monkeypatch.setattr(module, "reduced_cone_spectrum", base_once)
    for module in (conespec.cli, conespec.engine, conespec.oracle):
        monkeypatch.setattr(module, "thickened_spectrum", refused,
                            raising=False)
        if command == "reduced":
            monkeypatch.setattr(module, "_power_row", refused, raising=False)
    monkeypatch.setattr(SpectrumVector, "__init__", guarded_init)
    monkeypatch.setattr(SpectrumVector, "render", guarded_render)
    code, out, _ = run(capsys, command, FIXTURES / f"{name}.cfg")
    assert code == 0
    assert len(built) == 1
    assert out == (GOLDEN / f"{name}.{command}").read_text()


FIVE_LINES_SCAN = ["scan", FIXTURES / "five-lines.vectors", "--range",
                   "a=1..30", "--range", "b=1..30", "--param", "c=1"]


def test_scan_reads_points_off_the_plan(capsys, monkeypatch):
    """The 30x30 ``five-lines`` scan reads every grid point off the point
    plan of its vector template: no `CurveConfig`, `SingularPoint`,
    `LocalBranch` or `GlobalComponent` is constructed, and the rows are
    the ones each built config gives."""
    built = []
    for cls in (CurveConfig, SingularPoint, LocalBranch, GlobalComponent):
        def counted(self, *args, _init=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    code, out, _ = run(capsys, *FIVE_LINES_SCAN)
    assert (code, len(out.splitlines()), built) == (0, 901, [])
    monkeypatch.undo()
    text = FIVE_LINES_SCAN[1].read_text()
    assert out == csv_scan(text, {"a": (1, 30), "b": (1, 30)}, {"c": 1}, ())


@pytest.mark.parametrize("argv", [
    ["compute", FIXTURES / "sextic-pencil.vectors", "--param", "a=3",
     "--param", "b=2", "--param", "c=1"],
    ["verify", FIXTURES / "five-lines.vectors", "--param", "a=4",
     "--param", "b=2", "--param", "c=0"],
    ["oracle", FIXTURES / "conic-pencil.vectors", "--param", "a=2",
     "--param", "b=5", "--param", "c=2"],
    ["reduced", FIXTURES / "conic-squared.cfg"],
    ["scan", FIXTURES / "two-lines.cfg", "--range", "a=1..2"],
], ids=lambda argv: argv[0] if argv[0] != "scan" else "native-scan")
def test_only_a_vector_scan_builds_a_point_plan(capsys, monkeypatch, argv):
    """``compute``, ``verify``, ``oracle``, ``reduced`` and a scan of a
    native template never build a point plan; a vector scan does."""
    def refused(vectors):
        raise AssertionError("a point plan was built")

    monkeypatch.setattr(conespec.formats, "_point_plan", refused)
    code, _, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    with pytest.raises(AssertionError, match="a point plan was built"):
        run(capsys, *FIVE_LINES_SCAN)


def test_reduced_prints_empty_base(capsys, tmp_path):
    """A hyperplane (d' = 1) has the empty reduced-cone spectrum, printed as
    "(empty)"; its power line holds the m - 1 correction cells alone."""
    path = tmp_path / "plane.cfg"
    path.write_text("reduced n=2 degree=1 power=3\n")
    code, out, _ = run(capsys, "reduced", path)
    assert code == 0
    assert out.splitlines()[:2] == ["(empty)", "power m=3: 7/3:1, 8/3:1"]


def test_reduced_smooth_fermat(capsys, tmp_path):
    path = tmp_path / "fermat.cfg"
    path.write_text("reduced n=2 degree=3 power=1\n")
    code, out, _ = run(capsys, "reduced", path)
    assert code == 0
    assert out.splitlines()[0] == "1:1, 4/3:3, 5/3:3, 2:1"


def test_reduced_higher_dimension_no_table(capsys, tmp_path):
    path = tmp_path / "quadric.cfg"
    path.write_text("reduced n=3 degree=2\n")
    code, out, _ = run(capsys, "reduced", path)
    assert code == 0
    assert out.splitlines() == ["2:1"]


@pytest.mark.parametrize("command", ["reduced", "verify"])
@pytest.mark.parametrize("fixture", ["cuspidal-cubic.cfg", "conic-squared.cfg"])
def test_n2_reduced_spectrum_built_once(capsys, monkeypatch, command,
                                        fixture):
    """The n = 2 table of ``reduced`` and ``verify`` lays out the spectrum
    the command already built, rather than building it again."""
    calls = []

    def counted(cfg):
        calls.append(cfg)
        return reduced_cone_spectrum(cfg)

    for module in (conespec.cli, conespec.engine, conespec.oracle):
        monkeypatch.setattr(module, "reduced_cone_spectrum", counted)
    code, out, _ = run(capsys, command, FIXTURES / fixture)
    assert code == 0
    table_line = {"reduced": "e=0:", "verify": "table-spectrum-agreement"}
    assert table_line[command] in out
    assert len(calls) == 1


def test_verify_fixture_passes(capsys):
    code, out, _ = run(capsys, "verify", FIXTURES / "conic-pencil.vectors",
                       "--param", "a=2", "--param", "b=5", "--param", "c=2")
    assert code == 0
    assert "result: pass" in out
    assert "middle-agreement: PASS" in out


def test_verify_matrix_fixture_passes(capsys):
    code, out, _ = run(capsys, "verify", FIXTURES / "two-lines.cfg")
    assert code == 0
    assert "incidence-product: PASS" in out


def test_verify_corrupted_incidence_fails(capsys, tmp_path):
    path = tmp_path / "broken.cfg"
    path.write_text("component degree=1 mult=1 count=2\n"
                    "nodes 1\n"
                    "incidence-matrix 1 0\n")
    code, out, _ = run(capsys, "verify", path)
    assert code == 1
    assert "incidence-product: FAIL" in out


def test_verify_reduced_config(capsys):
    code, out, _ = run(capsys, "verify", FIXTURES / "conic-squared.cfg")
    assert code == 0
    assert "table-spectrum-agreement: PASS" in out
    assert "power-support: PASS" in out


def test_oracle_fixture(capsys):
    code, out, _ = run(capsys, "oracle", FIXTURES / "quartic-pencil.vectors",
                       "--param", "a=2", "--param", "b=3", "--param", "c=1")
    assert code == 0
    assert "result: all-pass" in out


def test_oracle_weighted_runs_alternative_checks(capsys):
    code, out, _ = run(capsys, "oracle",
                       FIXTURES / "doubled-cuspidal-cubic.cfg")
    assert code == 0
    assert "engine-side checks" in out
    assert "row-sum: PASS" in out


# Inputs written inline. The reports of the first three fail: three
# concurrent lines with multiplicities 3, 4, 5 (chi(U) = -1, so a cell is
# negative), a corrupted incidence matrix, and the cubic-pencil (a=3, b=2,
# c=2) point grown by one branch without touching nodes or incidence. The
# last three are reduced cones: four Brieskorn germs in n = 3 whose degrees
# do not divide d' = 40, an E6 spectrum and a node given as mixed-denominator
# local spectra, and the smooth Fermat cubic.
INLINE_REPORT_CASES = {
    "concurrent-lines-345": ("component degree=1 mult=3\n"
                             "component degree=1 mult=4\n"
                             "component degree=1 mult=5\n"
                             "point weights=1,1 branches=(1:3)(1:4)(1:5)\n"
                             "incidence 3x1\n"),
    "corrupted-incidence": ("component degree=1 mult=1 count=2\n"
                            "nodes 1\n"
                            "incidence-matrix 1 0\n"),
    "cubic-pencil-grown-point": ("component degree=3 mult=3\n"
                                 "component degree=3 mult=1 count=2\n"
                                 "component degree=1 mult=2\n"
                                 "component degree=1 mult=1\n"
                                 "point weights=1,1 branches=(1:3)(1:3)(1:2)"
                                 "(1:1)(1:1)(1:1)(1:1)(1:1)(1:1)\n"
                                 "nodes 21\n"
                                 "incidence 3x2 2x1\n"),
    "brieskorn-n3": ("reduced n=3 degree=40 power=3\n"
                     "localwh weights=21,14,6 degree=42\n"
                     "localwh weights=10,5,4 degree=20\n"
                     "localwh weights=5,2,2 degree=10\n"
                     "localwh weights=5,5,3 degree=15\n"),
    "e6-and-node": ("reduced n=2 degree=5 power=2\n"
                    "localspectrum 7/12:1 5/6:1 11/12:1 13/12:1 7/6:1 17/12:1\n"
                    "localspectrum 1:1\n"),
    "fermat-cubic": "reduced n=2 degree=3\n",
    # scan templates: weighted points with mixed branch multiplicities (two
    # of them identical), a grid reaching d < 3, and a grid whose second
    # point has a branch degree outside {w, w', w*w'}
    "weighted-mult-sweep": ("component degree=3 mult=m\n"
                            "component degree=2 mult=2\n"
                            "component degree=1 mult=1 count=2\n"
                            "point weights=2,3 branches=(6:m) count=2\n"
                            "point weights=1,3 branches=(3:m)(3:2)\n"
                            "point weights=2,5 branches=(2:1)(10:m)\n"
                            "point weights=1,1 branches=(1:m)(1:2)(1:1)\n"
                            "nodes 3\n"),
    "small-degree-grid": ("component degree=1 mult=a\n"
                          "component degree=1 mult=1\n"
                          "point weights=1,1 branches=(1:a)(1:1)\n"),
    "invalid-point-grid": ("component degree=3 mult=m\n"
                           "point weights=2,3 branches=(m:1)\n"),
}

# case -> (fixture or None for inline text, params, {command: exit code});
# a param is bound with --param, a range value swept with --range, and a key
# starting with "--" is passed as that option; tests/golden/<case>.<command>
# holds the exact stdout
REPORT_CASES = {
    **{golden[:-len(".rows")]: (fixture, params, {"verify": 0, "oracle": 0})
       for fixture, params, golden in GOLDEN_CASES},
    "two-lines": ("two-lines.cfg", {}, {"verify": 0, "oracle": 0}),
    "cuspidal-cubic": ("cuspidal-cubic.cfg", {},
                       {"verify": 0, "oracle": 2, "reduced": 0}),
    "doubled-cuspidal-cubic": ("doubled-cuspidal-cubic.cfg", {},
                               {"verify": 0, "oracle": 0}),
    "conic-squared": ("conic-squared.cfg", {},
                      {"verify": 0, "oracle": 2, "reduced": 0}),
    "concurrent-lines-345": (None, {}, {"verify": 1, "oracle": 0}),
    "corrupted-incidence": (None, {}, {"verify": 1, "oracle": 0}),
    "cubic-pencil-grown-point": (None, {}, {"verify": 1, "oracle": 1}),
    "brieskorn-n3": (None, {}, {"verify": 0, "reduced": 0}),
    "e6-and-node": (None, {}, {"verify": 0, "reduced": 0}),
    "fermat-cubic": (None, {}, {"verify": 0, "reduced": 0}),
    "five-lines-grid": ("five-lines.vectors",
                        dict(a=range(1, 31), c=range(0, 30), b=3), {"scan": 0}),
    "five-lines-grid-n3d-zero": ("five-lines.vectors",
                                 {"a": range(1, 31), "c": range(0, 30), "b": 3,
                                  "--predicate": "n3d_zero"}, {"scan": 0}),
    "lines-conic-grid": ("lines-conic.vectors",
                         dict(a=range(1, 16), b=range(5, 20), c=2), {"scan": 0}),
    "sextic-pencil-grid-chi": ("sextic-pencil.vectors",
                               {"a": range(1, 13), "b": range(1, 13), "c": 1,
                                "--predicate": "chi_nonzero"}, {"scan": 0}),
    "weighted-mult-sweep": (None, {"m": range(1, 13)}, {"scan": 0}),
    "small-degree-grid": (None, {"a": range(1, 5), "--predicate": "n3d_zero"},
                          {"scan": 0}),
    "invalid-point-grid": (None, {"m": range(6, 8)}, {"scan": 2}),
}


def report_argv(case, command, tmp_path):
    """The command line of a golden report case."""
    fixture, params, _ = REPORT_CASES[case]
    if fixture is None:
        path = tmp_path / f"{case}.cfg"
        path.write_text(INLINE_REPORT_CASES[case])
    else:
        path = FIXTURES / fixture
    argv = [command, path]
    for name, value in params.items():
        if name.startswith("--"):
            argv += [name, value]
        elif isinstance(value, range):
            argv += ["--range", f"{name}={value.start}..{value.stop - 1}"]
        else:
            argv += ["--param", f"{name}={value}"]
    return argv


@pytest.mark.parametrize("case,command", [
    pytest.param(case, command, id=f"{case}-{command}")
    for case, (_, _, exits) in REPORT_CASES.items() for command in exits])
def test_report_matches_golden(capsys, tmp_path, case, command):
    code, out, _ = run(capsys, *report_argv(case, command, tmp_path))
    assert out == (GOLDEN / f"{case}.{command}").read_text()
    assert code == REPORT_CASES[case][2][command]


def test_scan_five_lines_grid(capsys):
    code, out, _ = run(capsys, "scan", FIXTURES / "five-lines.vectors",
                       "--range", "a=1..5", "--range", "b=1..5",
                       "--range", "c=0..0", "--predicate", "n3d_zero")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "a,b,c,d,dprime,n_3_over_d,chi_u,flags"
    rows = {tuple(line.split(",")[:3]) for line in lines[1:]}
    assert ("4", "2", "0") in rows and ("5", "1", "0") in rows
    assert ("1", "1", "0") not in rows
    for line in lines[1:]:
        parts = line.split(",")
        assert parts[5] == "0" and parts[7] == "n3d_zero"


def test_scan_empty_range(capsys):
    code, out, _ = run(capsys, "scan", FIXTURES / "five-lines.vectors",
                       "--range", "a=3..2", "--param", "b=1", "--param", "c=0")
    assert code == 0
    assert out.splitlines() == ["a,d,dprime,n_3_over_d,chi_u,flags"]


def test_scan_cap(capsys):
    code, _, err = run(capsys, "scan", FIXTURES / "five-lines.vectors",
                       "--range", "a=1..100", "--range", "b=1..100",
                       "--param", "c=0", "--cap", "100")
    assert code == 2
    assert "grid-too-large" in err


def test_scan_native_template(capsys, tmp_path):
    path = tmp_path / "family.cfg"
    path.write_text("component degree=1 mult=a count=1\n"
                    "component degree=1 mult=1 count=2\n"
                    "nodes 3\n")
    code, out, _ = run(capsys, "scan", path, "--range", "a=1..4")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5
    assert lines[1].startswith("1,3,3,")


def test_scan_na_marker(capsys, tmp_path):
    # degree-2 total: the exponent 3/d cell does not exist
    path = tmp_path / "small.cfg"
    path.write_text("component degree=1 mult=a count=1\n"
                    "component degree=1 mult=1 count=1\n"
                    "nodes 1\n")
    code, out, _ = run(capsys, "scan", path, "--range", "a=1..2",
                       "--predicate", "n3d_zero")
    assert code == 0
    lines = out.splitlines()
    assert lines[1].split(",")[3] == "n/a"      # a=1: d=2
    assert lines[1].split(",")[-1] == "n/a"


def test_scan_repeated_predicate_counts_once(capsys):
    """A predicate given twice filters and flags as if given once."""
    argv = ["scan", FIXTURES / "five-lines.vectors", "--range", "a=1..5",
            "--param", "b=1", "--param", "c=0"]
    once = run(capsys, *argv, "--predicate", "n3d_zero")
    assert once == (0, "a,d,dprime,n_3_over_d,chi_u,flags\n"
                       "3,7,5,0,1,n3d_zero\n4,8,5,0,1,n3d_zero\n"
                       "5,9,5,0,1,n3d_zero\n", "")
    assert run(capsys, *argv, "--predicate", "n3d_zero",
               "--predicate", "n3d_zero") == once
    # first-given order, each name once
    code, out, _ = run(capsys, *argv, "--predicate", "chi_nonzero",
                       "--predicate", "n3d_zero", "--predicate", "chi_nonzero")
    assert code == 0
    assert [line.split(",")[-1] for line in out.splitlines()[1:]] == \
        ["chi_nonzero;n3d_zero"] * 3


def csv_scan(text, ranges, fixed, predicates):
    """The CSV that `csv.writer(out, lineterminator="\\n")` writes for the
    rows of the scan, each computed from `config_template` and
    `scan_values`, kept and flagged as the predicates say."""
    import csv
    import io
    import itertools
    from conespec.engine import scan_values
    from conespec.formats import config_template
    template = config_template(text)
    names = sorted(ranges)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(names + ["d", "dprime", "n_3_over_d", "chi_u", "flags"])
    for combo in itertools.product(*(range(lo, hi + 1)
                                     for lo, hi in map(ranges.get, names))):
        d, dprime, n3d, chi_u = scan_values(
            template({**fixed, **dict(zip(names, combo))})._derived, {})
        values = {"n3d_zero": None if n3d is None else n3d == 0,
                  "chi_nonzero": chi_u != 0}
        if None in map(values.get, predicates):
            flags = "n/a"
        elif all(values[p] for p in predicates):
            flags = ";".join(predicates)
        else:
            continue
        writer.writerow((*combo, d, dprime, "n/a" if n3d is None else n3d,
                         chi_u, flags))
    return out.getvalue()


@pytest.mark.parametrize("predicates", [
    (), ("n3d_zero",), ("chi_nonzero", "n3d_zero"),
    ("n3d_zero", "chi_nonzero")])
def test_scan_rows_are_what_csv_writer_writes(predicates):
    """`run_scan` writes each row's fields itself; the bytes are the ones
    `csv.writer` writes for the same rows: with a Unicode parameter name,
    `n/a` cells (d < 3), empty flags and flags joined by ';'."""
    import io
    text = "GlCmp=-1,1,größe, -1,1,b; Si=-1,2,größe,b; OD=größe-1; LG=-1,1;"
    ranges, fixed = {"größe": (1, 4), "b": (1, 2)}, {}
    if predicates:
        ranges, fixed = {"größe": (1, 4)}, {"b": 1}
    spec = ScanSpec(template=text, ranges=ranges, fixed=fixed,
                    predicates=predicates)
    out = io.StringIO()
    assert run_scan(spec, out) == 0
    assert out.getvalue() == csv_scan(text, ranges, fixed, predicates)
    lines = out.getvalue().splitlines()
    assert lines[0].startswith("b,größe," if not predicates else "größe,")
    flags = {line.rsplit(",", 1)[1] for line in lines[1:]}
    assert flags == ({""} if not predicates else
                     {"n/a", ";".join(predicates)})
    assert any(",n/a," in line for line in lines[1:])


def test_scan_results_deterministic(tmp_path):
    import io
    spec = ScanSpec(template=(FIXTURES / "lines-conic.vectors").read_text(),
                    ranges={"a": (1, 3), "b": (1, 3), "c": (0, 2)},
                    fixed={})
    buf1, buf2 = io.StringIO(), io.StringIO()
    run_scan(spec, buf1)
    run_scan(spec, buf2)
    assert buf1.getvalue() == buf2.getvalue()
    lines = buf1.getvalue().splitlines()
    assert len(lines) == 1 + 27
    keys = [tuple(map(int, line.split(",")[:3])) for line in lines[1:]]
    assert keys == sorted(keys)


def test_run_scan_rejects_unknown_predicate():
    import io
    spec = ScanSpec(template=(FIXTURES / "lines-conic.vectors").read_text(),
                    ranges={"a": (1, 2)}, fixed={"b": 1, "c": 0},
                    predicates=("bogus",))
    out = io.StringIO()
    with pytest.raises(ConfigError) as err:
        run_scan(spec, out)
    assert err.value.code == "predicate-unknown"
    assert out.getvalue() == ""


@pytest.mark.parametrize("argv,message", [
    (["--param", "b=1", "--param", "b=2", "--range", "a=1..2"],
     "[param-syntax] --param gives 'b' more than once"),
    (["--range", "a=1..0", "--range", "a=0..1", "--param", "b=1"],
     "[range-syntax] --range gives 'a' more than once"),
    (["--param", "a=7", "--range", "a=1..2", "--param", "b=1"],
     "[range-syntax] 'a' is given both a value and a range"),
    (["--param", "a=\u0663", "--param", "b=1"],
     "[param-syntax] --param value for 'a' must be an integer"),
    (["--param", "a=1_0", "--param", "b=1"],
     "[param-syntax] --param value for 'a' must be an integer"),
    (["--range", "a=\u0661..\u0662", "--param", "b=1"],
     "[range-syntax] --range bounds for 'a' must be integers"),
    (["--range", "a=1..1_0", "--param", "b=1"],
     "[range-syntax] --range bounds for 'a' must be integers"),
    (["--param", "a", "--param", "b=1"],
     "[param-syntax] --param expects NAME=VALUE, got 'a'"),
    (["--range", "a=1", "--param", "b=1"],
     "[range-syntax] --range expects NAME=LO..HI, got 'a=1'"),
], ids=["param-twice", "range-twice", "param-and-range", "param-non-ascii",
        "param-underscore", "range-non-ascii", "range-underscore",
        "param-no-equals", "range-no-dots"])
def test_scan_binds_each_name_once(capsys, argv, message):
    code, out, err = run(capsys, "scan", FIXTURES / "five-lines.vectors",
                         "--param", "c=0", *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("command,argv,message", [
    ("compute", ["--param", "=3"],
     "[param-syntax] --param name '' is not a parameter name"),
    ("scan", ["--range", "a=1..2", "--range", "=1..2", "--param", "b=1"],
     "[range-syntax] --range name '' is not a parameter name"),
    ("compute", ["--param", "div=3"],
     "[param-syntax] --param name 'div' is not a parameter name"),
    ("compute", ["--param", "a b=3"],
     "[param-syntax] --param name 'a b' is not a parameter name"),
    ("scan", ["--range", "1x=1..2", "--param", "b=1"],
     "[range-syntax] --range name '1x' is not a parameter name"),
    ("compute", ["--param", "a.b=3"],
     "[param-syntax] --param name 'a.b' is not a parameter name"),
], ids=["param-empty", "range-empty", "param-div", "param-blank",
        "range-digit-first", "param-dot"])
def test_names_are_template_names(capsys, command, argv, message):
    """--param and --range take only names a template can use: one name
    token of the template lexer, as the name's whole text."""
    code, out, err = run(capsys, command, FIXTURES / "five-lines.vectors",
                         "--param", "c=0", *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_param_and_range_keep_what_int_accepts():
    # signs, surrounding blanks and leading zeros, as int() reads them
    assert _parse_params(["a= +4 ", "b=-0", "c=007"]) == \
        {"a": 4, "b": 0, "c": 7}
    assert _parse_ranges(["a=-2.. 03"]) == {"a": (-2, 3)}


def test_run_scan_rejects_fixed_and_ranged_name():
    import io
    spec = ScanSpec(template=(FIXTURES / "lines-conic.vectors").read_text(),
                    ranges={"a": (1, 2), "c": (0, 1)},
                    fixed={"a": 7, "b": 1, "c": 0})
    out = io.StringIO()
    with pytest.raises(ConfigError) as err:
        run_scan(spec, out)
    assert (err.value.code, str(err.value)) == (
        "range-syntax", "[range-syntax] 'a' is given both a value and a range")
    assert out.getvalue() == ""


def test_exit_code_contract(capsys, tmp_path):
    ok, _, _ = run(capsys, "verify", FIXTURES / "two-lines.cfg")
    assert ok == 0
    bad_input = tmp_path / "bad.cfg"
    bad_input.write_text("component degree=0 mult=1\n")
    code, _, _ = run(capsys, "compute", bad_input)
    assert code == 2


def test_shared_parser_keeps_no_state(capsys, monkeypatch):
    """main runs every call with one parser: options of one call, or an
    argparse error, do not reach the next."""
    fixture, params, golden = GOLDEN_CASES[0]
    config = ["compute", FIXTURES / fixture]
    for name, value in params.items():
        config += ["--param", f"{name}={value}"]
    middles = []
    incidence = conespec.cli.ordinary_middle_row
    monkeypatch.setattr(conespec.cli, "ordinary_middle_row",
                        lambda *a: middles.append(a) or incidence(*a))
    assert run(capsys, *config, "--middle", "cor2", "--format", "csv") == (
        0, (GOLDEN / golden).with_suffix(".csv").read_text(), "")
    assert len(middles) == 1
    assert run(capsys, *config) == (0, (GOLDEN / golden).read_text(), "")
    assert len(middles) == 1            # plain compute takes thm2

    specs = []
    monkeypatch.setattr(conespec.cli, "run_scan",
                        lambda spec, out: specs.append(spec)
                        or run_scan(spec, out))
    scan = ["scan", FIXTURES / "five-lines.vectors", "--range", "a=1..5",
            "--param", "b=1", "--param", "c=0"]
    assert run(capsys, *scan, "--predicate", "n3d_zero", "--cap", "5") == (
        0, "a,d,dprime,n_3_over_d,chi_u,flags\n3,7,5,0,1,n3d_zero\n"
           "4,8,5,0,1,n3d_zero\n5,9,5,0,1,n3d_zero\n", "")
    assert run(capsys, *scan) == (
        0, "a,d,dprime,n_3_over_d,chi_u,flags\n1,5,5,1,1,\n2,6,5,1,1,\n"
           "3,7,5,0,1,\n4,8,5,0,1,\n5,9,5,0,1,\n", "")
    assert [(s.predicates, s.cap) for s in specs] == [
        (("n3d_zero",), 5), ((), DEFAULT_CAP)]

    with pytest.raises(SystemExit) as exc:
        main([str(a) for a in config] + ["--middle", "bogus"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: conespec compute ")
    assert captured.err.endswith(
        "conespec compute: error: argument --middle: invalid choice: "
        "'bogus' (choose from 'thm2', 'cor2')\n")
    assert run(capsys, *config) == (0, (GOLDEN / golden).read_text(), "")


def test_parser_is_built_on_first_fallback_only():
    """Importing conespec.cli and running well-formed commands builds no
    parser and loads no argparse; the first argv that the fast path hands
    to argparse builds the parsers, and later ones build none."""
    src = ROOT / "src"
    code = f"""
import contextlib, io, sys
import conespec.cli
path = {str(FIXTURES / "two-lines.cfg")!r}
def run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return conespec.cli.main(argv)
codes = [run([command, path])
         for command in ["verify", "oracle", "compute", "scan", "compute"]]
print(codes, "argparse" in sys.modules)
import argparse
built = 0
init = argparse.ArgumentParser.__init__
def counting(self, *args, **kwargs):
    global built
    built += 1
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting
counts = []
for argv in [["compute", path, "--format=rows"], ["verify", path, "--par", "a=1"],
             ["scan", path, "--cap=5"], ["compute", path, "--mid", "thm2"]]:
    codes.append(run(argv))
    counts.append(built)
print(codes, counts)
"""
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=60)
    fast, fallback = done.stdout.splitlines()
    assert fast == str([0] * 5) + " False"
    # the program parser and one per command, on the first fallback only
    assert fallback == f"{[0] * 9} {[6] * 4}"


def test_python_m_conespec_runs_the_command(capsys):
    """``python -m conespec`` from a checkout is the ``conespec`` command:
    same stdout and exit code as `main` in process."""
    config = FIXTURES / "two-lines.cfg"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-m", "conespec", "compute",
                           str(config)], env=env, capture_output=True,
                          text=True, timeout=60)
    assert (done.returncode, done.stdout) == run(capsys, "compute",
                                                 config)[:2]
    assert done.stdout.startswith("e=0: ")


def test_compute_deep_and_long_templates(capsys, tmp_path):
    """A slot nested past the bound is a coded input error; a flat chain of
    any length evaluates."""
    deep = tmp_path / "deep.cfg"
    deep.write_text(f"component degree={'(' * 400}2{')' * 400} mult=1\n")
    assert run(capsys, "compute", deep) == (
        2, "", "error: line 1: [expr-limit] expression nests deeper than "
               "100 levels\n")
    long = tmp_path / "long.vectors"
    long.write_text(f"GlCmp=-1,2{'+0' * 2999},1; Si=; OD=0; LG=0\n")
    plain = tmp_path / "plain.vectors"
    plain.write_text("GlCmp=-1,2,1; Si=; OD=0; LG=0\n")
    code, out, _ = run(capsys, "compute", long)
    assert (code, out) == run(capsys, "compute", plain)[:2]
    assert out.startswith("e=0: ")


@pytest.mark.parametrize("template,message", [
    ("component degree=1 mult=1\ncomponent degree=a mult=1\n",
     "line 2: [value-nonpositive] at grid point (a=0): "
     "component degree must be positive"),
    ((FIXTURES / "five-lines.vectors").read_text(),
     "[value-nonpositive] at grid point (a=0): component "
     "multiplicity must be positive"),
    ("reduced n=2 degree=a+3\nlocalwh weights=2,3 degree=6\n",
     "[mode-conflict] at grid point (a=0): scan templates must describe "
     "curve configs"),
], ids=["native", "vector", "reduced"])
def test_scan_grid_point_error_names_code_once(capsys, tmp_path, template,
                                               message):
    path = tmp_path / "template.txt"
    path.write_text(template)
    code, out, err = run(capsys, "scan", path, "--range", "a=0..1",
                         "--param", "b=1", "--param", "c=0")
    assert code == 2
    assert out.splitlines() == ["a,d,dprime,n_3_over_d,chi_u,flags"]
    assert err == f"error: {message}\n"


def test_scan_error_after_stored_records(capsys, tmp_path):
    """A vector scan that fails at a later grid point, whose component the
    earlier points already built, writes the earlier rows and then the
    error that `compute` gives at that binding."""
    path = tmp_path / "template.vectors"
    path.write_text("GlCmp=-1,1,2-a, -1,1,1, -1,2,1; Si=-1,2-a,2,1; OD=0; "
                    "LG=0;\n")
    code, out, err = run(capsys, "scan", path, "--range", "a=0..1")
    assert code == 2
    assert out == run(capsys, "scan", path, "--range", "a=0..0")[1]
    assert out.count("\n") == 2                 # the header and a=0
    assert err == ("error: [si-overflow] at grid point (a=1): point lists 2 "
                   "multiplicities for 1 branches\n")
    assert run(capsys, "compute", path, "--param", "a=1") == (
        2, "", "error: [si-overflow] point lists 2 multiplicities for 1 "
               "branches\n")


@pytest.mark.parametrize("template,message", [
    ("component degree=a mult=1\nnonsense 3\n",
     "line 2: [bad-keyword] unknown keyword 'nonsense'"),
    ("Bad=1; GlCmp=-1,a,1; Si=; OD=0; LG=0\n",
     "[vector-key] unknown vector 'Bad'"),
], ids=["native", "vector"])
@pytest.mark.parametrize("grid", ["a=1..0", "a=1..2"], ids=["empty", "two"])
def test_scan_template_error_comes_before_header(capsys, tmp_path, template,
                                                 message, grid):
    """A template error that holds at every binding is found when the
    template is parsed, before the CSV header, whatever the grid."""
    path = tmp_path / "template.txt"
    path.write_text(template)
    assert run(capsys, "scan", path, "--range", grid) == \
        (2, "", f"error: {message}\n")


@pytest.mark.parametrize("with_point,without_point", [
    ("component degree=3 mult=1\npoint weights=2,3 branches=(2:1)\n",
     "component degree=3 mult=1\n"),
    ("GlCmp=-1,2,1; Si=-1,1; OD=0; LG=0;\n",
     "GlCmp=-1,2,1; Si=; OD=0; LG=0;\n"),
], ids=["native", "vector"])
@pytest.mark.parametrize("command", ["verify", "oracle"])
def test_milnor_zero_point_reports_like_no_point(capsys, tmp_path, command,
                                                 with_point, without_point):
    """A point whose weighted degree is w or w' is smooth: its local
    spectrum is empty and the reports match the config without it."""
    reports = []
    for k, text in enumerate((with_point, without_point)):
        path = tmp_path / f"config{k}.txt"
        path.write_text(text)
        reports.append(run(capsys, command, path))
    assert reports[0] == reports[1]
    assert reports[0][0] == 0


@pytest.mark.parametrize("command", [["compute", "--middle", "cor2"],
                                     ["oracle"]])
def test_zero_count_groups_contribute_nothing(capsys, tmp_path, command):
    """Zero-count groups in GlCmp, Si and LG leave the output unchanged."""
    plain = (FIXTURES / "five-lines.vectors").read_text()
    padded = (plain.replace("-2,1,1;", "-2,1,1, -0,3,2;")
              .replace("-1,3,c+1;", "-1,3,c+1, -0,4,2,2;")
              .replace("-6,1;", "-0,5, -6,1;"))
    assert padded.count("-0,") == 3
    outputs = []
    for name, text in (("plain", plain), ("padded", padded)):
        path = tmp_path / f"{name}.vectors"
        path.write_text(text)
        outputs.append(run(capsys, command[0], path, *command[1:],
                           "--param", "a=4", "--param", "b=2",
                           "--param", "c=0"))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0


@pytest.mark.parametrize("text,message", [
    ("component degree=1 mult=1\n"
     f"point weights=1,1 branches={'(1:1)' * 999}(1:1\n",
     "line 2: [branch-syntax] malformed branch list "
     f"{'(1:1)' * 12!r}..."),
    (f"GlCmp={','.join(['1'] * 499 + [''] + ['1'] * 500)}; Si=; OD=0; LG=0;\n",
     f"[vector-syntax] empty entry in GlCmp={'1,' * 30!r}..."),
], ids=["branch-list", "vector-entry"])
def test_long_input_is_quoted_short(capsys, tmp_path, text, message):
    """A malformed branch list or vector of 1000 entries is quoted to 60
    characters, so its error line stays short."""
    path = tmp_path / "long.txt"
    path.write_text(text)
    code, out, err = run(capsys, "compute", path)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"
    assert len(err.encode()) < 200


# one template per dialect, bound or swept over a
ENCODING_TEMPLATES = {
    "native": ("component degree=3 mult=a\n"
               "component degree=1 mult=1\n"
               "nodes 3\n"),
    "vector": "GlCmp=-1,3,a, -1,1,1; Si=; OD=3; LG=0;\n",
}
ENCODING_COMMANDS = {"compute": ["--param", "a=2"],
                     "scan": ["--range", "a=1..3"]}


@pytest.mark.parametrize("dialect", sorted(ENCODING_TEMPLATES))
@pytest.mark.parametrize("command", sorted(ENCODING_COMMANDS))
def test_input_may_start_with_a_byte_order_mark(capsys, tmp_path, dialect,
                                                command):
    text = ENCODING_TEMPLATES[dialect].encode()
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_bytes(text)
    marked.write_bytes(b"\xef\xbb\xbf" + text)
    want = run(capsys, command, plain, *ENCODING_COMMANDS[command])
    assert want[0] == 0 and want[1]
    assert run(capsys, command, marked, *ENCODING_COMMANDS[command]) == want


@pytest.mark.parametrize("dialect", sorted(ENCODING_TEMPLATES))
@pytest.mark.parametrize("command", sorted(ENCODING_COMMANDS))
def test_undecodable_input_is_an_input_error(capsys, tmp_path, dialect,
                                             command):
    path = tmp_path / "latin1.txt"
    path.write_bytes(ENCODING_TEMPLATES[dialect].encode() + b"# \xff\n")
    code, out, err = run(capsys, command, path, *ENCODING_COMMANDS[command])
    assert (code, out) == (2, "")
    assert err == (f"error: [input-encoding] {str(path)!r} is not UTF-8 "
                   "text: byte 0xff, invalid start byte\n")


@pytest.mark.parametrize("data", [b"\xef", b"\xef\xbb"])
def test_a_cut_byte_order_mark_is_not_utf8(capsys, tmp_path, data):
    """A file that is only the start of a byte-order mark is not UTF-8
    text, and not an empty config."""
    path = tmp_path / "cut.cfg"
    path.write_bytes(data)
    assert run(capsys, "compute", path) == (
        2, "", f"error: [input-encoding] {str(path)!r} is not UTF-8 text: "
               "byte 0xef, unexpected end of data\n")


@pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
@pytest.mark.parametrize("dialect", sorted(ENCODING_TEMPLATES))
@pytest.mark.parametrize("command", sorted(ENCODING_COMMANDS))
def test_line_ends_read_as_newlines(capsys, tmp_path, dialect, command, end):
    """\\r\\n and a lone \\r end a line as \\n does, after a byte-order
    mark too."""
    text = ENCODING_TEMPLATES[dialect]
    plain, other = tmp_path / "plain.txt", tmp_path / "other.txt"
    plain.write_bytes(text.encode())
    other.write_bytes(b"\xef\xbb\xbf" + text.replace("\n", end).encode())
    want = run(capsys, command, plain, *ENCODING_COMMANDS[command])
    assert want[0] == 0 and want[1]
    assert run(capsys, command, other, *ENCODING_COMMANDS[command]) == want


# one literal slot per case, written "{}", with its error line
LITERAL_SLOTS = {
    "incidence-count": (
        "component degree=1 mult=1 count=2\nnodes 1\nincidence {}x1\n",
        "line 3: [incidence-syntax] expected COUNTxVALUE, got '{}x1'"),
    "incidence-value": (
        "component degree=1 mult=1 count=2\nnodes 1\nincidence 1x{}\n",
        "line 3: [incidence-syntax] expected COUNTxVALUE, got '1x{}'"),
    "incidence-matrix": (
        "component degree=1 mult=1 count=2\nnodes 1\nincidence-matrix 1 {}\n",
        "line 3: [incidence-syntax] bad matrix entry '{}'"),
    "localspectrum-numerator": (
        "reduced n=2 degree=3\nlocalspectrum {}/10:1\n",
        "line 2: [fraction-syntax] bad fraction '{}/10'"),
    "localspectrum-denominator": (
        "reduced n=2 degree=3\nlocalspectrum 1/{}:1\n",
        "line 2: [fraction-syntax] bad fraction '1/{}'"),
    "localspectrum-multiplicity": (
        "reduced n=2 degree=3\nlocalspectrum 1:{}\n",
        "line 2: [spectrum-syntax] bad multiplicity '{}'"),
}


@pytest.mark.parametrize("literal", ["1_0", "\u0661"],
                         ids=["underscore", "non-ascii"])
@pytest.mark.parametrize("slot", sorted(LITERAL_SLOTS))
def test_literal_slots_take_ascii_digits_only(capsys, tmp_path, slot,
                                              literal):
    """Literal integer slots read digits as templates and --param do: '1_0'
    and an Arabic-Indic one, which int() would take, are input errors."""
    template, message = LITERAL_SLOTS[slot]
    path = tmp_path / "literal.cfg"
    path.write_text(template.format(literal), encoding="utf-8")
    assert run(capsys, "verify", path) == (
        2, "", f"error: {message.format(literal)}\n")
