from pathlib import Path

import pytest

from conespec.cli import ScanSpec, main, run_scan
from conespec.formats import ConfigError

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
    assert "error" in err


def test_compute_rejects_reduced_config(capsys):
    code, _, err = run(capsys, "compute", FIXTURES / "cuspidal-cubic.cfg")
    assert code == 2
    assert "reduced" in err


def test_compute_missing_param(capsys):
    code, _, err = run(capsys, "compute", FIXTURES / "conic-pencil.vectors")
    assert code == 2
    assert "unbound-name" in err


def test_compute_missing_file(capsys):
    code, _, err = run(capsys, "compute", FIXTURES / "no-such-file.cfg")
    assert code == 2


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


# Inputs whose reports fail, written inline: three concurrent lines with
# multiplicities 3, 4, 5 (chi(U) = -1, so a cell is negative), a corrupted
# incidence matrix, and the cubic-pencil (a=3, b=2, c=2) point grown by one
# branch without touching nodes or incidence.
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
}

# case -> (fixture or None for inline text, params, verify exit, oracle exit);
# tests/golden/<case>.verify and <case>.oracle hold the exact stdout
REPORT_CASES = {
    **{golden[:-len(".rows")]: (fixture, params, 0, 0)
       for fixture, params, golden in GOLDEN_CASES},
    "two-lines": ("two-lines.cfg", {}, 0, 0),
    "cuspidal-cubic": ("cuspidal-cubic.cfg", {}, 0, 2),
    "doubled-cuspidal-cubic": ("doubled-cuspidal-cubic.cfg", {}, 0, 0),
    "conic-squared": ("conic-squared.cfg", {}, 0, 2),
    "concurrent-lines-345": (None, {}, 1, 0),
    "corrupted-incidence": (None, {}, 1, 0),
    "cubic-pencil-grown-point": (None, {}, 1, 1),
}


@pytest.mark.parametrize("command", ["verify", "oracle"])
@pytest.mark.parametrize("case", list(REPORT_CASES))
def test_report_matches_golden(capsys, tmp_path, case, command):
    fixture, params, verify_code, oracle_code = REPORT_CASES[case]
    if fixture is None:
        path = tmp_path / f"{case}.cfg"
        path.write_text(INLINE_REPORT_CASES[case])
    else:
        path = FIXTURES / fixture
    argv = [command, path]
    for name, value in params.items():
        argv += ["--param", f"{name}={value}"]
    code, out, _ = run(capsys, *argv)
    assert out == (GOLDEN / f"{case}.{command}").read_text()
    assert code == (verify_code if command == "verify" else oracle_code)


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


def test_exit_code_contract(capsys, tmp_path):
    ok, _, _ = run(capsys, "verify", FIXTURES / "two-lines.cfg")
    assert ok == 0
    bad_input = tmp_path / "bad.cfg"
    bad_input.write_text("component degree=0 mult=1\n")
    code, _, _ = run(capsys, "compute", bad_input)
    assert code == 2
