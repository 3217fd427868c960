"""`conespec.cli` reads a well-formed argv without argparse, and every
other argv with it.

`cli._fast_args` is run next to `build_parser().parse_args` on a corpus of
argvs: every command line of `test_cli`'s case tables, the argvs of
`tools/alternate.py`'s ``CASES``, those of one cycle of each benchmark
workload, and variants made from them (options reordered, abbreviated,
written ``--opt=value`` or repeated, values that start with '-', ``--``,
``-h``, bad choices, a ``--cap`` that int() refuses, a missing or an extra
path). Wherever the fast path accepts, its fields are argparse's; wherever
argparse exits, the fast path declines; and it accepts every argv of the
case tables, the alternate cases and the benchmark, which are all written
the usual way.
"""

import contextlib
import importlib.util
import io
import sys

import test_cli
from conespec import cli
from test_cli import (ENCODING_COMMANDS, FIXTURES, GOLDEN_CASES, REPORT_CASES,
                      ROOT, report_argv)


def _rows(test, name):
    """The values of parameter `name` in the parametrize table of `test`."""
    for mark in test.pytestmark:
        names = [n.strip() for n in mark.args[0].split(",")]
        if names == [name]:
            return list(mark.args[1])
        if name in names:
            return [row[names.index(name)] for row in mark.args[1]]
    raise LookupError(name)


def case_table_argvs(tmp_path):
    """Every command line that `test_cli`'s case tables run."""
    five_lines = str(FIXTURES / "five-lines.vectors")
    argvs = []
    for fixture, params, _ in GOLDEN_CASES:
        base = ["compute", str(FIXTURES / fixture)]
        for name, value in params.items():
            base += ["--param", f"{name}={value}"]
        argvs += [base, base + ["--middle", "cor2"],
                  base + ["--format", "csv"]]
    argvs += [[str(a) for a in report_argv(case, command, tmp_path)]
              for case, (_, _, exits) in REPORT_CASES.items()
              for command in exits]
    argvs += [[command, five_lines, *extra]
              for command, extra in ENCODING_COMMANDS.items()]
    argvs += [["scan", five_lines, "--param", "c=0", *argv]
              for argv in _rows(test_cli.test_scan_binds_each_name_once,
                                "argv")]
    argvs += [[command, five_lines, "--param", "c=0", *argv]
              for command, argv in zip(
                  _rows(test_cli.test_names_are_template_names, "command"),
                  _rows(test_cli.test_names_are_template_names, "argv"))]
    for test in (test_cli.test_one_row_pass_per_command,
                 test_cli.test_zero_count_groups_contribute_nothing):
        argvs += [[command[0], five_lines, *command[1:], "--param", "a=4",
                   "--param", "b=2", "--param", "c=0"]
                  for command in _rows(test, "command")]
    return argvs


def alternate_argvs():
    spec = importlib.util.spec_from_file_location(
        "conespec_alternate", ROOT / "tools" / "alternate.py")
    alternate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(alternate)
    return [argv for argvs in alternate.CASES.values() for argv in argvs]


def benchmark_argvs(tmp_path, monkeypatch):
    """The argvs of the first cycle of every benchmark workload."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads
    return [op.argv for name in ("ordinary-large", "scan-grid",
                                 "weighted-reduced")
            for op in workloads.make(name, ROOT, 1, tmp_path).cycle(0)]


def variants(argv):
    """Unusual spellings of a well-formed argv: reordered, abbreviated,
    ``--opt=value``, repeated, with a value or path that starts with '-',
    with ``--`` or ``-h``, a bad choice or ``--cap``, or a path too few or
    too many."""
    command, path, rest = argv[0], argv[1], argv[2:]
    pairs = [rest[k:k + 2] for k in range(0, len(rest), 2)]
    out = [[command, *rest, path], [command, *sum(pairs[::-1], []), path],
           [command, *rest], [command, path, path, *rest],
           [command, "--", path, *rest], [command, path, *rest, "--"],
           [command, path, *rest, "-h"], ["-h", *argv],
           [command[:4], *argv[1:]],
           [command, "-" + path, *rest], [command, path, *rest, "-"]]
    for k, (flag, value) in enumerate(pairs):
        before, after = sum(pairs[:k], []), sum(pairs[k + 1:], [])
        for spelled in ([flag[:-1], value], [flag[:3], value],
                        [f"{flag}={value}"], [flag, value, flag, value],
                        [flag, "-" + value], [flag, "-1"], [flag, "--"],
                        [flag]):
            out.append([command, path, *before, *spelled, *after])
    for extra in (["--middle", "bogus"], ["--format", "xml"],
                  ["--predicate", "bogus"], ["--predicate", "n3d_zero"],
                  ["--cap", "x"], ["--cap", "1.5"], ["--cap", ""],
                  ["--cap", " 12 "], ["--cap", "1_0"], ["--cap", "9" * 5000],
                  ["--middle", "cor2", "--middle", "thm2"],
                  ["--cap", "3", "--cap", "4"], ["--param", ""],
                  ["--range", "a=1..2", "--range", "a=1..2"]):
        out.append([command, path, *rest, *extra])
    return out


def argparse_fields(argv):
    """argparse's fields for argv, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


def test_fast_path_reads_what_argparse_reads(tmp_path, monkeypatch):
    usual = (case_table_argvs(tmp_path) + alternate_argvs()
             + benchmark_argvs(tmp_path, monkeypatch))
    assert len(usual) > 150
    # variants of one argv per sequence of command and option names
    shapes = {tuple(t for t in argv
                    if t.startswith("--") or t in cli.COMMANDS): argv
              for argv in usual}
    corpus = usual + [v for argv in shapes.values() for v in variants(argv)]
    corpus += [[], ["bogus", "x"], ["-h"], ["--", "compute", "x"]]
    accepted = refused = 0
    for argv in corpus:
        fast, wanted = cli._fast_args(argv), argparse_fields(argv)
        if fast is not None:
            assert vars(fast) == wanted, argv
            accepted += 1
        refused += wanted is None
    assert all(cli._fast_args(argv) is not None for argv in usual)
    assert accepted > len(usual) and refused > len(usual)


def test_main_reads_sys_argv_without_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["conespec", "verify",
                                      str(FIXTURES / "two-lines.cfg")])
    assert cli.main() == 0
    assert capsys.readouterr().out.endswith("result: pass\n")
