"""README's claims, run: the library example's printed values, the command
examples against the shipped fixtures, what a cold `import conespec.cli`
loads, and the table of error codes."""

import contextlib
import io
import re
import shlex
import subprocess
import sys
from pathlib import Path

from conespec.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def block(lang, after=""):
    """The first fenced `lang` block of README that follows the text
    `after`."""
    start = README.index(after)
    return re.search(rf"```{lang}\n(.*?)```", README[start:], re.S).group(1)


def test_library_example_prints_its_comments():
    code = block("python")
    want = [line.partition("# ")[2].strip() for line in code.splitlines()
            if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert want and out.getvalue().splitlines() == want


def test_command_examples_exit_zero(monkeypatch, capsys):
    text = block("sh", "Examples against the shipped fixtures").replace(
        "\\\n", " ")
    commands = [shlex.split(line) for line in text.splitlines()]
    monkeypatch.chdir(ROOT)
    assert len(commands) == 5
    for argv in commands:
        assert argv[0] == "conespec"
        assert main(argv[1:]) == 0, argv
        assert capsys.readouterr().out


def test_cold_import_loads_what_the_readme_says():
    para = next(p for p in README.split("\n\n")
                if p.startswith("`import conespec.cli` loads"))
    loads, _, rest = para.partition("it does not load")
    names = {name: True for name in
             re.findall(r"`(\w+)`", loads.partition("standard library")[2])}
    names |= {name: False for name in
              re.findall(r"`(\w+)`", rest.partition(".")[0])}
    names[re.search(r"live in `([\w.]+)`", rest).group(1)] = False
    # the probe imports nothing but `sys` before the package
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); "
             "import conespec.cli; "
             "print(' '.join(m for m in sys.argv[2:] if m in sys.modules))")
    done = subprocess.run([sys.executable, "-S", "-c", probe,
                           str(ROOT / "src"), *names],
                          capture_output=True, text=True, timeout=60,
                          check=True)
    assert len(names) == 14
    assert done.stdout.split() == [name for name in names if names[name]]


def test_error_code_table_lists_every_code():
    """README's table of error codes lists each code the package raises,
    once, and no other."""
    table = re.findall(r"^\| `([a-z0-9-]+)` \|", README, re.M)
    raised = set()
    for path in (ROOT / "src" / "conespec").glob("*.py"):
        raised |= set(re.findall(r'(?:ConfigError|_coded)\(\s*"([a-z0-9-]+)"',
                                 path.read_text(encoding="utf-8")))
    assert len(raised) > 30
    assert sorted(table) == sorted(raised)
