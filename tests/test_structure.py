"""No function ships in the package unless something in it refers to it.

A module-level function, or a method whose name is not of the form
``__x__``, counts as referred to when an ``ast.Name`` or ``ast.Attribute``
anywhere under ``src/conespec/`` carries its name. Every other one must be
in `UNREFERENCED` with the reason it stays; removing such a function means
removing it here too, and a new one that nothing calls fails this test.

Nor does a command load what it does not use: importing `conespec.cli` in a
fresh interpreter loads neither `dataclasses` (and `inspect` with it) nor
the checker module `conespec.oracle`, which only ``verify`` and ``oracle``
import, and no package module imports `dataclasses` at all.
"""

import ast
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "conespec"

TRACED = "named by perfbench/tracing.py and used by the tests as a reference"

UNREFERENCED = {
    "cli.console": "the entry point pyproject.toml names",
    "oracle.CheckReport.record": "the machine-readable report ROADMAP item 6 "
                                 "builds on",
    "engine.euler_complement": "public API; the curve route reads chi(U) "
                               "from `_rows`",
    "engine.local_data_table": "public API: in `conespec.__all__`, in "
                               "README and in perfbench/tracing.py TARGETS",
    "engine.index_data": TRACED,
    "engine.residue_degree": TRACED,
    "local.lattice_count": TRACED,
    "local.window_count": TRACED,
    "oracle.brute_lattice": TRACED,
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def unreferenced_functions() -> set[str]:
    defined: dict[str, str] = {}       # qualified name -> bare name
    referred: set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined[f"{path.stem}.{node.name}"] = node.name
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, (ast.FunctionDef,
                                          ast.AsyncFunctionDef))
                            and not _is_dunder(item.name)):
                        defined[f"{path.stem}.{node.name}.{item.name}"] = \
                            item.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referred.add(node.id)
            elif isinstance(node, ast.Attribute):
                referred.add(node.attr)
    return {qualified for qualified, name in defined.items()
            if name not in referred}


def test_every_unreferenced_function_is_allowed():
    assert unreferenced_functions() == set(UNREFERENCED)
    assert all(UNREFERENCED.values())


def test_cold_import_of_the_cli_loads_no_unused_module():
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); "
             "import conespec.cli; "
             "print(' '.join(sorted(m for m in ('dataclasses', 'inspect', "
             "'conespec.oracle', 'typing') if m in sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", probe,
                           str(PACKAGE.parent)],
                          capture_output=True, text=True, timeout=60,
                          check=True)
    assert done.stdout.split() == []


def test_no_package_module_imports_dataclasses():
    importers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.partition(".")[0] == "dataclasses" for name in names):
                importers.append(path.name)
    assert importers == []
