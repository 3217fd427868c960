"""No function ships in the package unless something in it refers to it.

A module-level function counts as referred to when an ``ast.Name`` or
``ast.Attribute`` anywhere under ``src/conespec/`` carries its name. A
method whose name is not of the form ``__x__`` counts only when package
code calls it as ``x.name(...)``, or, for a ``@property``, when it reads
``x.name``: a field read of the same name (``c.multiplicity``) does not
keep a method of that name. Every other one must be in `UNREFERENCED` with
the reason it stays; removing such a function means removing it here too,
and a new one that nothing calls fails this test.

Nor does a command load what it does not use: importing `conespec.cli` in a
fresh interpreter loads neither `dataclasses` (and `inspect` with it) nor
the checker module `conespec.oracle`, which only ``verify`` and ``oracle``
import, nor `re` (and `enum` with it), since the template lexer reads
characters; and no package module imports `dataclasses` at all.

Nor does a package module carry its own ``if __name__ == "__main__"``
block: ``python -m conespec`` (`__main__.py`) and the ``conespec`` script
are the ways to run the command.

Nor does a package module other than `spectrum` test for an exact int
(``type(x) is int`` or ``is not int``): `spectrum._count` owns the
integer-field rule, its fast path for an int included, and every record
reads its integer fields through it or `spectrum._positive`. Nor does a
string outside a docstring say "must be positive", save in `_positive`,
which owns that refusal, and in the three `formats` checks that no record
can take over: the vector branch count, the vector ``LG`` value and the
native incidence pairs.

Nor do README and the package's docstrings and comments name a private
helper that the package no longer defines, and README names no private
name at all: it states what a user can rely on, and the mechanism lives in
the docstrings of the code that owns it.
"""

import ast
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "conespec"

TRACED = "named by perfbench/tracing.py and used by the tests as a reference"

UNREFERENCED = {
    "oracle.CheckReport.record": "the machine-readable report ROADMAP item 6 "
                                 "builds on",
    "engine.euler_complement": "public API; the curve route reads chi(U) "
                               "off the config",
    "engine.local_data_table": "public API: in `conespec.__all__`, in "
                               "README and in perfbench/tracing.py TARGETS",
    "engine.thickened_spectrum": "public API: in `conespec.__all__`, in "
                                 "README and in perfbench/tracing.py "
                                 "TARGETS; `reduced` and `verify` read the "
                                 "power row it wraps",
    "engine.index_data": TRACED,
    "engine.residue_degree": TRACED,
    "local.lattice_count": TRACED,
    "local.window_count": TRACED,
    "oracle.brute_lattice": TRACED,
    "spectrum.SpectrumVector.dual": "public API: the reflection that "
                                    "`is_symmetric` compares with, without "
                                    "building it",
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


_FUNCTION = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_property(node: ast.FunctionDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "property"
               for d in node.decorator_list)


def unreferenced_functions(sources: dict[str, str] | None = None
                           ) -> set[str]:
    """Qualified names of the functions, methods and properties nothing
    refers to; `sources` maps module names to their text, the package's own
    modules when not given."""
    if sources is None:
        sources = {path.stem: path.read_text(encoding="utf-8")
                   for path in sorted(PACKAGE.glob("*.py"))}
    defined: dict[str, tuple[str, str]] = {}   # qualified -> (name, kind)
    referred = {"function": set(), "method": set(), "property": set()}
    for stem, text in sources.items():
        tree = ast.parse(text)
        for node in tree.body:
            if isinstance(node, _FUNCTION):
                defined[f"{stem}.{node.name}"] = (node.name, "function")
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, _FUNCTION)
                            and not _is_dunder(item.name)):
                        kind = "property" if _is_property(item) else "method"
                        defined[f"{stem}.{node.name}.{item.name}"] = \
                            (item.name, kind)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referred["function"].add(node.id)
            elif isinstance(node, ast.Attribute):
                referred["function"].add(node.attr)
                referred["property"].add(node.attr)
            elif (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                referred["method"].add(node.func.attr)
    return {qualified for qualified, (name, kind) in defined.items()
            if name not in referred[kind]}


def test_every_unreferenced_function_is_allowed():
    assert unreferenced_functions() == set(UNREFERENCED)
    assert all(UNREFERENCED.values())


def test_a_field_read_keeps_no_method():
    """A method is kept by a call, a property by a read, a function by its
    name: a field read that shares a method's name keeps nothing."""
    source = ("class Branch:\n"
              "    def multiplicity(self): ...\n"
              "    def total(self): ...\n"
              "    @property\n"
              "    def degree(self): ...\n"
              "def helper(): ...\n"
              "def use(b):\n"
              "    return b.multiplicity, b.degree, b.total(), helper\n")
    assert unreferenced_functions({"m": source}) == {
        "m.Branch.multiplicity", "m.use"}


def test_cold_import_of_the_cli_loads_no_unused_module():
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); "
             "import conespec.cli; "
             "print(' '.join(sorted(m for m in ('dataclasses', 'inspect', "
             "'conespec.oracle', 'typing', 're', 'enum') "
             "if m in sys.modules)))")
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


def main_guards(text: str) -> int:
    """How many comparisons of ``__name__`` with "__main__" `text` holds."""
    return sum(isinstance(node, ast.Compare)
               and isinstance(node.left, ast.Name)
               and node.left.id == "__name__"
               and any(isinstance(c, ast.Constant) and c.value == "__main__"
                       for c in node.comparators)
               for node in ast.walk(ast.parse(text)))


def test_no_package_module_has_a_main_guard():
    guarded = [path.name for path in sorted(PACKAGE.glob("*.py"))
               if main_guards(path.read_text(encoding="utf-8"))]
    assert guarded == []
    assert main_guards('if __name__ == "__main__":\n    main()\n') == 1


def exact_int_tests(text: str) -> int:
    """How many comparisons of ``type(...)`` with ``int`` by ``is`` or
    ``is not`` `text` holds, either side first."""
    def is_type_call(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "type")
    count = 0
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Compare) and all(
                isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops):
            sides = [node.left, *node.comparators]
            count += (any(map(is_type_call, sides))
                      and any(isinstance(side, ast.Name) and side.id == "int"
                              for side in sides))
    return count


def test_only_spectrum_tests_for_an_exact_int():
    testers = [path.name for path in sorted(PACKAGE.glob("*.py"))
               if exact_int_tests(path.read_text(encoding="utf-8"))]
    assert testers == ["spectrum.py"]
    assert exact_int_tests("if type(x) is not int:\n    x = f(x)\n") == 1
    assert exact_int_tests("ok = int is type(x)\n") == 1
    assert exact_int_tests("ok = type(x) == int or type(x) is str\n") == 0


def positive_refusals(text: str) -> list[str]:
    """The innermost function holding each string constant of `text`, an
    f-string part included and a docstring not, that says "must be
    positive"."""
    tree = ast.parse(text)
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, *_FUNCTION))
                  and node.body and isinstance(node.body[0], ast.Expr)}

    def holders(node, name):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Constant) and id(child) not in docstrings
                    and "must be positive" in str(child.value)):
                yield name
            yield from holders(child, child.name
                               if isinstance(child, _FUNCTION) else name)
    return list(holders(tree, None))


def test_only_spectrum_and_three_parser_checks_refuse_a_nonpositive():
    found = {path.name: positive_refusals(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: holders for name, holders in found.items() if holders} == {
        "formats.py": ["parse_singular", "parse_singular", "_incidence"],
        "spectrum.py": ["_positive"]}
    assert found["engine.py"] == found["local.py"] == []
    assert positive_refusals('def f(x):\n    "x must be positive"\n'
                             '    return f"{x} must be positive"\n') == ["f"]


# a private name, neither a dunder nor a bare `_`, right after a backtick or
# after the dot of a backticked dotted name (`cli._split_name`)
_PRIVATE_MENTION = re.compile(r"`+(?:\w+\.)*(_(?!_)\w+)")


def defined_names(sources: dict[str, str]) -> set[str]:
    """Every name that `sources` (module name -> text) define: functions
    and classes at any depth, module-level assignments and `__slots__`
    entries."""
    names = set()
    for text in sources.values():
        tree = ast.parse(text)
        for node in tree.body:
            if isinstance(node, ast.Assign):
                names |= {t.id for t in node.targets
                          if isinstance(t, ast.Name)}
            elif (isinstance(node, ast.AnnAssign)
                    and isinstance(node.target, ast.Name)):
                names.add(node.target.id)
        for node in ast.walk(tree):
            if isinstance(node, (*_FUNCTION, ast.ClassDef)):
                names.add(node.name)
            elif (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__slots__"
                            for t in node.targets)):
                names |= {e.value for e in ast.walk(node.value)
                          if isinstance(e, ast.Constant)}
    return names


def stale_private_mentions(texts: dict[str, str],
                           sources: dict[str, str]) -> set[tuple[str, str]]:
    """(where, name) of every backticked private name in `texts` (where ->
    text) that `sources` do not define."""
    defined = defined_names(sources)
    return {(where, name) for where, text in texts.items()
            for name in _PRIVATE_MENTION.findall(text)
            if name not in defined}


def test_every_backticked_private_name_is_defined():
    """README and the package's docstrings and comments name no private
    helper the package does not define; `_record.py`'s `_x` stands for any
    slot."""
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    texts = {**sources,
             "README.md": (ROOT / "README.md").read_text(encoding="utf-8")}
    assert stale_private_mentions(texts, sources) == {("_record.py", "_x")}


def test_readme_names_no_private_name():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert _PRIVATE_MENTION.findall(readme) == []


def test_stale_private_mentions_sees_every_definition_kind():
    source = ("_LIMIT = 3\n"
              "class _Box:\n"
              "    __slots__ = ('_held',)\n"
              "    def _open(self):\n"
              "        def _inner(): ...\n")
    text = ("`_LIMIT`, ``_Box``, `_Box._held`, `_open(x)`, `_inner`, "
            "`m._gone`, `_rows(cfg)`, `__init__`, `_`")
    assert stale_private_mentions({"t": text}, {"m": source}) == {
        ("t", "_gone"), ("t", "_rows")}
