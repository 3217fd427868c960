"""The names the benchmark's tracer wraps exist in the package.

`perfbench/tracing.py` rebinds each ``TARGETS`` entry while it traces; a
name the package no longer has breaks every ``--trace 1`` run.
"""

import importlib.util
from pathlib import Path

import conespec
import conespec.cli  # noqa: F401
import conespec.oracle  # noqa: F401  (cli loads it only for verify, oracle)

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracing = load_tracing()
    for mod_name, attr in tracing.TARGETS:
        module = getattr(conespec, mod_name)
        owner_name, _, name = attr.rpartition(".")
        if owner_name:
            assert callable(vars(getattr(module, owner_name)).get(name)), attr
        else:
            assert callable(getattr(module, name, None)), attr
    traced = {f"{mod_name}.{attr}" for mod_name, attr in tracing.TARGETS}
    assert tracing.HOT <= traced
