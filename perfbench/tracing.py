"""Per-layer tracing from outside the package.

`Tracer.installed()` wraps the public functions of each ``conespec`` module
and rebinds every module-level name that refers to them, so that calls made
through ``from .engine import curve_table`` (as in ``cli`` and ``oracle``)
are traced too; on exit the originals are put back. A traced call records a
span (name, start, end, parent span, operation id) in memory. Functions
called once per table row or cell (``HOT``) would make millions of spans, so
their spans are folded into per-name totals on the nearest enclosing span.
Self time is a span's duration minus the time of the traced calls inside it.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, attribute) of each traced function; a dotted attribute is a method
TARGETS = (
    ("formats", "parse_vector_text"), ("formats", "parse_singular"),
    ("formats", "parse_native"), ("formats", "emit_table"),
    ("engine", "curve_table"), ("engine", "index_data"),
    ("engine", "residue_degree"), ("engine", "ordinary_middle_row"),
    ("engine", "reduced_cone_spectrum"), ("engine", "thickened_spectrum"),
    ("engine", "local_data_table"),
    ("local", "lattice_count"), ("local", "window_count"),
    ("local", "weighted_spectrum"),
    ("spectrum", "SpectrumVector.__init__"), ("spectrum", "SpectrumVector.render"),
    ("oracle", "cross_check"), ("oracle", "reference_ordinary"),
    ("oracle", "brute_lattice"),
    ("cli", "main"),
)

HOT = {"engine.index_data", "engine.residue_degree", "local.lattice_count",
       "local.window_count", "oracle.brute_lattice"}


class Tracer:
    """Spans and per-name totals of traced calls, kept in memory."""

    def __init__(self):
        self.spans: list[dict] = []       # full spans, in start order
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)   # scaled, committed
        self._pending: defaultdict = defaultdict(float)  # raw, current operation
        self.op = -1
        self.command = ""
        self._frames: list[list] = []     # [child time, span index or None]
        self._open: list[int] = []        # indices of open full spans
        # counts observed from arguments and results
        self.cells = 0
        self.emit_bytes = 0
        self.lattice_args: set = set()
        self.scan_points = 0
        self.scan_cells = 0
        self.scan_cells_used = 0

    def _observe(self, name, args, result):
        if name == "engine.curve_table":
            self.cells += 3 * result.d
            if self.command == "scan":
                self.scan_points += 1
                self.scan_cells += 3 * result.d
                self.scan_cells_used += result.d >= 3
        elif name == "formats.emit_table":
            self.emit_bytes += len(result.encode())
        elif name == "local.lattice_count":
            self.lattice_args.add(args)

    def _wrap(self, name: str, fn):
        frames, opened, spans = self._frames, self._open, self.spans
        calls = self.calls
        hot = name in HOT
        observe = name in ("engine.curve_table", "formats.emit_table",
                           "local.lattice_count")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0, None]
            if not hot:
                frame[1] = len(spans)
                spans.append({"op": self.op, "name": name,
                              "parent": opened[-1] if opened else None})
                opened.append(frame[1])
            frames.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                frames.pop()
                duration = end - start
                own = duration - frame[0]
                if frames:
                    frames[-1][0] += duration
                calls[name] += 1
                self._pending[name] += own
                if hot:
                    if opened:
                        rolled = spans[opened[-1]].setdefault("rolled", {})
                        total = rolled.setdefault(name, [0, 0.0])
                        total[0] += 1
                        total[1] += own
                else:
                    opened.pop()
                    spans[frame[1]].update(start=start, end=end, self_s=own)
            if observe:
                self._observe(name, args, result)
            return result

        return traced

    @contextmanager
    def installed(self, op: int, command: str):
        """Trace every call into the package inside the block."""
        import conespec
        modules = [m for n, m in sys.modules.items()
                   if n == "conespec" or n.startswith("conespec.")]
        self.op, self.command = op, command
        undo = []
        try:
            for mod_name, attr in TARGETS:
                module = getattr(conespec, mod_name)
                owner_name, _, method = attr.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name)
                    original = owner.__dict__[method]
                    undo.append((owner, method, original))
                    setattr(owner, method,
                            self._wrap(f"{mod_name}.{attr}", original))
                    continue
                original = getattr(module, attr)
                traced = self._wrap(f"{mod_name}.{attr}", original)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            undo.append((m, key, original))
                            setattr(m, key, traced)
            yield
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)

    def exclude(self, seconds: float) -> None:
        """Leave `seconds` spent inside the running traced call (by the
        calibration kernel) out of its self time."""
        if self._frames:
            self._frames[-1][0] += seconds

    def commit(self, scale: float) -> None:
        """Add the current operation's self times, scaled to the reference
        speed (see calibrate.py)."""
        for name, seconds in self._pending.items():
            self.self_s[name] += seconds * scale
        self._pending.clear()

    def total(self, *names) -> float:
        return sum(self.self_s[n] for n in names)

    def count(self, *names) -> int:
        return sum(self.calls[n] for n in names)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def layer_metrics(tr: Tracer, checks_run: int, checks_failed: int) -> dict:
    """Per-layer metrics: self times in seconds, exact counts, ratios.
    ``trace.overhead_ratio`` needs an untraced pass and is added by the run."""
    parse = ("formats.parse_vector_text", "formats.parse_singular",
             "formats.parse_native")
    lattice_calls = tr.count("local.lattice_count")
    s, n = "s", "count"
    return {
        "formats.parse_s": (tr.total(*parse), s),
        "formats.parse_calls": (tr.count(*parse), n),
        "formats.emit_s": (tr.total("formats.emit_table"), s),
        "formats.emit_bytes": (tr.emit_bytes, "bytes"),
        "engine.curve_table_s": (tr.total("engine.curve_table"), s),
        "engine.curve_table_calls": (tr.count("engine.curve_table"), n),
        "engine.cells": (tr.cells, n),
        "engine.index_data_calls": (tr.count("engine.index_data"), n),
        "engine.residue_degree_calls": (tr.count("engine.residue_degree"), n),
        "engine.residue_degree_s": (tr.total("engine.residue_degree"), s),
        "engine.ordinary_middle_row_s": (tr.total("engine.ordinary_middle_row"), s),
        "engine.reduced_cone_spectrum_s": (tr.total("engine.reduced_cone_spectrum"), s),
        "engine.thickened_spectrum_s": (tr.total("engine.thickened_spectrum"), s),
        "engine.local_data_table_s": (tr.total("engine.local_data_table"), s),
        "local.lattice_count_calls": (lattice_calls, n),
        "local.lattice_count_s": (tr.total("local.lattice_count"), s),
        "local.lattice_distinct_ratio":
            (len(tr.lattice_args) / lattice_calls if lattice_calls else 0.0, "ratio"),
        "local.window_count_calls": (tr.count("local.window_count"), n),
        "local.window_count_s": (tr.total("local.window_count"), s),
        "local.weighted_spectrum_s": (tr.total("local.weighted_spectrum"), s),
        "spectrum.vectors_built": (tr.count("spectrum.SpectrumVector.__init__"), n),
        "spectrum.render_s": (tr.total("spectrum.SpectrumVector.render"), s),
        "oracle.cross_check_s": (tr.total("oracle.cross_check"), s),
        "oracle.reference_ordinary_s": (tr.total("oracle.reference_ordinary"), s),
        "oracle.brute_lattice_calls": (tr.count("oracle.brute_lattice"), n),
        "oracle.brute_lattice_s": (tr.total("oracle.brute_lattice"), s),
        "cli.self_s": (tr.total("cli.main"), s),
        "cli.scan_points": (tr.scan_points, n),
        "cli.scan_cells_used_ratio":
            (tr.scan_cells_used / tr.scan_cells if tr.scan_cells else 0.0, "ratio"),
        "cli.checks_run": (checks_run, n),
        "cli.checks_failed": (checks_failed, n),
    }
