"""Times the three hand-measured baselines of ROADMAP.md on this checkout.

    python3 perfbench/baseline.py

* ``curve_table`` on sextic-pencil at a=300, b=2, c=1 (d = 1819): 0.8 s
* ``cross_check`` on the same config: 3.2 s
* ``scan`` of five-lines over a, b in 1..30 at c=0: 3.3 s

Each is timed REPEATS times in this process, raw and scaled to the
reference speed of calibrate.py; the medians are printed, and a gap of more
than 2x from the hand-measured figure is flagged.
"""

from __future__ import annotations

import io
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REPEATS = 3


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from calibrate import Speed
    from conespec.cli import ScanSpec, run_scan
    from conespec.engine import curve_table
    from conespec.formats import parse_singular, parse_vector_text
    from conespec.oracle import cross_check

    fixtures = ROOT / "fixtures"
    sextic = parse_singular(
        parse_vector_text((fixtures / "sextic-pencil.vectors").read_text()),
        {"a": 300, "b": 2, "c": 1})
    grid = ScanSpec(template=(fixtures / "five-lines.vectors").read_text(),
                    ranges={"a": (1, 30), "b": (1, 30)}, fixed={"c": 0})
    cases = [
        ("curve_table d=1819", 0.8, lambda: curve_table(sextic)),
        ("cross_check d=1819", 3.2, lambda: cross_check(sextic)),
        ("scan five-lines 30x30", 3.3, lambda: run_scan(grid, io.StringIO())),
    ]
    print(f"{'case':24s} {'roadmap_s':>9s} {'raw_s':>8s} {'scaled_s':>8s}  note")
    for name, roadmap, call in cases:
        raw, at_reference = [], []
        for _ in range(REPEATS):
            with Speed().timed() as took:
                call()
            raw.append(took["raw"])
            at_reference.append(took["scaled"])
        r, s = statistics.median(raw), statistics.median(at_reference)
        ratio = max(r, roadmap) / min(r, roadmap)
        note = f"gap {ratio:.1f}x" if ratio > 2 else "within 2x"
        print(f"{name:24s} {roadmap:9.2f} {r:8.3f} {s:8.3f}  {note}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
