"""The four-vector fixtures (``GlCmp``, ``Si``, ``OD``, ``LG``), read and
expanded by the benchmark itself.

Configs built here are the subjects the output gate checks against, so they
must not come from ``conespec.formats``: a wrong change to the package's
template parser would otherwise move the program and its expectation alike.
Entries are integer expressions in the fixture parameters with ``+``, ``-``,
``*`` and floor division ``div``; a negative entry starts a group and carries
its repeat count.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from conespec.engine import CurveConfig, GlobalComponent, Incidence
from conespec.local import LocalBranch, SingularPoint

_OPS = {ast.Add: lambda a, b: a + b, ast.Sub: lambda a, b: a - b,
        ast.Mult: lambda a, b: a * b, ast.FloorDiv: lambda a, b: a // b}


def _value(node, binding: dict) -> int:
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return node.value
    if isinstance(node, ast.Name):
        return binding[node.id]
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return -_value(node.operand, binding)
    if isinstance(node, ast.BinOp) and type(node.op) in _OPS:
        return _OPS[type(node.op)](_value(node.left, binding),
                                   _value(node.right, binding))
    raise ValueError(f"unsupported template entry {ast.dump(node)}")


class VectorTemplate:
    """A ``.vectors`` file; `config(binding)` expands it to a CurveConfig."""

    def __init__(self, path: Path):
        self.path = path
        body = " ".join(line.partition("#")[0]
                        for line in path.read_text(encoding="utf-8").splitlines())
        self.fields = {}
        for chunk in filter(str.strip, body.split(";")):
            key, _, entries = chunk.partition("=")
            self.fields[key.strip()] = [
                ast.parse(re.sub(r"\bdiv\b", "//", e).strip(), mode="eval").body
                for e in entries.split(",")]

    def _eval(self, key: str, binding: dict) -> list[int]:
        return [_value(node, binding) for node in self.fields[key]]

    def config(self, binding: dict) -> CurveConfig:
        glcmp = self._eval("GlCmp", binding)
        components = [GlobalComponent(glcmp[k + 1], glcmp[k + 2])
                      for k in range(0, len(glcmp), 3)
                      for _ in range(-glcmp[k])]
        si = self._eval("Si", binding)
        points, pos = [], 0
        while pos < len(si):
            count, branches = -si[pos], si[pos + 1]
            pos += 2
            mults = []
            while pos < len(si) and si[pos] > 0:
                mults.append(si[pos])
                pos += 1
            mults += [1] * (branches - len(mults))
            point = SingularPoint((1, 1), tuple(LocalBranch(1, m) for m in mults))
            points += [point] * count
        lg = self._eval("LG", binding)
        pairs = ([] if lg == [0] else
                 [(-lg[k], lg[k + 1]) for k in range(0, len(lg), 2) if lg[k]])
        return CurveConfig(tuple(components), tuple(points),
                           nodes=self._eval("OD", binding)[0],
                           incidence=Incidence.from_pairs(pairs))
