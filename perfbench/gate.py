"""Output checks for benchmark operations, run outside the timed region.

Every operation's stdout and exit code are compared with an expectation the
benchmark builds on its own:

* ``compute`` on a golden case: the bytes of ``tests/golden/*.rows``;
* ``compute`` on an ordinary config: the rows of ``oracle.reference_ordinary``;
* ``compute`` on a weighted config, and every ``scan`` cell: a small
  integer-only evaluation of the curve-table formula written here, which
  shares no code with ``conespec.engine``;
* ``reduced``: the reduced-cone spectrum, its power transform and the n = 2
  table, rebuilt here from window counts taken with a difference array over
  local and smooth-cone spectra expanded here as power series (`spectrum`);
* ``verify``: every applicable check passes, except ``rows-nonnegative``
  on a table that really has a negative cell (exit 1, the documented known
  red); ``oracle``: every check passes and ``result: all-pass`` (exit 0).

The subjects are built by the benchmark (``vectors.py``, ``workloads.py``),
not parsed by ``conespec.formats``, and no expectation takes a spectrum from
``conespec.local``, so a wrong change to those modules cannot move both
sides of a check. `check` returns ``None`` when the output is right, else a
one-line reason.
"""

from __future__ import annotations

import csv
import io
import itertools
from dataclasses import dataclass
from fractions import Fraction

from conespec.oracle import reference_ordinary

NOTE = ("integer-exponent entries are formula values (no +1 adjustment "
        "applied at alpha=3)")


@dataclass(frozen=True)
class ReducedInput:
    """A ``reduced`` config as the benchmark writes it: ambient dimension n,
    degree d', power and one (weights, weighted degree) per ``localwh``."""

    n: int
    degree: int
    power: int
    systems: tuple


def spectrum(weights, degree: int) -> dict[int, int]:
    """{k: multiplicity} of the spectrum exponents k/degree of a germ with
    these weights and weighted degree: the coefficients of
    u^(w_1+...+w_n) * prod_i (1 - u^(degree - w_i)) / (1 - u^w_i), expanded
    as a power series in u. All exponents lie below n; a term at or past n
    means the weights describe no isolated germ."""
    top = len(weights) * degree
    series = [1] + [0] * top
    for w in weights:
        for k in range(top, degree - w - 1, -1):    # times 1 - u^(degree-w)
            series[k] -= series[k - (degree - w)]
        for k in range(w, top + 1):                 # over 1 - u^w
            series[k] += series[k - w]
    shift = sum(weights)
    if any(series[top - shift:]):
        raise ValueError(f"weights {weights} and degree {degree}: not isolated")
    return {shift + k: c for k, c in enumerate(series[:top - shift]) if c}


def binom2(n: int) -> int:
    return n * (n - 1) // 2


def lattice(w: int, wp: int, bound: int) -> int:
    """#{(m1, m2) >= 1 : w*m1 + wp*m2 <= bound}, one column at a time."""
    return sum((bound - w * m1) // wp for m1 in range(1, (bound - wp) // w + 1))


def point_degree(point) -> int:
    return sum(b.weighted_degree for b in point.branches)


def point_milnor(point) -> int:
    w, wp = point.weights
    dj = point_degree(point)
    return (dj - w) * (dj - wp) // (w * wp)


def curve_shape(cfg) -> tuple[int, int, int]:
    """(d, d', chi(U)) of a curve config."""
    d = sum(c.degree * c.multiplicity for c in cfg.components)
    dp = sum(c.degree for c in cfg.components)
    mu = sum(point_milnor(p) for p in cfg.points) + cfg.nodes
    return d, dp, (dp - 3) * dp + 3 - mu


def curve_column(cfg, i: int, shape=None) -> tuple[int, int, int]:
    """The three table cells at index i, in integers over the denominator d:
    ceil(m*i/d) is (m*i + d - 1)//d and the (0, 1] residue of m*i/d is
    ((m*i - 1) % d + 1)/d."""
    d, dp, chi = shape or curve_shape(cfg)
    twist = i - sum(c.degree * ((c.multiplicity * i + d - 1) // d - 1)
                    for c in cfg.components)
    delta = 1 if i == d else 0
    r0 = binom2(twist - 1)
    r2 = binom2(dp - twist - 1) - delta
    for p in cfg.points:
        w, wp = p.weights
        s = sum(b.weighted_degree * ((b.multiplicity * i - 1) % d + 1)
                for b in p.branches)
        g = -(-s // d)
        r0 -= lattice(w, wp, g - 1)
        r2 -= lattice(w, wp, point_degree(p) - g)
    return r0, chi - r0 - r2 - delta, r2


def curve_rows(cfg) -> tuple[int, int, tuple]:
    """(d, chi, rows) of the full table."""
    shape = curve_shape(cfg)
    d = shape[0]
    cols = [curve_column(cfg, i, shape) for i in range(1, d + 1)]
    return d, shape[2], tuple(tuple(c[e] for c in cols) for e in range(3))


def render_rows(d: int, chi: int, rows) -> str:
    join = lambda vals: ",".join(str(v) for v in vals)  # noqa: E731
    return (f"e=0: {join(rows[0])}\ne=1: {join(rows[1])}\n"
            f"e=2: {join(rows[2][:d - 1])}\nchi(U)={chi}\n"
            f"# note: omitted e=2,i={d} value {rows[2][d - 1]}; {NOTE}\n")


def render_csv(d: int, rows) -> str:
    lines = ["i,alpha,e,value"]
    for e in range(3):
        lines.extend(f"{i},{Fraction(i, d) + e},{e},{rows[e][i - 1]}"
                     for i in range(1, d + 1))
    return "\n".join(lines) + "\n"


def expected_compute(op) -> str:
    if op.golden is not None:
        return op.golden.read_text(encoding="utf-8")
    cfg = op.subject
    if cfg.is_ordinary() and cfg.incidence is not None:
        ref = reference_ordinary(cfg)
        d, chi, rows = ref.d, ref.chi_u, ref.rows
    else:
        d, chi, rows = curve_rows(cfg)
    return render_rows(d, chi, rows) if op.fmt == "rows" else render_csv(d, rows)


def _window_counts(spectra, dp: int, top: int) -> list[int]:
    """win[k] = multiplicity of exponents e with k/dp - 1 <= e < k/dp, for
    k in 1..top: an exponent q/den adds to the k in (q*dp/den, q*dp/den + dp]."""
    diff = [0] * (top + 2)
    for den, spec in spectra:
        for q, m in spec.items():
            lo = q * dp // den + 1
            hi = min(lo - 1 + dp, top)
            if lo <= hi:
                diff[lo] += m
                diff[hi + 1] -= m
    return list(itertools.accumulate(diff))


def _render_spectrum(entries: dict, den: int) -> str:
    items = sorted((Fraction(k, den), v) for k, v in entries.items() if v)
    return ", ".join(f"{e}:{v}" for e, v in items) if items else "(empty)"


def expected_reduced(cfg: ReducedInput) -> str:
    n, dp, m = cfg.n, cfg.degree, cfg.power
    top = (n + 1) * dp
    spectra = [(deg, spectrum(w, deg)) for w, deg in cfg.systems]
    win = _window_counts(spectra, dp, top)
    smooth = spectrum((1,) * (n + 1), dp)
    base = {k: smooth.get(k, 0) - win[k] for k in range(1, top)}
    out = [_render_spectrum(base, dp)]
    if m > 1:
        # cell i/d' + p spreads over (i + l*d' + p*m*d')/(m*d'), l < m
        power: dict[int, int] = {}
        for i in range(1, dp + 1):
            for p in range(n + 1):
                for l in range(m):
                    v = base.get(i + p * dp, 0)
                    if i == dp and p == n and l != m - 1:
                        v += (-1) ** n
                    k = i + l * dp + p * m * dp
                    if v and k < (n + 1) * m * dp:
                        power[k] = power.get(k, 0) + v
        out.append(f"power m={m}: {_render_spectrum(power, m * dp)}")
    text = "\n".join(out) + "\n"
    if n == 2:
        d = dp
        rows = ([binom2(i - 1) - win[i] for i in range(1, d + 1)],
                [(i - 1) * (d - i - 1) + binom2(d) - win[i + d]
                 for i in range(1, d + 1)],
                [binom2(d - i - 1) - win[i + 2 * d] - (i == d)
                 for i in range(1, d + 1)])
        chi = 3 - ((3 - d) * d + sum(sum(s.values()) for _, s in spectra))
        text += render_rows(d, chi, rows)
    return text


def expected_verify(cfg) -> tuple[list[str], bool]:
    """(check names in print order, whether rows-nonnegative must FAIL)."""
    if isinstance(cfg, ReducedInput):
        names = ["local-spectra"]
        if cfg.n == 2:
            names += ["row-sum", "table-spectrum-agreement"]
        if cfg.power > 1:
            names.append("power-support")
        return names, False
    names = ["row-sum", "rows-nonnegative", "index-ranges", "local-spectra"]
    if cfg.incidence is not None and cfg.incidence.matrix is not None:
        names.append("incidence-product")
    if cfg.is_ordinary() and cfg.incidence is not None:
        names.append("middle-agreement")
    if cfg.is_reduced():
        names.append("local-table-agreement")
    mults = {c.multiplicity for c in cfg.components}
    if (len(mults) == 1 and min(mults) > 1
            and all(b.multiplicity == min(mults)
                    for p in cfg.points for b in p.branches)):
        names.append("thickening-agreement")
    d, _, rows = curve_rows(cfg)
    negative = any(rows[e][i] < 0 for e in range(3) for i in range(d - 1))
    return names, negative


def expected_oracle(cfg) -> list[str]:
    if cfg.is_ordinary() and cfg.incidence is not None:
        return ["rows-e0", "rows-e2", "middle-incidence", "middle-balance",
                "chi", "row-sum", "lattice-counts", "smooth-coeffs"]
    names = ["row-sum"]
    if cfg.is_reduced():
        names += ["local-table-e0", "local-table-e2", "local-table-e1"]
    return names + ["lattice-counts", "smooth-coeffs"]


def _check_report(out: str, code: int, names: list[str], failing: set,
                  result: tuple[str, str]) -> str | None:
    """Compare a verify/oracle report: one ``name: PASS|FAIL ...`` line per
    check in order, then the result line; comment lines are skipped."""
    lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
    if not lines:
        return f"no report, exit {code}"
    got = [ln.partition(":")[0] for ln in lines[:-1]]
    if got != names:
        return f"checks {got} != expected {names}"
    for name, line in zip(names, lines):
        status = line.partition(": ")[2].split(" ")[0]
        if status != ("FAIL" if name in failing else "PASS"):
            return f"unexpected {line!r}"
    want_code = 1 if failing else 0
    want = "result: " + (result[1] if failing else result[0])
    if lines[-1] != want or code != want_code:
        return f"ended {lines[-1]!r} exit {code}, expected {want!r} exit {want_code}"
    return None


def expected_scan(op) -> str:
    names, spans, fixed, predicates, build = op.grid
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(list(names) + ["d", "dprime", "n_3_over_d", "chi_u", "flags"])
    for combo in itertools.product(*spans):
        cfg = build(dict(fixed, **dict(zip(names, combo))))
        shape = curve_shape(cfg)
        d, dp, chi = shape
        n3d = curve_column(cfg, 3, shape)[0] if d >= 3 else None
        values = {"n3d_zero": None if n3d is None else n3d == 0,
                  "chi_nonzero": chi != 0}
        satisfied = [p for p in predicates if values[p] is True]
        undefined = [p for p in predicates if values[p] is None]
        if predicates and not undefined and len(satisfied) != len(predicates):
            continue
        writer.writerow(list(combo) + [d, dp, "n/a" if n3d is None else n3d,
                                       chi, "n/a" if undefined else ";".join(satisfied)])
    return out.getvalue()


def check(op, code: int, out: str) -> str | None:
    """None if the operation's output and exit code are right, else why not."""
    if op.command in ("compute", "reduced", "scan"):
        if code != 0:
            return f"exit {code}"
        if op.command == "compute":
            want = expected_compute(op)
        elif op.command == "reduced":
            want = expected_reduced(op.subject)
        else:
            want = expected_scan(op)
        if out != want:
            got, exp = out.splitlines(), want.splitlines()
            line = next((k for k, (a, b) in enumerate(zip(got, exp)) if a != b),
                        min(len(got), len(exp)))
            return f"output differs from the expectation at line {line + 1}"
        return None
    if op.command == "verify":
        names, negative = expected_verify(op.subject)
        failing = {"rows-nonnegative"} if negative else set()
        return _check_report(out, code, names, failing, ("pass", "FAIL"))
    if op.command == "oracle":
        return _check_report(out, code, expected_oracle(op.subject), set(),
                             ("all-pass", "MISMATCH"))
    return f"unknown command {op.command!r}"
