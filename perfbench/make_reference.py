"""Regenerate ``reference.json``: the frozen digest of every grid cell.

Usage: ``python3 perfbench/make_reference.py`` from the repository root.

Every CLI cell is run once as ``python -m sheffermat ...``; its stdout
digest, exit code and wall time are recorded.  Every session cell is run
in this process through the worker's own task code.  Before anything is
written, the small cells are checked against an independent sympy
expansion (sympy is a test dependency), so the digests are not certified
only by the engine that produced them:

* degrees 0..8 of every family and kind: the ``gen`` cells at n=10
  (json) and the sequences of the session cells at n=8;
* the (a, b, c) vectors of every family and label at n=10: the
  ``coeffs`` cells.

Exits 1 without writing when a check fails.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from run import child_env  # noqa: E402
from session_worker import build_pool, run_task, serialize  # noqa: E402
from workloads import (  # noqa: E402
    FAMILIES,
    KINDS,
    LABELS,
    SETUP_CELL,
    WORKLOADS,
    cell_argv,
    gen_cell,
    grid,
)

SPOT_N = 8


def run_cli_cell(cell: str) -> tuple[dict, bytes]:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "sheffermat", *cell_argv(cell)],
        cwd=ROOT, env=child_env(), capture_output=True, timeout=600,
    )
    seconds = time.perf_counter() - start
    if b"Traceback" in proc.stderr:
        raise SystemExit(f"{cell}: traceback\n{proc.stderr.decode()}")
    entry = {
        "exit": proc.returncode,
        "sha256": hashlib.sha256(proc.stdout).hexdigest(),
        "seconds": round(seconds, 3),
    }
    return entry, proc.stdout


# -- the sympy oracle -----------------------------------------------------


def _closed_forms(fam: str):
    """(l, h, g) of a family as sympy functions of y; g = h^{-1}."""
    import sympy as sp

    name, params = FAMILIES[fam]
    if name == "laguerre":
        lam = sp.Rational(params["lambda"])
        y_over_y_minus_1 = lambda t: t / (t - 1)  # noqa: E731  (an involution)
        return (lambda t: (1 - t) ** (-lam - 1), y_over_y_minus_1, y_over_y_minus_1)
    if name == "log-assoc":
        return (lambda t: sp.Integer(1), lambda t: sp.exp(t) - 1, lambda t: sp.log(1 + t))
    ident = lambda t: t  # noqa: E731
    if name == "hermite":
        return (lambda t: sp.exp(t**2 / 2), ident, ident)
    if name == "miller-lee":
        m = sp.Rational(params["m"])
        return (lambda t: (1 - t) ** (m + 1), ident, ident)
    if name == "bernoulli":
        return (lambda t: (sp.exp(t) - 1) / t, ident, ident)
    raise ValueError(fam)


def _taylor(expr, y, n: int) -> list:
    import sympy as sp

    series = sp.expand(sp.series(expr, y, 0, n + 1).removeO())
    return [series.coeff(y, k) for k in range(n + 1)]


def _to_fraction(value) -> Fraction:
    import sympy as sp

    if not value.is_Rational:
        value = sp.simplify(value)
    if not value.is_Rational:
        raise ValueError(f"not rational: {value}")
    return Fraction(int(value.p), int(value.q))


def _trim(coeffs: list[Fraction]) -> list[Fraction]:
    while coeffs and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    return coeffs


def sympy_sequence(fam: str, kind: str, n: int) -> list[list[Fraction]]:
    """Degrees 0..n of a sequence, from its generating function."""
    import sympy as sp

    x, y = sp.symbols("x y")
    l, _, g = _closed_forms(fam)
    egf = {
        "sheffer": sp.exp(x * g(y)) / l(g(y)),
        "appell": sp.exp(x * y) / l(y),
        "sheffer-appell": sp.exp(x * g(y)) / (l(g(y)) * l(y)),
    }[kind]
    out = []
    for k, coeff in enumerate(_taylor(egf, y, n)):
        poly = sp.Poly(sp.expand(coeff * sp.factorial(k)), x)
        out.append(_trim([_to_fraction(c) for c in reversed(poly.all_coeffs())]))
    return out


def sympy_coeffs(fam: str, label: str, n: int) -> dict[str, list[Fraction]]:
    """The (a, b, c) vectors of one identity: derivative vectors at 0 of
    the series named in the identities module's docstrings."""
    import sympy as sp

    y = sp.symbols("y")
    l, h, g = _closed_forms(fam)
    t = sp.symbols("t")
    lp = sp.Lambda(t, sp.diff(l(t), t))
    hp = sp.Lambda(t, sp.diff(h(t), t))
    forms = {
        "2.1": (h(y) / hp(y), -h(y) * lp(h(y)) / l(h(y)), -h(y) * lp(y) / (hp(y) * l(y))),
        "3.1": (1 / hp(y), -lp(h(y)) / l(h(y)), -lp(y) / (hp(y) * l(y))),
        "3.2": (hp(g(y)), -hp(g(y)) * lp(y) / l(y), -lp(g(y)) / l(g(y))),
        "3.3": (1 / hp(g(y)), -lp(y) / l(y), -lp(g(y)) / (hp(g(y)) * l(g(y)))),
    }[label]
    out = {}
    for part, expr in zip("abc", forms):
        taylor = _taylor(expr, y, n)
        out[part] = [_to_fraction(c * sp.factorial(k)) for k, c in enumerate(taylor)]
    return out


def spot_check(stdout: dict[str, bytes], session_results: dict[str, dict]) -> list[str]:
    """Mismatches between the frozen outputs and the sympy oracle."""
    problems = []
    for fam in FAMILIES:
        for kind in KINDS:
            expected = sympy_sequence(fam, kind, SPOT_N)
            cell = gen_cell(fam, kind, 10, "json")
            polys = json.loads(stdout[cell])["polys"][: SPOT_N + 1]
            if [_trim([Fraction(v) for v in p]) for p in polys] != expected:
                problems.append(cell)
            cell = f"task|{fam}|{kind}|{SPOT_N}"
            seq = session_results[cell]["sequence"]
            if [_trim(list(p.coeffs)) for p in seq] != expected:
                problems.append(cell)
        for label in LABELS:
            cell = f"coeffs|{fam}|{label}|10"
            got = json.loads(stdout[cell])
            expected = sympy_coeffs(fam, label, 10)
            if any([Fraction(v) for v in got[p]] != expected[p] for p in "abc"):
                problems.append(cell)
    return problems


def main() -> int:
    cells: dict[str, dict] = {}
    stdout: dict[str, bytes] = {}
    for cell in [SETUP_CELL] + [c for w in WORKLOADS if w != "session" for c in grid(w)]:
        cells[cell], stdout[cell] = run_cli_cell(cell)
        entry = cells[cell]
        print(f"{entry['seconds']:8.3f}s exit={entry['exit']} {cell}", flush=True)
    pool = build_pool()
    session_results = {}
    for cell in grid("session"):
        start = time.perf_counter()
        results = run_task(pool, cell)
        seconds = time.perf_counter() - start
        cells[cell] = {
            "exit": 0,
            "sha256": hashlib.sha256(serialize(results)).hexdigest(),
            "seconds": round(seconds, 3),
        }
        session_results[cell] = results
        print(f"{seconds:8.3f}s {cell}", flush=True)
    problems = spot_check(stdout, session_results)
    if problems:
        print("sympy spot-check failed: " + ", ".join(problems), file=sys.stderr)
        return 1
    print("sympy spot-check passed", flush=True)
    reference = {"python": sys.version.split()[0], "cells": cells}
    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
