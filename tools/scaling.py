"""The scaling trajectory: a fixed grid of cells, timed on a checkout of the
parent commit and on this tree, alternately per cell.

    python tools/scaling.py --parent DIR --out FILE

The grid, on six pairs (laguerre lambda=0 and lambda=5/2, log-assoc, hermite,
miller-lee m=1 and bernoulli):

* CLI cells, one ``python -m sheffermat`` process per run: ``gen`` and
  ``verify --all --lemma`` of each pair and ``audit`` at n = 25, 50 and 100,
  ``verify --properties`` and ``families``;
* library cells, one process per run that builds the pair at order n + 1 (as
  ``verify`` does) and what the stage reads, untimed, then times the stage
  alone: the lemma at n = 100 and 200; at n = 200 the Sheffer-Appell array,
  each label's residual sweep and, on the three pairs with h != y, g (read
  off the array and checked by h(g) = y; for h = y, g = y is returned at
  once).

Each point of a cell is timed in ``RUNS`` pairs of runs, one run on each
tree, the first side alternating from pair to pair.  The point's first run
fixes its output: a CLI cell's stdout, or a library cell's result written as
text (every rational as reduced p/q, every check as its pass flag), and the
exit code.  Every later run, on either tree, must give the same output; the
first that does not stops the command with exit 1, naming the cell, n, tree
and run, and nothing is appended.  A point records its output once: the
SHA-256, the exit code and, for a cell whose output is coefficients
(``gen``, ``audit``, the lemma's R, the array and g), the peak numerator and
denominator bit lengths of the rationals in it, else null.  Per tree it
records the minimum and the quartiles of its runs, and it records the number
of pairs the change won.  Each cell records each tree's log-log exponent of
the minima between its two largest n.  The point is appended to the JSON
list in FILE.  Both trees' bytecode is compiled before the grid, so no CLI
run compiles the package.  Stdlib only; it imports the package only in its
library-cell processes, from the tree being timed.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10
TREES = ("parent", "change")
PAIRS = {  # id -> (family, CLI --param values)
    "laguerre-0": ("laguerre", {"lambda": "0"}),
    "laguerre-5/2": ("laguerre", {"lambda": "5/2"}),
    "log-assoc": ("log-assoc", {}),
    "hermite": ("hermite", {}),
    "miller-lee-1": ("miller-lee", {"m": "1"}),
    "bernoulli": ("bernoulli", {}),
}
APPELL_PAIRS = ("hermite", "miller-lee-1", "bernoulli")  # h = y: no g cell
CLI_N = (25, 50, 100)
LEMMA_N = (100, 200)
STAGE_N = 200
LABELS = ("2.1", "3.1", "3.2", "3.3")
COEFFICIENT_CELLS = ("gen", "audit", "lemma", "array", "g")  # a cell name's first word
_RATIONAL = re.compile(r"(\d+)(?:/(\d+))?")


def pair_argv(pair_id: str) -> list[str]:
    family, params = PAIRS[pair_id]
    return ["--family", family, *[f"--param={k}={v}" for k, v in params.items()]]


def grid() -> list[tuple[str, str, dict]]:
    """(cell name, "cli" or "library", {n: the CLI argv, or the stage}), n None
    for a cell of one size."""
    cells = []
    for pair_id in PAIRS:
        for verb in (["gen"], ["verify", "--all", "--lemma"]):
            by_n = {n: [*verb, *pair_argv(pair_id), "--n", str(n)] for n in CLI_N}
            cells.append((f"{' '.join(verb)} {pair_id}", "cli", by_n))
    cells.append(("audit", "cli", {n: ["audit", "--n", str(n)] for n in CLI_N}))
    properties = ["verify", *pair_argv("hermite"), "--n", "6", "--properties"]
    cells.append(("verify --properties", "cli", {None: properties}))
    cells.append(("families", "cli", {None: ["families"]}))
    for pair_id in PAIRS:
        stages = [("lemma", LEMMA_N), ("array", (STAGE_N,))]
        if pair_id not in APPELL_PAIRS:
            stages.append(("g", (STAGE_N,)))
        stages += [(f"sweep {label}", (STAGE_N,)) for label in LABELS]
        for stage, sizes in stages:
            by_n = {n: [stage, pair_id, str(n)] for n in sizes}
            cells.append((f"{stage} {pair_id}", "library", by_n))
    return cells


# -- pure helpers -------------------------------------------------------------


def bit_sizes(text: str) -> tuple[int, int]:
    """The peak numerator and denominator bit lengths of the rationals written
    in ``text`` (a signless integer p, or p/q); an integer's denominator is 1."""
    num = den = 0
    for p, q in _RATIONAL.findall(text):
        num = max(num, int(p).bit_length())
        den = max(den, int(q or 1).bit_length())
    return num, den


def fit_exponent(points: dict) -> float | None:
    """log(t2/t1) / log(n2/n1) over the two largest n of {n: seconds}; None
    with fewer than two sizes."""
    sizes = sorted(n for n in points if n is not None)
    if len(sizes) < 2:
        return None
    n1, n2 = sizes[-2:]
    return round(math.log(points[n2] / points[n1]) / math.log(n2 / n1), 3)


def output_record(text: str, code: int, coefficients: bool) -> dict:
    """A point's output, recorded once: its digest, exit code and bit sizes
    (null unless it is coefficients)."""
    num, den = bit_sizes(text) if coefficients else (None, None)
    digest = hashlib.sha256(text.encode()).hexdigest()
    return {"sha256": digest, "exit": code, "peak_num_bits": num, "peak_den_bits": den}


def measurement(seconds: list[float]) -> dict:
    """One tree's record of one point: the minimum and quartiles of its times."""
    quartiles = statistics.quantiles(seconds, n=4, method="inclusive")
    return {"seconds": round(min(seconds), 6), "quartiles": [round(q, 6) for q in quartiles]}


def change_wins(seconds: dict) -> int:
    """The pairs of runs, {tree: [seconds by pair]}, the change won; a tie wins
    for neither side."""
    return sum(c < p for p, c in zip(seconds["parent"], seconds["change"]))


def cell_record(name: str, kind: str, points: dict) -> dict:
    """A cell: {n: {**output_record, "parent": measurement, "change":
    measurement, "change_wins": int}} as its points, by n, and each tree's
    exponent between the two largest n."""
    ordered = sorted(points, key=lambda n: -1 if n is None else n)
    return {
        "cell": name,
        "kind": kind,
        "points": [{"n": n, **points[n]} for n in ordered],
        "exponent": {
            tree: fit_exponent({n: points[n][tree]["seconds"] for n in points})
            for tree in TREES
        },
    }


# -- the runs -----------------------------------------------------------------


def run_once(kind: str, argv: list[str], src: Path) -> tuple[float, str, int]:
    """(seconds, output, exit code) of one run of a cell against the package in src."""
    if kind == "cli":
        command = [sys.executable, "-m", "sheffermat", *argv]
    else:
        command = [sys.executable, str(Path(__file__).resolve()), "--stage", *argv]
    began = time.perf_counter()
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(command, env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - began
    if kind == "cli":
        return seconds, run.stdout, run.returncode
    if run.returncode != 0:
        raise RuntimeError(f"stage {' '.join(argv)} failed:\n{run.stderr}")
    seconds, _, output = run.stdout.partition("\n")
    return float(seconds), output, 0


def run_grid(cells: list, trees: dict) -> list[dict]:
    """Each point of each cell in ``RUNS`` pairs of runs, one on each tree, the
    first side alternating; exit 1 at the first run whose output is not the
    point's first run's."""
    records = []
    for name, kind, by_n in cells:
        coefficients = name.split()[0] in COEFFICIENT_CELLS
        points = {}
        for n, argv in by_n.items():
            seconds, first = {tree: [] for tree in TREES}, None
            for run in range(RUNS):
                for tree in TREES[:: 1 if run % 2 == 0 else -1]:
                    took, *output = run_once(kind, argv, trees[tree])
                    seconds[tree].append(took)
                    first = first or output  # the point's first run
                    if output != first:
                        sys.exit(
                            f"{name} n={n}: run {len(seconds[tree])} on {tree} differs"
                            " from the point's first run"
                        )
            points[n] = output_record(*first, coefficients)
            points[n].update({tree: measurement(seconds[tree]) for tree in TREES})
            points[n]["change_wins"] = change_wins(seconds)
        records.append(cell_record(name, kind, points))
        timings = [
            f"n={p['n']} " + "/".join(f"{p[tree]['seconds']:.4f}" for tree in TREES)
            + f" ({p['change_wins']}/{RUNS})"
            for p in records[-1]["points"]
        ]
        print(f"{name}: {', '.join(timings)}", file=sys.stderr)
    return records


# -- a library cell, in its own process ------------------------------------------


def _row_text(den: int, p: list[int]) -> str:
    return "[" + ",".join(str(Fraction(c, den)) for c in p) + "]"


def _text(value) -> str:
    """A result as text: rows of reduced p/q, checks as their pass flags."""
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_text(v) for v in value) + "]"
    if hasattr(value, "integer_row"):  # a Matrix
        return "[" + ",".join(_row_text(*value.integer_row(i)) for i in range(value.rows)) + "]"
    if hasattr(value, "passed"):  # a CheckResult
        return str(value.passed)
    return _row_text(*value.row)  # a Poly or a TruncatedSeries


def stage(name: str, pair_id: str, n: int) -> tuple[float, str]:
    """(seconds, output) of one library stage on a pair of order n + 1; what the
    stage reads (the array; g for the lemma and for "3.1", which reads the
    factorization when h is not y; the label's row for a sweep) is built
    first, untimed."""
    from sheffermat.families import make_pair
    from sheffermat.identities import COEFF_EXTRACTORS
    from sheffermat.verify import lemma_checks, residual_checks

    family, params = PAIRS[pair_id]
    pair = make_pair(family, n + 1, {k: Fraction(v) for k, v in params.items()})
    label = name.removeprefix("sweep ")
    if name != "array":
        pair.sheffer_appell_polys
    if label in ("lemma", "3.1"):
        pair.g
    if label in LABELS:
        COEFF_EXTRACTORS[label](pair, n)
    work = {
        "array": lambda: pair.sheffer_appell_polys,
        "g": lambda: pair.g,
        "lemma": lambda: (lemma_checks(pair, n), pair.kept["factorization"]),
    }.get(name, lambda: residual_checks(pair, n, label))
    began = time.perf_counter()
    result = work()
    return time.perf_counter() - began, _text(result)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, help="a checkout of the parent commit")
    parser.add_argument("--out", type=Path, help="append the point to this JSON list")
    parser.add_argument("--stage", nargs=3, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.stage:
        name, pair_id, n = args.stage
        seconds, output = stage(name, pair_id, int(n))
        print(f"{seconds!r}\n{output}", end="")
        return 0
    if args.parent is None or args.out is None:
        parser.error("--parent and --out are required")
    trees = {"parent": args.parent.resolve() / "src", "change": ROOT / "src"}
    for src in trees.values():  # else a tree without bytecode compiles it in every run
        compileall.compile_dir(src, quiet=1)
    cells = run_grid(grid(), trees)
    point = {
        "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "runs": RUNS,
        "trees": list(TREES),
        "cells": cells,
    }
    history = json.loads(args.out.read_text()) if args.out.exists() else []
    args.out.write_text(json.dumps([*history, point], indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
