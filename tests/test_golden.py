"""Outputs match the benchmark's frozen digests, run in this process.

``perfbench/reference.json`` holds the SHA-256 and exit code of every
benchmark cell, checked against a sympy expansion when it was made.  Here
every one of them is recomputed and compared: each session cell
(sequence, triples, residuals and factorization of one pair at degree n)
and each CLI cell (``families``, ``gen`` and ``coeffs`` at every n,
residual sweeps, the factorization sweep, the matrix property suite and
the worked-example audit).  The benchmark's own gate checks only the
cells its passes draw, so a change to the arithmetic kernels or the
matrix layer that moves one output byte of any cell fails tier-1.  The
cells, the session task and its serialization come from ``perfbench/``
itself.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from session_worker import build_pool, run_task, serialize  # noqa: E402
from workloads import cell_argv  # noqa: E402

from sheffermat.cli import main  # noqa: E402

with open(PERFBENCH / "reference.json", encoding="utf-8") as fh:
    REFERENCE = json.load(fh)["cells"]

SESSION_CELLS = sorted(c for c in REFERENCE if c.startswith("task|"))
CLI_CELLS = sorted(c for c in REFERENCE if not c.startswith("task|"))


@pytest.fixture(scope="module")
def pool():
    return build_pool()


def test_cell_counts():
    assert len(SESSION_CELLS) == 72
    assert len(CLI_CELLS) == 387
    assert len(REFERENCE) == 459


@pytest.mark.parametrize("cell", SESSION_CELLS)
def test_session_cell_digest(pool, cell):
    digest = hashlib.sha256(serialize(run_task(pool, cell))).hexdigest()
    assert digest == REFERENCE[cell]["sha256"]


@pytest.mark.parametrize("cell", CLI_CELLS)
def test_cli_cell_digest(cell):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = main(cell_argv(cell))
        except SystemExit as exc:
            code = exc.code
    assert code == REFERENCE[cell]["exit"]
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digest == REFERENCE[cell]["sha256"]
