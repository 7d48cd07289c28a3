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
itself.  ``FAMILY_CELLS`` below adds the families no benchmark cell
draws, with digests kept here.
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


# Cells of the three families that no benchmark cell draws, at n = 12: gen
# for each kind, coeffs for each theorem and verify --all --lemma, with the
# SHA-256 of their stdout frozen when each pair was built at order n + 2.
FAMILY_CELLS = {
    "gen --family euler --n 12 --kind sheffer":
        "a871e47fdcee24a5a4339bb76d0453bc03914bbc63be012fd999deee22a5a325",
    "gen --family euler --n 12 --kind appell":
        "014028997b8d1d74e0450378a6d5847640e00c66af99195fc9a279e0d9e7b0f8",
    "gen --family euler --n 12 --kind sheffer-appell":
        "bb70e4545390574f9860df558a8fe3ea2ba19ca7dbc8329ed168b928ee6792ad",
    "coeffs --family euler --n 12 --theorem 2.1":
        "701a7f9fb66e30c0923c76816fe6589ac9ffcc13dba373a1e4cbb52442035883",
    "coeffs --family euler --n 12 --theorem 3.1":
        "7e8c34383ce4c511d2e6f95202e8ccfb450f2fb8f048418639a0847870207043",
    "coeffs --family euler --n 12 --theorem 3.2":
        "8abbd6e28d01acc84508cc001e8e462332e83d98ebc850f1c9cfbc8575125e12",
    "coeffs --family euler --n 12 --theorem 3.3":
        "685cc4e2ac0e91838e825a11dbd99010bb930d3dbbb2cc596298debafcd7847a",
    "verify --family euler --n 12 --all --lemma":
        "85c007a4f21dea7d4fb46a7c1ecbcf49352e9027efe1060f447730a04519162b",
    "gen --family exp-shift --n 12 --kind sheffer":
        "f6ce3221078c5d46659eb433915cf795e530fd9ae1cf28f814b89dd5e4ae1df9",
    "gen --family exp-shift --n 12 --kind appell":
        "8e143bb0ba5ec6dca8101da41dd4236f0e86c3de9d6bbc7d9d66b8d3c1404948",
    "gen --family exp-shift --n 12 --kind sheffer-appell":
        "8df0eb132368e306a10192935c0115515e8069f4627159ffd3f298d4539df617",
    "coeffs --family exp-shift --n 12 --theorem 2.1":
        "83af76d697aa8663ae887548c65dd1f1327b782f579bcd23b1d12e3904cb8656",
    "coeffs --family exp-shift --n 12 --theorem 3.1":
        "b3eab1efb652795ee9b17bea2740552c297978fd247acd4131327b0ec8d0266f",
    "coeffs --family exp-shift --n 12 --theorem 3.2":
        "1d7301fe2e9c05696a5f7ecfacfb06dadf01cb517331ec1f7d43654524469351",
    "coeffs --family exp-shift --n 12 --theorem 3.3":
        "1cd9b133438349377a3a028f0988cf903fde703bff00b07c70c70ededbc54111",
    "verify --family exp-shift --n 12 --all --lemma":
        "85c007a4f21dea7d4fb46a7c1ecbcf49352e9027efe1060f447730a04519162b",
    "gen --family monomial --n 12 --kind sheffer":
        "95c98cf9b7c798a1f28233842e5d6aa87bd58b3778a7422b38a97bbfeba273c6",
    "gen --family monomial --n 12 --kind appell":
        "1a0dffeb8a08f305646240db479fe2ae78b71c11198685a007785da8a9752419",
    "gen --family monomial --n 12 --kind sheffer-appell":
        "84958dff4ae51a571fea8f05d8cef1ec2f0ca2aab9612764ff895620d87abc80",
    "coeffs --family monomial --n 12 --theorem 2.1":
        "86252d9310475ef080462c041908c0b02ba42a478a7e8f9113779068ac3c8083",
    "coeffs --family monomial --n 12 --theorem 3.1":
        "9fb8ef59c8cf505bf45a76987de4920c918ea33a1e270bdee8ccfe8ce0257981",
    "coeffs --family monomial --n 12 --theorem 3.2":
        "5d45f8fd742c57fbc64a1b99746a97935944e6a5c507f095c9a5605eb4024abb",
    "coeffs --family monomial --n 12 --theorem 3.3":
        "be3eb10e3e8680c1673405eedf4f67908e7d2ef437a98a7ce61055d7f81e9239",
    "verify --family monomial --n 12 --all --lemma":
        "85c007a4f21dea7d4fb46a7c1ecbcf49352e9027efe1060f447730a04519162b",
}


@pytest.mark.parametrize("argv", FAMILY_CELLS)
def test_uncovered_family_cell_digest(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv.split()) == 0
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digest == FAMILY_CELLS[argv]
