"""Every script in demos/ runs to completion against the package in src/ and
prints byte-identical stdout: its SHA-256 is frozen here."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

STDOUT_SHA256 = {
    "01_generate_sequences.py": "6ae2d1be34824116048bcbf6cc2953b6fa6c89ccf05c20bbaa58eaea37679354",
    "02_matrix_calculus.py": "b2a09b9bf74104621d3a7b26b2030a61e9c8b189f3a6fa0523bda90b3d72ce7f",
    "03_verify_identities.py": "d5db06e80d9b9e2cc73b73cdf071c24c0626efbb81f374f0f080733014568798",
    "04_audit_worked_examples.py": "f139979bcf1e8349caea5b503f920c47de81670493bd988ca5226988541f718a",
}


def test_demos_exist():
    assert [demo.name for demo in DEMOS] == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        env=env,
        cwd=ROOT,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.name]
