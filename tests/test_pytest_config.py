"""The repository's pytest settings report a failing hypothesis test.

``filterwarnings = ["error"]`` turns every warning into an error.  When a
hypothesis test fails, hypothesis imports libcst to write a patch, and
libcst warns that ``mypy_extensions.TypedDict`` is deprecated; without the
targeted ignore in ``pyproject.toml`` that warning aborts the session with
INTERNALERROR instead of showing the falsifying example.
"""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_small(x):
    assert x < 5
'''


def test_failing_hypothesis_test_reports_its_example(tmp_path):
    (tmp_path / "test_tiny.py").write_text(FAILING)
    argv = ["-c", str(CONFIG), "--rootdir", str(tmp_path), "-p", "no:cacheprovider"]
    run = subprocess.run(
        [sys.executable, "-m", "pytest", *argv, "test_tiny.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
