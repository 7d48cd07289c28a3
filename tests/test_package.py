"""The package surface: ``import sheffermat`` loads every non-CLI module
(tracers read them from ``sys.modules``), and ``__all__`` lists exactly the
public names the package imports."""

import json
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import sheffermat
from sheffermat import sequences

SRC = Path(__file__).resolve().parent.parent / "src"

MODULES = (
    "audit",
    "errors",
    "families",
    "identities",
    "matrices",
    "pairs",
    "polynomials",
    "rationals",
    "sequences",
    "series",
    "verify",
)


def test_import_loads_every_module():
    script = (
        f"import json, sys; sys.path.insert(0, {str(SRC)!r}); import sheffermat; "
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('sheffermat.'))))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert {f"sheffermat.{m}" for m in MODULES} <= loaded


def test_all_is_every_public_name():
    # no module, no private name, and every listed name resolves
    public = {
        name
        for name, value in vars(sheffermat).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert sheffermat.__all__ == sorted(public)


def test_dead_convolution_is_gone():
    for name in ("discrete_convolution", "appell_kernel"):
        assert not hasattr(sheffermat, name)
        assert not hasattr(sequences, name)
