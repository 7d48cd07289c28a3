"""The package surface: ``import sheffermat`` loads every non-CLI module
(tracers read them from ``sys.modules``), and ``__all__`` lists exactly the
public names the package imports."""

import ast
import importlib.util
import json
import subprocess
import sys
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from types import ModuleType

import pytest

import sheffermat
from sheffermat import (
    COEFF_EXTRACTORS,
    LABELS,
    Matrix,
    Poly,
    ShefferPair,
    TruncatedSeries,
    appell_sequence,
    lemma_checks,
    make_pair,
    pairs,
    residual_checks,
    sequences,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

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
    # series._product is the one convolution and wronskian_vector the one
    # k! * f_k; the tests keep their plain-Fraction references
    for name in ("discrete_convolution", "appell_kernel"):
        assert not hasattr(sheffermat, name)
        assert not hasattr(sequences, name)
    with pytest.raises(TypeError):
        Poly((1, 1)) * Poly((1, -1))
    for name in ("constant", "derivatives_at_zero"):
        assert not hasattr(TruncatedSeries, name)


def test_rows_are_built_with_no_matrix_detour(monkeypatch):
    # The Appell array is read off the row of 1/l with no Matrix, and
    # Matrix.diagonal builds its rows with the constructor alone.
    tree = ast.parse((SRC / "sheffermat" / "sequences.py").read_text())
    imported = [n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
    assert "matrices" not in imported

    def refuse(*args):
        raise AssertionError("built through a detour")

    monkeypatch.setattr(Matrix, "column", classmethod(refuse))
    monkeypatch.setattr(Matrix, "_reduced", classmethod(refuse))
    assert Matrix.diagonal([2, Fraction(1, 3)]).row(1) == (0, Fraction(1, 3))
    monkeypatch.setattr(Matrix, "__init__", refuse)
    seq = appell_sequence(TruncatedSeries([1, -1, 0]), 2)  # 1/l = 1 + y + y^2
    assert [p.coeffs for p in seq] == [(1,), (1, 1), (2, 2, 1)]


def test_every_traced_name_resolves():
    # A deleted traced name would break every traced benchmark request.
    path = ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, names in tracing.FUNCTIONS.values():
        for name in names:
            assert callable(getattr(getattr(sheffermat, module), name)), name
    for module, cls, method in tracing.METHODS.values():
        assert callable(getattr(getattr(getattr(sheffermat, module), cls), method))


def test_one_object_per_pair():
    # The pair's derived series are its own cached properties.
    assert not hasattr(pairs, "DerivedSeries")
    assert not hasattr(ShefferPair, "derived")


def assigned(target: ast.expr) -> list[ast.expr]:
    """The names, attributes and subscripts one assignment target binds."""
    if isinstance(target, (ast.Tuple, ast.List)):
        return [t for element in target.elts for t in assigned(element)]
    if isinstance(target, ast.Starred):
        return assigned(target.value)
    return [target]


@pytest.mark.parametrize("module", ["identities", "sequences"])
def test_no_module_assigns_an_attribute(module):
    # Results kept with a pair go in its one ``kept`` dict.
    tree = ast.parse((SRC / "sheffermat" / f"{module}.py").read_text())
    targets = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets += [t for target in node.targets for t in assigned(target)]
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets.append(node.target)
    assert not [ast.unparse(t) for t in targets if isinstance(t, ast.Attribute)]


def test_every_kept_result_is_declared_on_the_pair():
    pair = make_pair("laguerre", 9, {"lambda": Fraction(5, 2)})
    for label in LABELS:
        COEFF_EXTRACTORS[label](pair, 8)
    assert all(r.passed for r in residual_checks(pair, 8))
    assert all(r.passed for r in lemma_checks(pair, 8))
    cached = {
        name
        for name, value in vars(ShefferPair).items()
        if isinstance(value, cached_property)
    }
    assert set(vars(pair)) <= set(ShefferPair._fields) | cached
    read = {"g", "sheffer_appell_polys", "kept", "derivative_recurrence"}
    assert read <= set(vars(pair))
    assert set(pair.kept) == {*LABELS, "factorization"}
