"""Contract checks that survive ``python -O``, and the bound on --n."""

import ast
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from sheffermat import ContractError, Poly, associated_residual, make_pair
from sheffermat import cli, identities, pairs, sheffer_appell_sequence, sheffer_sequence
from sheffermat.cli import MAX_N, main

SRC = Path(__file__).resolve().parent.parent / "src"


def test_contract_check_survives_python_O():
    script = textwrap.dedent(
        """
        import sys
        from sheffermat import ContractError, TruncatedSeries
        from sheffermat.cli import main

        TruncatedSeries.compose = lambda self, inner: self  # breaks h(g) = y
        try:
            TruncatedSeries([0, 1, 1, 1]).compositional_inverse()
        except ContractError:
            print("ContractError", sys.flags.optimize)
        # "3.3" reads g, which is certified by h(g) = y when read off the array
        laguerre = ["--family", "laguerre", "--param", "lambda=0", "--n", "4"]
        print(main(["coeffs", *laguerre, "--theorem", "3.3"]))
        """
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.stdout.split("\n")[:2] == ["ContractError 1", "3"], proc.stderr
    assert "internal error: contract violation" in proc.stderr


@pytest.mark.parametrize(
    "path", sorted((SRC / "sheffermat").glob("*.py")), ids=lambda p: p.name
)
def test_no_assert_statement_in_the_package(path):
    # python -O strips assert statements, so no check may be one.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert statement at line(s) {lines}"


@pytest.mark.parametrize(
    "path",
    sorted(p for p in (SRC / "sheffermat").glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name,
)
def test_no_unused_module_level_import(path):
    # Every CLI process compiles what it imports (no bytecode is written in
    # the benchmark), so a module imports only what it uses.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == [], f"{path.name}: unused import(s)"


def test_no_unused_private_definition():
    # A private function or class, at module or class level, that nothing in
    # src/ names is dead code, and every CLI process would still compile it.
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted((SRC / "sheffermat").glob("*.py"))
    }
    named = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    defined = [
        (module, node.name)
        for module, tree in trees.items()
        for scope in [tree, *(n for n in tree.body if isinstance(n, ast.ClassDef))]
        for node in scope.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.endswith("__")
    ]
    assert [d for d in defined if d[1] not in named] == []


def test_no_public_name_without_a_caller():
    # A public module-level name or public method that nothing outside the
    # tests reads is surface kept for no one.  Reads count in src/ (bar the
    # package's re-exports), demos/ and perfbench/ as a loaded name, an
    # attribute or a string constant (getattr rows, tracer lists); a word
    # in README.md is documentation, not a read.
    root = SRC.parent
    defining = [
        path for path in sorted((SRC / "sheffermat").glob("*.py"))
        if path.name not in ("__init__.py", "__main__.py")
    ]
    readers = defining + sorted((root / "demos").glob("*.py"))
    readers += [p for p in sorted((root / "perfbench").glob("*.py")) if "test" not in p.name]
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in readers}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    public = []
    for path in defining:
        tree = trees[path]
        for scope in [tree, *(n for n in tree.body if isinstance(n, ast.ClassDef))]:
            for node in scope.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    names = [node.name]
                elif scope is tree and isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    names = [t.id for t in targets if isinstance(t, ast.Name)]
                else:
                    names = []
                public += [(path.name, name) for name in names if not name.startswith("_")]
    assert [d for d in public if d[1] not in read] == []


def test_wrong_leading_coefficient_is_a_contract_error(monkeypatch):
    honest = pairs.ShefferPair._array

    def doubled(pair, power):
        return tuple(p * 2 for p in honest(pair, power))

    monkeypatch.setattr(pairs.ShefferPair, "_array", doubled)
    with pytest.raises(ContractError):
        sheffer_appell_sequence(make_pair("laguerre", 4, {"lambda": 0}), 4)


@pytest.mark.parametrize("kind", ["sheffer", "sheffer-appell"])
def test_zero_polynomial_in_an_array_is_a_contract_violation(capsys, monkeypatch, kind):
    honest = pairs.ShefferPair._array

    def zero_on_top(pair, power):
        return honest(pair, power)[:-1] + (Poly(),)

    monkeypatch.setattr(pairs.ShefferPair, "_array", zero_on_top)
    sequence = sheffer_sequence if kind == "sheffer" else sheffer_appell_sequence
    with pytest.raises(ContractError, match="degree 4"):
        sequence(make_pair("laguerre", 4, {"lambda": 0}), 4)
    assert main(["gen", "--family", "hermite", "--kind", kind, "--n", "3"]) == 3
    message = f"{kind} degree 4 has the wrong leading coefficient"
    assert capsys.readouterr().err == f"internal error: contract violation: {message}\n"


def test_nonzero_associated_vectors_are_a_contract_error(monkeypatch):
    pair = make_pair("log-assoc", 6)
    honest = identities.COEFF_EXTRACTORS["3.1"]

    def drifted(pair, n):
        t = honest(pair, n)
        b = (1,) + t.b[1:]
        return identities.CoeffTriple.from_rationals(t.label, t.a, b, t.c)

    monkeypatch.setitem(identities.COEFF_EXTRACTORS, "3.1", drifted)
    with pytest.raises(ContractError):
        associated_residual(pair, 3, "3.1")
    assert associated_residual(pair, 3, "3.3") == Poly()


def test_cli_maps_contract_errors_to_exit_3(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ContractError("h(g) != y")

    monkeypatch.setattr(cli, "sheffer_appell_sequence", broken)
    code = main(["gen", "--family", "hermite", "--n", "3"])
    assert code == 3
    assert capsys.readouterr().err == "internal error: contract violation: h(g) != y\n"


# -- the bound on --n ----------------------------------------------------------

LAGUERRE = ["--family", "laguerre", "--param", "lambda=0"]
VERBS = {
    "gen": ["gen", *LAGUERRE],
    "coeffs": ["coeffs", *LAGUERRE, "--theorem", "3.1"],
    "verify": ["verify", *LAGUERRE, "--all", "--lemma"],
    "audit": ["audit"],
}


class PairBuilt(BaseException):
    """Not an Exception, which main would report as an internal error."""


@pytest.fixture
def no_pairs(monkeypatch):
    def refuse(*args, **kwargs):
        raise PairBuilt

    monkeypatch.setattr(cli, "make_pair", refuse)
    monkeypatch.setattr(cli, "run_worked_example_audit", refuse)


@pytest.mark.parametrize("verb", sorted(VERBS))
@pytest.mark.parametrize("n", [MAX_N + 1, 10**9])
def test_n_above_max_is_a_fast_usage_error(verb, n, no_pairs, capsys):
    start = time.perf_counter()
    with pytest.raises(SystemExit) as info:
        main(VERBS[verb] + ["--n", str(n)])
    assert time.perf_counter() - start < 1
    assert info.value.code == 2
    assert f"--n must be <= {MAX_N}" in capsys.readouterr().err


@pytest.mark.parametrize("verb", sorted(VERBS))
def test_max_n_itself_is_accepted(verb, no_pairs):
    with pytest.raises(PairBuilt):
        main(VERBS[verb] + ["--n", str(MAX_N)])
