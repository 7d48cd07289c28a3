import hashlib
import math
import random
from fractions import Fraction

import pytest

from sheffermat import (
    LABELS,
    Matrix,
    cli,
    lemma_checks,
    matrices,
    make_pair,
    property_suite,
    residual_checks,
    verify,
    wronskian_vector,
)


def test_residual_checks_all_labels():
    pair = make_pair("laguerre", 6, {"lambda": 0})
    results = residual_checks(pair, 4)
    assert len(results) == 4 * 5
    assert all(r.passed for r in results)
    assert results[0].name == "residual[2.1] n=0"


def test_residual_checks_label_subset():
    pair = make_pair("monomial", 5)
    results = residual_checks(pair, 3, "3.1")
    assert [r.name for r in results] == [f"residual[3.1] n={d}" for d in range(4)]


def test_residual_checks_rejects_unknown_label(monkeypatch):
    # With RESIDUALS emptied, any residual computed before the refusal
    # would raise KeyError instead.
    pair = make_pair("monomial", 5)
    monkeypatch.setattr(verify, "RESIDUALS", {})
    for label in ("5.0", ("3.1",), ""):
        with pytest.raises(ValueError, match="unknown identity label"):
            residual_checks(pair, 3, label)


@pytest.mark.parametrize("labels", [(), [], ("3.1", "3.1"), ("2.1", "3.2", "2.1")])
def test_residual_checks_refuses_an_empty_or_repeated_selection(labels, monkeypatch):
    # A selection is one label or None: a sequence of labels, empty or
    # repeated, is refused like any unknown label, before any residual.
    pair = make_pair("hermite", 5)
    monkeypatch.setattr(verify, "RESIDUALS", {})
    with pytest.raises(ValueError, match="unknown identity label"):
        residual_checks(pair, 3, labels)


def test_lemma_checks():
    pair = make_pair("exp-shift", 4)
    results = lemma_checks(pair, 4)
    assert len(results) == 5
    assert all(r.passed for r in results)
    assert results[-1].name == "factorization n=4"


def test_property_suite_passes_and_is_seeded():
    first = property_suite(cases=25)
    second = property_suite(cases=25)
    assert first == second
    assert [r.name for r in first] == [
        "property-linearity",
        "property-pascal-product",
        "property-wronskian-product",
        "property-composition",
        "fixed-exponential-wronskian",
    ]
    assert all(r.passed for r in first)


@pytest.mark.parametrize("cases", [0, -1])
def test_property_suite_refuses_fewer_than_one_case(cases):
    # With no case drawn, each property would report a vacuous pass.
    with pytest.raises(ValueError, match="cases must be >= 1"):
        property_suite(cases=cases)


def test_property_suite_seed_changes_stream():
    # Different seeds should still pass; determinism is per seed.
    assert all(r.passed for r in property_suite(cases=10, seed=7))


def test_property_suite_draws_a_fixed_stream(monkeypatch):
    # The seed fixes the instances checked only while every case draws n and
    # then its arguments in the same order, so the suite's draws are pinned.
    drawn = []

    def recording(method):
        def draw(self, *args):
            value = method(self, *args)
            drawn.append(value)
            return value

        return draw

    for name in ("randint", "choice"):
        monkeypatch.setattr(random.Random, name, recording(getattr(random.Random, name)))
    assert all(r.passed for r in property_suite(cases=30, seed=5))
    digest = hashlib.sha256(",".join(map(str, drawn)).encode()).hexdigest()
    assert (len(drawn), digest) == (
        2628,
        "b36f4f68e66cc561425e54689d361f43c5c25b971f6641dc475255f3709d75c1",
    )


# -- the property suite catches a subtly wrong matrix layer -------------------


def suite_verdicts(**kwargs) -> dict[str, bool]:
    return {r.name: r.passed for r in property_suite(cases=25, **kwargs)}


def test_property_suite_catches_a_product_that_drops_the_last_term(monkeypatch):
    def dropping_last_term(self, other):
        k = self.cols - 1
        return Matrix(
            [
                sum((self.row(i)[t] * other.row(t)[j] for t in range(k)), Fraction(0))
                for j in range(other.cols)
            ]
            for i in range(self.rows)
        )

    monkeypatch.setattr(Matrix, "__matmul__", dropping_last_term)
    assert suite_verdicts() == {
        "property-linearity": True,
        "property-pascal-product": False,
        "property-wronskian-product": False,
        "property-composition": False,
        "fixed-exponential-wronskian": True,
    }


def test_property_suite_catches_an_off_by_one_binomial(monkeypatch):
    def off_by_one_pascal(f, n):
        """C(i, i-1) read as i + 1: still linear in f, wrong in every product."""
        dv = wronskian_vector(f, n).column_entries(0)
        return Matrix(
            [
                (math.comb(i, j) + (j == i - 1)) * dv[i - j] if i >= j else 0
                for j in range(n + 1)
            ]
            for i in range(n + 1)
        )

    monkeypatch.setattr(matrices, "pascal_matrix", off_by_one_pascal)
    monkeypatch.setattr(verify, "pascal_matrix", off_by_one_pascal)
    assert suite_verdicts() == {
        "property-linearity": True,
        "property-pascal-product": False,
        "property-wronskian-product": False,
        "property-composition": True,
        "fixed-exponential-wronskian": True,
    }


# -- a corrupted identity row fails its own label ----------------------------
# For h != y both arrays are built from the "3.1" row, so a "3.1" residual
# would be zero whatever that row holds; verify answers "3.1" there from the
# factorization instead.

ROWS = {"2.1": "differential_equation", "3.1": "derivative_recurrence",
        "3.2": "mixed_recurrence", "3.3": "convolution_recurrence"}
FAMILY_ARGS = {
    "laguerre-5/2": ["--family", "laguerre", "--param", "lambda=5/2"],
    "log-assoc": ["--family", "log-assoc"],
    "miller-lee-1": ["--family", "miller-lee", "--param", "m=1"],
    "hermite": ["--family", "hermite"],
}


@pytest.mark.parametrize("family", FAMILY_ARGS)
@pytest.mark.parametrize("label", LABELS)
def test_a_corrupted_row_fails_its_label(monkeypatch, capsys, label, family):
    """b[2] of the label's cached (D, a, b, c) row gains D.  verify --theorem
    passes on the true row; on the corrupted one it fails from degree 2, the
    first that reads b[2], and exits 1.  For h != y the "3.1" line names row 3
    of the factorization, the first row built from b[2]."""
    argv = ["verify", *FAMILY_ARGS[family], "--n", "8", "--theorem", label]
    assert cli.main(argv) == 0
    assert "FAIL" not in capsys.readouterr().out
    build, attr = cli.make_pair, ROWS[label]

    def corrupted(*args):
        pair = build(*args)
        den, a, b, c = getattr(pair, attr)
        vars(pair)[attr] = (den, a, [*b[:2], b[2] + den, *b[3:]], c)
        return pair

    monkeypatch.setattr(cli, "make_pair", corrupted)
    assert cli.main(argv) == 1
    fails = [line for line in capsys.readouterr().out.splitlines() if "FAIL" in line]
    assert fails[0].startswith(f"FAIL residual[{label}] n=2  (")
    assert len(fails) == 7
    if label == "3.1" and family in ("laguerre-5/2", "log-assoc"):
        assert fails[0].endswith("(factorization differs at row 3)")
