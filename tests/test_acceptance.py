"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line directly to the terminal (outside
pytest's capture) so a plain ``pytest`` run shows the acceptance summary.
All comparisons are exact — rational arithmetic throughout, no tolerances.
"""

import json
import math
from contextlib import contextmanager
from fractions import Fraction

from sheffermat import (
    LABELS,
    Poly,
    ShefferPair,
    TruncatedSeries,
    appell_sequence,
    associated_residual,
    lemma_checks,
    make_pair,
    property_suite,
    residual_checks,
    sheffer_appell_sequence,
    sheffer_sequence,
    wronskian_vector,
)
from sheffermat.cli import main

from plain_fractions import add, evaluate, monomial, mul, sub

CONFIGS = (
    ("monomial", None),
    ("laguerre", {"lambda": Fraction(0)}),
    ("laguerre", {"lambda": Fraction(1)}),
    ("laguerre", {"lambda": Fraction(2)}),
    ("laguerre", {"lambda": Fraction(5, 2)}),
    ("miller-lee", {"m": Fraction(0)}),
    ("miller-lee", {"m": Fraction(1)}),
    ("miller-lee", {"m": Fraction(3)}),
    ("hermite", None),
    ("bernoulli", None),
    ("euler", None),
    ("exp-shift", None),
    ("log-assoc", None),
)


def build(family, params, order):
    return make_pair(family, order, params)


@contextmanager
def criterion(capsys, number, description):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {number}: FAIL  {description}")
        raise
    with capsys.disabled():
        print(f"criterion {number}: PASS  {description}")


def assert_passed(results, *where):
    """Every line of a verify sweep passed; else the first failing line."""
    failed = [r for r in results if not r.passed]
    assert not failed, (*where, failed[0])


def test_criterion_1_differential_equation(capsys):
    with criterion(
        capsys, 1, "differential-equation residual zero, 13 configs, n <= 12"
    ):
        for family, params in CONFIGS:
            pair = build(family, params, 14)
            assert_passed(residual_checks(pair, 12, "2.1"), family, params)


def test_criterion_2_recurrences(capsys):
    with criterion(
        capsys, 2, "recurrences 3.1, 3.2, 3.3 hold, same grid (3.1 off y: lemma)"
    ):
        for family, params in CONFIGS:
            pair = build(family, params, 14)
            for label in ("3.1", "3.2", "3.3"):
                assert_passed(residual_checks(pair, 12, label), family, params)


def test_criterion_3_factorization(capsys):
    with criterion(
        capsys, 3, "derivative-matrix factorization exact, all configs, n <= 8"
    ):
        for family, params in CONFIGS:
            assert_passed(lemma_checks(build(family, params, 8), 8), family, params)


def test_criterion_4_property_suite(capsys):
    with criterion(
        capsys, 4, "matrix property suite, 200 seeded cases per property"
    ):
        results = property_suite(cases=200, seed=1729)
        names = [r.name for r in results]
        assert "fixed-exponential-wronskian" in names
        for result in results:
            assert result.passed, result


def test_criterion_5_associated_specializations(capsys):
    with criterion(
        capsys, 5, "associated-pair corollaries zero on three pairs, n <= 10"
    ):
        order = 13
        mobius = TruncatedSeries([0, -1] + [-1] * (order - 1))
        exp_minus_one = TruncatedSeries(
            [0] + [Fraction(1, math.factorial(k)) for k in range(1, order + 1)]
        )
        pairs = (
            ShefferPair.associated(TruncatedSeries.identity(order)),
            ShefferPair.associated(mobius),
            ShefferPair.associated(exp_minus_one),
        )
        for pair in pairs:
            for which in LABELS:
                for n in range(11):
                    assert associated_residual(pair, n, which) == Poly()


def test_criterion_6_cross_family_oracles(capsys):
    with criterion(
        capsys, 6, "Laguerre/Hermite/Bernoulli values match closed forms"
    ):
        laguerre = sheffer_sequence(build("laguerre", {"lambda": 0}, 10), 10)
        for n in range(11):
            closed = add(
                *(
                    monomial(k, Fraction(-1) ** k)
                    * math.comb(n, k)
                    * Fraction(math.factorial(n), math.factorial(k))
                    for k in range(n + 1)
                )
            )
            assert laguerre[n] == closed, n

        hermite = sheffer_sequence(build("hermite", None, 11), 11)
        for n in range(1, 10):
            assert hermite[n + 1] == sub(mul(Poly((0, 1)), hermite[n]), n * hermite[n - 1])

        bernoulli = sheffer_sequence(build("bernoulli", None, 4), 2)
        values = [evaluate(bernoulli[n], 0) for n in range(3)]
        assert values == [1, Fraction(-1, 2), Fraction(1, 6)]


def test_criterion_7_convolution_consistency(capsys):
    with criterion(
        capsys, 7, "Appell-kernel convolution of Sheffer equals Sheffer-Appell"
    ):
        for family, params in CONFIGS:
            pair = build(family, params, 10)
            kernel = wronskian_vector(pair.l.reciprocal(), 10).column_entries(0)
            sheffer = sheffer_sequence(pair, 10)
            convolved = [
                add(*(math.comb(n, k) * kernel[k] * sheffer[n - k]
                      for k in range(n + 1)))
                for n in range(11)
            ]
            assert convolved == list(sheffer_appell_sequence(pair, 10))


def test_criterion_8_worked_example_audit(capsys):
    expected_statuses = {
        "laguerre-differential-recurrence": ["PASS"] + ["FAIL"] * 6,
        "laguerre-derivative-recurrence": ["FAIL"] * 7,
        "miller-lee-differential-recurrence": ["PASS"] + ["FAIL"] * 6,
        "miller-lee-derivative-recurrence": ["FAIL"] * 7,
        "miller-lee-mixed-recurrence": ["FAIL"] * 7,
    }
    code = main(["audit", "--n", "6"])
    out = capsys.readouterr().out
    with criterion(
        capsys, 8, "audit --n 6 emits the frozen PASS/FAIL report"
    ):
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 35
        seen = {identity: [] for identity in expected_statuses}
        for row in rows:
            seen[row["identity-id"]].append(row["status"])
            assert set(row) == {
                "identity-id",
                "parameters",
                "n",
                "status",
                "residual",
                "derived-coeffs",
                "printed-coeffs",
            }
            if row["status"] == "FAIL":
                assert row["residual"], row["identity-id"]
            else:
                assert row["residual"] == []
        assert seen == expected_statuses


def test_criterion_9_truncation_stability(capsys):
    with criterion(
        capsys, 9, "order n+5 regeneration reproduces polys[0..n] byte-for-byte"
    ):
        n = 6
        for family, params in CONFIGS:
            low = build(family, params, n)
            high = build(family, params, n + 5)
            for generate in (
                lambda p, d: sheffer_appell_sequence(p, d),
                lambda p, d: sheffer_sequence(p, d),
                lambda p, d: appell_sequence(p.l, d),
            ):
                low_repr = [p.to_strings() for p in generate(low, n)]
                high_repr = [p.to_strings() for p in generate(high, n)]
                assert low_repr == high_repr, family
