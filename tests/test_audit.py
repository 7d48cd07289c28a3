import hashlib
import json
import math
from collections import Counter
from fractions import Fraction

import pytest

from sheffermat import (
    FAIL,
    IDENTITY_IDS,
    PASS,
    Poly,
    make_pair,
    run_worked_example_audit,
    sheffer_appell_sequence,
)
from sheffermat import audit, polynomials
from sheffermat.polynomials import derivative_combination

# Status-per-degree vectors for the default parameters (lambda = 0, m = 0),
# confirmed against an independent symbolic expansion before being frozen
# here.  A FAIL marks a printed identity that does not hold as displayed.
FROZEN_STATUSES = {
    "laguerre-differential-recurrence": (PASS,) + (FAIL,) * 6,
    "laguerre-derivative-recurrence": (FAIL,) * 7,
    "miller-lee-differential-recurrence": (PASS,) + (FAIL,) * 6,
    "miller-lee-derivative-recurrence": (FAIL,) * 7,
    "miller-lee-mixed-recurrence": (FAIL,) * 7,
}


@pytest.fixture(scope="module")
def report():
    return run_worked_example_audit(6)


def test_report_shape(report):
    assert report.identities == IDENTITY_IDS
    assert len(report) == 5 * 7


def test_frozen_status_vectors(report):
    for identity, expected in FROZEN_STATUSES.items():
        assert report.statuses(identity) == expected, identity


def test_pass_rows_have_zero_residual(report):
    for entry in report:
        if entry.status == PASS:
            assert entry.residual == Poly.zero()
        else:
            assert entry.residual != Poly.zero()


def test_entry_json_shape(report):
    payload = report.to_json()
    assert len(payload) == len(report)
    row = payload[0]
    assert set(row) == {
        "identity-id",
        "parameters",
        "n",
        "status",
        "residual",
        "derived-coeffs",
        "printed-coeffs",
    }
    assert row["identity-id"] == "laguerre-differential-recurrence"
    assert row["parameters"] == {"lambda": "0"}
    assert row["n"] == 0
    assert row["status"] == PASS
    assert row["residual"] == []
    assert set(row["derived-coeffs"]) == {"a", "b", "c"}
    assert all(
        isinstance(v, str)
        for vec in row["derived-coeffs"].values()
        for v in vec
    )


def test_vectors_are_sliced_per_degree(report):
    for entry in report:
        assert len(entry.derived.a) == entry.n + 1
        assert len(entry.printed["a"]) == entry.n + 1


def test_derived_beats_printed_on_laguerre_derivative(report):
    # The printed c column is constant-sign where the derived one
    # alternates; the disagreement is what the FAIL statuses record.
    entry = next(
        e
        for e in report
        if e.identity == "laguerre-derivative-recurrence" and e.n == 1
    )
    assert entry.derived.c == (Fraction(1), Fraction(-1))
    assert entry.printed["c"] == (Fraction(-1), Fraction(1))


def test_statuses_stable_under_parameters():
    report = run_worked_example_audit(4, lam=1, m=2)
    for identity, expected in FROZEN_STATUSES.items():
        assert report.statuses(identity) == expected[:5], identity


def test_minimum_degree_enforced():
    with pytest.raises(ValueError):
        run_worked_example_audit(2)


# -- the kernel terms against the original Poly accumulations -------------
#
# The audit first built each printed residual one Poly term at a time.
# Those five bodies are kept here as references; the kernel-term builders
# in sheffermat.audit must give the same polynomial at every degree, also
# at parameters other than the CLI's lambda = m = 0.


def reference_laguerre_differential(s, d, lam):
    acc = Poly.zero()
    for k in range(1, d + 1):
        shift = -Fraction(k * (k - 1) * (k + 4)) * (lam + 1) / 6
        acc = acc + math.comb(d, k) * math.factorial(k) * Poly((shift, 1)) * s[d - k]
    return acc - s[d] * d


def reference_laguerre_derivative(s, d, lam):
    acc = s[d + 1] + Poly((2 * lam + 2, 1)) * s[d]
    if d >= 1:
        acc = acc - 2 * d * Poly.x() * s[d - 1]
    if d >= 2:
        acc = acc + 2 * math.comb(d, 2) * Poly((lam + 1, 1)) * s[d - 2]
    for k in range(3, d + 1):
        acc = acc - (lam + 1) * math.comb(d, k) * math.factorial(k) * s[d - k]
    return acc


def reference_miller_lee_differential(s, d, printed):
    acc = s[d] * d
    if d >= 1:
        acc = acc - d * Poly.x() * s[d - 1]
    for k in range(1, d + 1):
        acc = acc - math.comb(d, k) * (printed["b"][k] + printed["c"][k]) * s[d - k]
    return acc


def reference_miller_lee_derivative(s, d, printed):
    acc = s[d + 1] - Poly.x() * s[d]
    for k in range(d + 1):
        acc = acc - math.comb(d, k) * (printed["b"][k] + printed["c"][k]) * s[d - k]
    return acc


def reference_miller_lee_mixed(s, d, m):
    acc = s[d + 1] - Poly.x() * s[d]
    for k in range(d + 1):
        acc = acc + 2 * (m + 1) * math.comb(d, k) * math.factorial(k) * s[d - k]
    return acc


REFERENCE_N = 30
REFERENCE_PARAMS = [
    (Fraction(0), Fraction(0)),
    (Fraction(5, 2), Fraction(-1, 3)),
    (Fraction(-7, 3), Fraction(9, 4)),
]


@pytest.mark.parametrize("lam, m", REFERENCE_PARAMS, ids=["0,0", "5/2,-1/3", "-7/3,9/4"])
def test_kernel_terms_match_reference_loops(lam, m):
    n = REFERENCE_N
    la = sheffer_appell_sequence(make_pair("laguerre", n + 2, {"lambda": lam}), n + 1)
    ga = sheffer_appell_sequence(make_pair("miller-lee", n + 2, {"m": m}), n + 1)
    ml_differential = audit._miller_lee_differential_printed(m, n)
    ml_derivative = audit._miller_lee_derivative_printed(m, n)
    cases = [
        (audit._laguerre_differential_terms, reference_laguerre_differential, la, lam),
        (audit._laguerre_derivative_terms, reference_laguerre_derivative, la, lam),
        (
            audit._miller_lee_differential_terms,
            reference_miller_lee_differential,
            ga,
            ml_differential,
        ),
        (
            audit._miller_lee_derivative_terms,
            reference_miller_lee_derivative,
            ga,
            ml_derivative,
        ),
        (audit._miller_lee_mixed_terms, reference_miller_lee_mixed, ga, m),
    ]
    nonzero = 0
    for terms, reference, s, reads in cases:
        for d in range(n + 1):
            expected = reference(s, d, reads)
            assert derivative_combination(terms(s, d, reads)) == expected, (
                terms.__name__,
                d,
            )
            nonzero += not expected.is_zero
    # Most printed identities fail, so the comparison is not between zeros.
    assert nonzero > 3 * (n + 1)


def test_audit_scales_each_sequence_polynomial_once(monkeypatch):
    calls = []
    honest = polynomials.common_denominator

    def counted(values):
        calls.append(values)
        return honest(values)

    monkeypatch.setattr(polynomials, "common_denominator", counted)
    run_worked_example_audit(12)
    assert len({id(values) for values in calls}) == len(calls)
    sequences = (
        sheffer_appell_sequence(make_pair("laguerre", 14, {"lambda": 0}), 13),
        sheffer_appell_sequence(make_pair("miller-lee", 14, {"m": 0}), 13),
    )
    want = Counter(p.coeffs for s in sequences for p in s)
    assert Counter(calls) == want


def test_report_json_at_nonzero_parameters():
    # SHA-256 of the whole report, frozen from the Poly-accumulation audit.
    report = run_worked_example_audit(20, lam=Fraction(-7, 3), m=Fraction(9, 4))
    payload = json.dumps(report.to_json(), sort_keys=True).encode()
    assert hashlib.sha256(payload).hexdigest() == (
        "44bb059a53e687eedade4561953b27d2212cd4ae02d71e8f703679128ef57f74"
    )
