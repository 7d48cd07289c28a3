import hashlib
import json
import math
from fractions import Fraction

import pytest

from sheffermat import (
    FAIL,
    PASS,
    AuditEntry,
    CoeffTriple,
    Poly,
    make_pair,
    run_worked_example_audit,
    sheffer_appell_sequence,
)
from sheffermat import audit, identities
from sheffermat.polynomials import derivative_combination

from plain_fractions import add, mul, sub

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
    assert report.identities == tuple(audit.PRINTED_IDENTITIES)
    assert len(report) == 5 * 7


def test_frozen_status_vectors(report):
    for identity, expected in FROZEN_STATUSES.items():
        assert report.statuses(identity) == expected, identity


def test_pass_rows_have_zero_residual(report):
    for entry in report:
        if entry.status == PASS:
            assert entry.residual == Poly()
        else:
            assert entry.residual != Poly()


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
        assert len(entry.printed.a) == entry.n + 1


def test_derived_beats_printed_on_laguerre_derivative(report):
    # The printed c column is constant-sign where the derived one
    # alternates; the disagreement is what the FAIL statuses record.
    entry = next(
        e
        for e in report
        if e.identity == "laguerre-derivative-recurrence" and e.n == 1
    )
    assert entry.derived.c == (Fraction(1), Fraction(-1))
    assert entry.printed.c == (Fraction(-1), Fraction(1))


def test_printed_and_derived_tables_compare_with_eq():
    """Both tables of an entry are CoeffTriples of one label, so a printed
    table that is right is == the derived one, and its status, read off the
    residual, is PASS.  At m = -1 the Miller-Lee pair is (1, y), whose printed
    tables are all right; at other m only the degree-0 differential one is."""
    assert "status" not in AuditEntry._fields
    report = run_worked_example_audit(10, m=-1)
    miller_lee = [e for e in report if e.identity.startswith("miller-lee")]
    assert len(miller_lee) == 3 * 11
    assert all(e.printed == e.derived and e.status == PASS for e in miller_lee)
    for m in (0, 1, Fraction(5, 2), Fraction(-3, 2)):
        equal = []
        for entry in run_worked_example_audit(10, m=m):
            assert type(entry.printed) is CoeffTriple
            assert entry.status == (PASS if entry.residual.is_zero else FAIL)
            if entry.printed == entry.derived:  # so every FAIL has printed != derived
                assert entry.status == PASS, (m, entry.identity, entry.n)
                equal.append((entry.identity, entry.n))
        assert equal == [("miller-lee-differential-recurrence", 0)], m


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
# Those five bodies are kept here as references, read like the builders as
# (s, d, value, printed); the kernel-term builder of every entry of
# sheffermat.audit.PRINTED_IDENTITIES must give the same polynomial at
# every degree, also at parameters other than the CLI's lambda = m = 0.


def reference_laguerre_differential(s, d, lam, printed):
    acc = Poly()
    for k in range(1, d + 1):
        shift = -Fraction(k * (k - 1) * (k + 4)) * (lam + 1) / 6
        acc = add(acc, math.perm(d, k) * mul(Poly((shift, 1)), s[d - k]))
    return sub(acc, s[d] * d)


def reference_laguerre_derivative(s, d, lam, printed):
    acc = add(s[d + 1], mul(Poly((2 * lam + 2, 1)), s[d]))
    if d >= 1:
        acc = sub(acc, 2 * d * mul(Poly((0, 1)), s[d - 1]))
    if d >= 2:
        acc = add(acc, 2 * math.comb(d, 2) * mul(Poly((lam + 1, 1)), s[d - 2]))
    for k in range(3, d + 1):
        acc = sub(acc, (lam + 1) * math.comb(d, k) * math.factorial(k) * s[d - k])
    return acc


def reference_miller_lee_differential(s, d, m, printed):
    acc = s[d] * d
    if d >= 1:
        acc = sub(acc, d * mul(Poly((0, 1)), s[d - 1]))
    for k in range(1, d + 1):
        acc = sub(acc, math.comb(d, k) * (printed[1][k] + printed[2][k]) * s[d - k])
    return acc


def reference_miller_lee_derivative(s, d, m, printed):
    acc = sub(s[d + 1], mul(Poly((0, 1)), s[d]))
    for k in range(d + 1):
        acc = sub(acc, math.comb(d, k) * (printed[1][k] + printed[2][k]) * s[d - k])
    return acc


def reference_miller_lee_mixed(s, d, m, printed):
    acc = sub(s[d + 1], mul(Poly((0, 1)), s[d]))
    for k in range(d + 1):
        acc = add(acc, 2 * (m + 1) * math.comb(d, k) * math.factorial(k) * s[d - k])
    return acc


REFERENCE_N = 30
REFERENCE_PARAMS = [
    (Fraction(0), Fraction(0)),
    (Fraction(5, 2), Fraction(-1, 3)),
    (Fraction(-7, 3), Fraction(9, 4)),
]
REFERENCES = {
    "laguerre-differential-recurrence": reference_laguerre_differential,
    "laguerre-derivative-recurrence": reference_laguerre_derivative,
    "miller-lee-differential-recurrence": reference_miller_lee_differential,
    "miller-lee-derivative-recurrence": reference_miller_lee_derivative,
    "miller-lee-mixed-recurrence": reference_miller_lee_mixed,
}


@pytest.mark.parametrize("lam, m", REFERENCE_PARAMS, ids=["0,0", "5/2,-1/3", "-7/3,9/4"])
def test_kernel_terms_match_reference_loops(lam, m):
    n = REFERENCE_N
    la = sheffer_appell_sequence(make_pair("laguerre", n + 2, {"lambda": lam}), n + 1)
    ga = sheffer_appell_sequence(make_pair("miller-lee", n + 2, {"m": m}), n + 1)
    runs = {"laguerre": (la, lam), "miller-lee": (ga, m)}
    assert set(REFERENCES) == set(audit.PRINTED_IDENTITIES)
    nonzero = 0
    for identity, (family, _, table, terms) in audit.PRINTED_IDENTITIES.items():
        s, value = runs[family]
        printed = table(value, n)
        reference = REFERENCES[identity]
        for d in range(n + 1):
            expected = reference(s, d, value, printed)
            assert derivative_combination(terms(s, d, value, printed)) == expected, (
                terms.__name__,
                d,
            )
            nonzero += not expected.is_zero
    # Most printed identities fail, so the comparison is not between zeros.
    assert nonzero > 3 * (n + 1)


def test_report_json_at_nonzero_parameters():
    # SHA-256 of the whole report, frozen from the Poly-accumulation audit.
    report = run_worked_example_audit(20, lam=Fraction(-7, 3), m=Fraction(9, 4))
    payload = json.dumps(report.to_json(), sort_keys=True).encode()
    assert hashlib.sha256(payload).hexdigest() == (
        "44bb059a53e687eedade4561953b27d2212cd4ae02d71e8f703679128ef57f74"
    )


# -- the convolution form -------------------------------------------------


def test_convolution_form_is_one_function(monkeypatch):
    """The "3.2" and "3.3" residuals and the three Miller-Lee recurrences
    build their sum_k C(n,k) (x a_k + b_k + c_k) s_{n-k} terms by
    identities.convolution_terms; "2.1", "3.1" and the Laguerre ones do not."""
    calls = []
    honest = identities.convolution_terms

    def counted(s, n, a, b, c):
        calls.append(n)
        return honest(s, n, a, b, c)

    for module in (identities, audit):
        monkeypatch.setattr(module, "convolution_terms", counted)
    pair = make_pair("laguerre", 8, {"lambda": Fraction(5, 2)})
    used = set()
    for label, residual in identities.RESIDUALS.items():
        calls.clear()
        assert residual(pair, 6).is_zero
        if calls:
            assert calls == [6], label
            used.add(label)
    assert used == {"3.2", "3.3"}
    s = sheffer_appell_sequence(make_pair("miller-lee", 8, {"m": 1}), 7)
    used = set()
    for identity, (_, _, table, terms) in audit.PRINTED_IDENTITIES.items():
        calls.clear()
        terms(s, 6, Fraction(1), table(Fraction(1), 6))
        if calls:
            assert calls == [6], identity
            used.add(identity)
    assert used == {i for i in audit.PRINTED_IDENTITIES if i.startswith("miller-lee")}


def combined(*term_lists):
    return derivative_combination([t for terms in term_lists for t in terms])


def laguerre_identity(kind, lam, n):
    """The displayed terms at degree d, and the printed (a, b, c), of one
    Laguerre identity of the audit."""
    _, _, table, terms = audit.PRINTED_IDENTITIES[f"laguerre-{kind}-recurrence"]
    printed = table(lam, n)
    return lambda s, d: terms(s, d, lam, printed), printed


@pytest.mark.parametrize("lam", [Fraction(0), Fraction(5, 2), Fraction(-7, 3)])
def test_laguerre_recurrences_are_not_the_convolution_form(lam):
    """Why the two Laguerre builders stay transcribed as displayed.

    Over its printed table (a_0 = 1, b_0 + c_0 = 0), the displayed
    differential recurrence is d sA_d = sum_{k>=1} C(d,k) (x a_k + b_k + c_k)
    sA_{d-k}: the convolution form d sA_d - sum_{k>=0} with its sides swapped
    and without the k = 0 term x sA_d.  The displayed derivative recurrence
    is sA_{d+1} minus the form for d <= 2; from d = 3 on its sum over k >= 3
    has the opposite sign, so the two differ by 2 (lam+1) sum_{k>=3}
    C(d,k) k! sA_{d-k}.
    """
    n = 12
    s = sheffer_appell_sequence(make_pair("laguerre", n + 2, {"lambda": lam}), n + 1)
    displayed, abc = laguerre_identity("differential", lam, n)
    for d in range(n + 1):
        form = [(0, d, s[d], 0)] + identities.convolution_terms(s, d, *abc)
        assert combined(displayed(s, d), form, [(1, 0, s[d], 0)]).is_zero, d
        assert not combined(displayed(s, d), form).is_zero, d
    displayed, abc = laguerre_identity("derivative", lam, n)
    weight = 2 * (lam + 1)
    for d in range(n + 1):
        form = combined([(0, 1, s[d + 1], 0)], identities.convolution_terms(s, d, *abc))
        assert (combined(displayed(s, d)) == form) == (d <= 2), d
        flipped = [(0, weight * math.perm(d, k), s[d - k], 0) for k in range(3, d + 1)]
        assert combined(displayed(s, d), flipped) == form, d
