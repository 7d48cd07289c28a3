"""Sequence arrays of the catalog at n = MAX_N against closed forms.

Each oracle below builds degrees 0..n of a classical sequence from its
textbook formula or recurrence, with integers and ``Fraction`` only; no
package arithmetic runs on the expected side.  The frozen digests of
``test_golden`` stop at n = 40, so these cover the rows of every sequence
kind up to the largest degree the CLI accepts.  For h = y the Sheffer kind
e^{xy}/l is the Appell kind, and the Sheffer-Appell kind e^{xy}/l^2 is the
Appell kind of l^2.
"""

from fractions import Fraction
from math import comb, factorial

import pytest

from sheffermat import (
    appell_sequence,
    make_pair,
    sheffer_appell_sequence,
    sheffer_sequence,
)
from sheffermat.cli import MAX_N

N = MAX_N


def powers(shift):
    """(x + shift)^i for i = 0..N, ascending coefficients."""
    return [[comb(i, j) * shift ** (i - j) for j in range(i + 1)] for i in range(N + 1)]


def appell_from_numbers(numbers):
    """sum_k C(i, k) numbers[k] x^(i-k) for i = 0..N."""
    return [[comb(i, j) * numbers[i - j] for j in range(i + 1)] for i in range(N + 1)]


def falling():
    """(x)_{i+1} = (x - i) (x)_i: the Stirling numbers of the first kind."""
    rows = [[1]]
    for i in range(N):
        rows.append([s - i * c for s, c in zip([0] + rows[i], rows[i] + [0])])
    return rows


def hermite(step=1):
    """He_{i+1} = x He_i - step i He_{i-1}, He_0 = 1, He_1 = x; step 1 has
    generating function e^{xy - y^2/2}, step 2 e^{xy - y^2}."""
    rows = [[1], [0, 1]]
    for i in range(1, N):
        shifted = [0] + rows[i]
        previous = rows[i - 1] + [0, 0]
        rows.append([s - step * i * p for s, p in zip(shifted, previous)])
    return rows[: N + 1]


def bernoulli():
    """B_i(x) = sum_k C(i, k) B_k x^(i-k), sum_{k<=m} C(m+1, k) B_k = 0, B_1 = -1/2."""
    numbers = [Fraction(1)]
    for m in range(1, N + 1):
        numbers.append(-sum(comb(m + 1, k) * numbers[k] for k in range(m)) / (m + 1))
    assert numbers[1] == Fraction(-1, 2)
    return appell_from_numbers(numbers)


def euler():
    """E_i(x) = x^i - 1/2 sum_{k<i} C(i, k) E_k(x)."""
    rows = []
    for i in range(N + 1):
        row = [Fraction(0)] * i + [Fraction(1)]
        for k in range(i):
            half = Fraction(comb(i, k), 2)
            for j, c in enumerate(rows[k]):
                row[j] -= half * c
        rows.append(row)
    return rows


def squared(appell):
    """sum_k C(i, k) A_k(0) A_{i-k}(x): the Appell sequence of l^2 from that of l."""
    rows = appell()
    out = []
    for i in range(N + 1):
        row = [Fraction(0)] * (i + 1)
        for k in range(i + 1):
            weight = comb(i, k) * rows[k][0]
            for j, c in enumerate(rows[i - k]):
                row[j] += weight * c
        out.append(row)
    return out


def miller_lee(alpha):
    """1/l = (1 - y)^-alpha: sum_k C(i, k) alpha^(k) x^(i-k), rising factorial."""
    rising = [Fraction(1)]
    for k in range(N):
        rising.append(rising[-1] * (alpha + k))
    return appell_from_numbers(rising)


def laguerre(lam):
    """1/l = (1 - y)^(lam+1): sum_k C(i, k) (-1)^k (lam+1)_k x^(i-k), falling factorial."""
    signed_falling = [Fraction(1)]
    for k in range(N):
        signed_falling.append(-signed_falling[-1] * (lam + 1 - k))
    return appell_from_numbers(signed_falling)


def laguerre_sheffer(lam):
    """i! L_i^(lam)(x) = sum_k (-1)^k (i!/k!) C(i + lam, i - k) x^k."""
    rows = []
    for i in range(N + 1):
        binom = [Fraction(1)]  # C(i + lam, j) for j = 0..i
        for j in range(i):
            binom.append(binom[-1] * (i + lam - j) / (j + 1))
        rows.append([
            (-1) ** k * (factorial(i) // factorial(k)) * binom[i - k]
            for k in range(i + 1)
        ])
    return rows


def laguerre_sheffer_appell():
    """sum_{k>=1} (-1)^k (i!/k!) C(i - 1, k - 1) x^k for i >= 1, free of lambda."""
    return [[1]] + [
        [0] + [
            (-1) ** k * (factorial(i) // factorial(k)) * comb(i - 1, k - 1)
            for k in range(1, i + 1)
        ]
        for i in range(1, N + 1)
    ]


LAMBDAS = (0, Fraction(5, 2), Fraction(-7, 3))
MS = (0, 1, Fraction(-5, 2))

CASES = [
    ("monomial", {}, lambda: powers(0)),
    ("log-assoc", {}, lambda: powers(0)),
    ("exp-shift", {}, lambda: powers(-1)),
    ("hermite", {}, hermite),
    ("bernoulli", {}, bernoulli),
    ("euler", {}, euler),
    *[("miller-lee", {"m": m}, lambda m=m: miller_lee(m + 1)) for m in MS],
    *[("laguerre", {"lambda": lam}, lambda lam=lam: laguerre(lam)) for lam in LAMBDAS],
]

# (kind, family, params, oracle) for the Sheffer and Sheffer-Appell kinds
KIND_CASES = [
    *[
        ("sheffer", family, params, oracle)
        for family, params, oracle in CASES
        if family not in ("log-assoc", "laguerre")
    ],
    ("sheffer", "log-assoc", {}, falling),
    *[
        ("sheffer", "laguerre", {"lambda": lam}, lambda lam=lam: laguerre_sheffer(lam))
        for lam in LAMBDAS
    ],
    ("sheffer_appell", "monomial", {}, lambda: powers(0)),
    ("sheffer_appell", "log-assoc", {}, falling),
    ("sheffer_appell", "exp-shift", {}, lambda: powers(-2)),
    ("sheffer_appell", "hermite", {}, lambda: hermite(2)),
    ("sheffer_appell", "bernoulli", {}, lambda: squared(bernoulli)),
    ("sheffer_appell", "euler", {}, lambda: squared(euler)),
    *[
        ("sheffer_appell", "miller-lee", {"m": m}, lambda m=m: miller_lee(2 * m + 2))
        for m in MS
    ],
    *[
        ("sheffer_appell", "laguerre", {"lambda": lam}, laguerre_sheffer_appell)
        for lam in LAMBDAS
    ],
]


def case_id(family, params):
    return "-".join([family, *(f"{k}={v}" for k, v in params.items())])


def assert_rows(seq, expected):
    assert len(seq) == len(expected) == N + 1
    for i, (p, want) in enumerate(zip(seq, expected)):
        assert p.coeffs == tuple(Fraction(c) for c in want), f"degree {i}"


@pytest.mark.parametrize(
    "family, params, oracle", CASES, ids=[case_id(f, p) for f, p, _ in CASES]
)
def test_appell_rows_match_closed_form(family, params, oracle):
    assert_rows(appell_sequence(make_pair(family, N, params).l, N), oracle())


@pytest.mark.parametrize(
    "kind, family, params, oracle",
    KIND_CASES,
    ids=[f"{k}-{case_id(f, p)}" for k, f, p, _ in KIND_CASES],
)
def test_sheffer_kinds_match_closed_form(kind, family, params, oracle):
    generate = sheffer_sequence if kind == "sheffer" else sheffer_appell_sequence
    assert_rows(generate(make_pair(family, N, params), N), oracle())
