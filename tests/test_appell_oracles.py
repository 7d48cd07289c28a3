"""Appell arrays of the catalog at n = MAX_N against closed forms.

Each oracle below builds degrees 0..n of a classical Appell sequence
e^{xy}/l(y) from its textbook formula or recurrence, with integers and
``Fraction`` only; no package arithmetic runs on the expected side.  The
frozen digests of ``test_golden`` stop at n = 40, so these cover the rows
of ``appell_sequence`` up to the largest degree the CLI accepts.
"""

from fractions import Fraction
from math import comb

import pytest

from sheffermat import appell_sequence, make_pair
from sheffermat.cli import MAX_N

N = MAX_N


def powers(shift):
    """(x + shift)^i for i = 0..N, ascending coefficients."""
    return [[comb(i, j) * shift ** (i - j) for j in range(i + 1)] for i in range(N + 1)]


def appell_from_numbers(numbers):
    """sum_k C(i, k) numbers[k] x^(i-k) for i = 0..N."""
    return [[comb(i, j) * numbers[i - j] for j in range(i + 1)] for i in range(N + 1)]


def hermite():
    """He_{i+1} = x He_i - i He_{i-1}, He_0 = 1, He_1 = x."""
    rows = [[1], [0, 1]]
    for i in range(1, N):
        shifted = [0] + rows[i]
        previous = rows[i - 1] + [0, 0]
        rows.append([s - i * p for s, p in zip(shifted, previous)])
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


def miller_lee(m):
    """1/l = (1 - y)^-(m+1): sum_k C(i, k) (m+1)^(k) x^(i-k), rising factorial."""
    rising = [Fraction(1)]
    for k in range(N):
        rising.append(rising[-1] * (m + 1 + k))
    return appell_from_numbers(rising)


def laguerre(lam):
    """1/l = (1 - y)^(lam+1): sum_k C(i, k) (-1)^k (lam+1)_k x^(i-k), falling factorial."""
    signed_falling = [Fraction(1)]
    for k in range(N):
        signed_falling.append(-signed_falling[-1] * (lam + 1 - k))
    return appell_from_numbers(signed_falling)


CASES = [
    ("monomial", {}, lambda: powers(0)),
    ("log-assoc", {}, lambda: powers(0)),
    ("exp-shift", {}, lambda: powers(-1)),
    ("hermite", {}, hermite),
    ("bernoulli", {}, bernoulli),
    ("euler", {}, euler),
    ("miller-lee", {"m": 0}, lambda: miller_lee(0)),
    ("miller-lee", {"m": 1}, lambda: miller_lee(1)),
    ("miller-lee", {"m": Fraction(-5, 2)}, lambda: miller_lee(Fraction(-5, 2))),
    ("laguerre", {"lambda": 0}, lambda: laguerre(0)),
    ("laguerre", {"lambda": Fraction(5, 2)}, lambda: laguerre(Fraction(5, 2))),
    ("laguerre", {"lambda": Fraction(-7, 3)}, lambda: laguerre(Fraction(-7, 3))),
]


@pytest.mark.parametrize(
    "family, params, oracle",
    CASES,
    ids=["-".join([f, *(f"{k}={v}" for k, v in p.items())]) for f, p, _ in CASES],
)
def test_appell_rows_match_closed_form(family, params, oracle):
    seq = appell_sequence(make_pair(family, N, params).l, N)
    expected = oracle()
    assert len(seq) == len(expected) == N + 1
    for i, (p, want) in enumerate(zip(seq, expected)):
        assert p.coeffs == tuple(Fraction(c) for c in want), f"degree {i}"
