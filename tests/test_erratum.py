"""The erratum of the five printed worked examples (README, "Erratum").

In both families l = (1 - y)^alpha with alpha affine in the parameter and h
free of it, so L = l'/l and every (a, b, c) series is affine in t = lambda + 1
(laguerre) or t = m + 1 (miller-lee).  ``CLOSED`` gives the derived rows in
closed form for every k; they are checked against the engine at n = 100 on
five parameter values, of which two already decide an affine row.
``DIFFERS`` lists, per printed table of :mod:`sheffermat.audit`, the entries
where it differs from the closed form at every t != 0, checked at n = 12 on
the same values.
"""

from fractions import Fraction
from functools import cache
from math import factorial

import pytest

from sheffermat import COEFF_EXTRACTORS, CoeffTriple, make_pair
from sheffermat.audit import PRINTED_IDENTITIES

N = 100
VALUES = (0, 1, Fraction(5, 2), Fraction(-7, 3), 10**12 - 1)
PARAMETER = {"laguerre": "lambda", "miller-lee": "m"}


def head(n, *entries):
    """The row entries, k = 0..n, then zeros."""
    return [*entries, *[0] * (n + 1 - len(entries))][: n + 1]


def times_factorial(n, t, start=0):
    """t k! for start <= k <= n, 0 below start: the row of t y^start/(1 - y)."""
    return [t * factorial(k) if k >= start else 0 for k in range(n + 1)]


# identity -> (a, b, c) at n for t = lambda + 1 or m + 1
CLOSED = {
    "laguerre-differential-recurrence": lambda t, n: (
        head(n, 0, 1, -2), head(n, 0, t), head(n, 0, -t)),
    "laguerre-derivative-recurrence": lambda t, n: (
        head(n, -1, 2, -2), head(n, -t, t), head(n, t, -t)),
    "miller-lee-differential-recurrence": lambda t, n: (
        head(n, 0, 1), times_factorial(n, t, 1), times_factorial(n, t, 1)),
    "miller-lee-derivative-recurrence": lambda t, n: (
        head(n, 1), times_factorial(n, t), times_factorial(n, t)),
    "miller-lee-mixed-recurrence": lambda t, n: (
        head(n, 1), times_factorial(n, t), times_factorial(n, t)),
}

EVERY, FROM_1, FROM_2 = (lambda k: True), (lambda k: k >= 1), (lambda k: k >= 2)
# identity -> {vector: the k where the printed table differs}
DIFFERS = {
    "laguerre-differential-recurrence": {"a": lambda k: k != 1, "b": FROM_2, "c": FROM_2},
    "laguerre-derivative-recurrence": {"b": FROM_1, "c": lambda k: k <= 1},
    "miller-lee-differential-recurrence": {"c": FROM_1},
    "miller-lee-derivative-recurrence": {"c": EVERY},
    "miller-lee-mixed-recurrence": {"b": EVERY, "c": EVERY},
}


@cache
def pair(family, value):
    return make_pair(family, N + 1, {PARAMETER[family]: value})


@pytest.mark.parametrize("identity", PRINTED_IDENTITIES)
def test_erratum_closed_forms(identity):
    family, label, printed_table, _ = PRINTED_IDENTITIES[identity]
    n, listed = 12, DIFFERS[identity]
    expected = {(name, k) for name in listed for k in range(n + 1) if listed[name](k)}
    for value in VALUES:
        closed = CLOSED[identity](value + 1, N)
        derived = COEFF_EXTRACTORS[label](pair(family, value), N)
        assert derived == CoeffTriple.from_rationals(label, *closed), value
        printed = printed_table(Fraction(value), n)
        differs = {
            (name, k)
            for name, p, c in zip("abc", printed, CLOSED[identity](value + 1, n))
            for k in range(n + 1)
            if p[k] != c[k]
        }
        assert differs == expected, value
