"""Sequence arrays of the catalog at n = MAX_N and n = 200 against closed forms.

Each oracle below builds degrees 0..n of a classical sequence from its
textbook formula or recurrence, with integers and ``Fraction`` only; no
package arithmetic runs on the expected side.  The frozen digests of
``test_golden`` stop at n = 40, so these cover the rows of every sequence
kind up to the largest degree the CLI accepts.  Run in this process, they
also cover n = 200: the Appell kind of every case, the Sheffer-Appell kind
at one parameter per family, and, off the catalog, the Sheffer kind of the
Abel pair (1, y e^{ay}) and the Bessel-type pair (1, y - y^2/2), whose g
is not an involution.  The Charlier pair (e^{a(e^y - 1)}, a(e^y - 1)), whose
l is not 1 and whose g is not an involution, is checked in both kinds at
n = MAX_N, and its formulas against sympy at n <= 8.
For h = y the Sheffer kind e^{xy}/l is the Appell kind, and the
Sheffer-Appell kind e^{xy}/l^2 is the Appell kind of l^2.
"""

from fractions import Fraction
from functools import cache, partial
from math import comb, factorial

import pytest
from sympy import QQ
from sympy.polys.ring_series import rs_exp, rs_log
from sympy.polys.rings import ring

from sheffermat import (
    ShefferPair,
    TruncatedSeries,
    appell_sequence,
    make_pair,
    sheffer_appell_sequence,
    sheffer_sequence,
)
from sheffermat.cli import MAX_N

N = MAX_N
BIG_N = 200


def powers(n, shift):
    """(x + shift)^i for i = 0..n, ascending coefficients."""
    return [[comb(i, j) * shift ** (i - j) for j in range(i + 1)] for i in range(n + 1)]


def appell_from_numbers(numbers):
    """sum_k C(i, k) numbers[k] x^(i-k) for i = 0..len(numbers) - 1."""
    return [
        [comb(i, j) * numbers[i - j] for j in range(i + 1)] for i in range(len(numbers))
    ]


def falling(n):
    """(x)_{i+1} = (x - i) (x)_i: the Stirling numbers of the first kind."""
    rows = [[1]]
    for i in range(n):
        rows.append([s - i * c for s, c in zip([0] + rows[i], rows[i] + [0])])
    return rows


def hermite(n, step=1):
    """He_{i+1} = x He_i - step i He_{i-1}, He_0 = 1, He_1 = x; step 1 has
    generating function e^{xy - y^2/2}, step 2 e^{xy - y^2}."""
    rows = [[1], [0, 1]]
    for i in range(1, n):
        shifted = [0] + rows[i]
        previous = rows[i - 1] + [0, 0]
        rows.append([s - step * i * p for s, p in zip(shifted, previous)])
    return rows[: n + 1]


@cache  # also read, squared, by the Sheffer-Appell case
def bernoulli(n):
    """B_i(x) = sum_k C(i, k) B_k x^(i-k), sum_{k<=m} C(m+1, k) B_k = 0, B_1 = -1/2."""
    numbers = [Fraction(1)]
    for m in range(1, n + 1):
        numbers.append(-sum(comb(m + 1, k) * numbers[k] for k in range(m)) / (m + 1))
    assert numbers[1] == Fraction(-1, 2)
    return appell_from_numbers(numbers)


@cache  # also read, squared, by the Sheffer-Appell case
def euler(n):
    """E_i(x) = x^i - 1/2 sum_{k<i} C(i, k) E_k(x), so E_i(0) = -1/2 sum_{k<i}
    C(i, k) E_k(0) for i >= 1, and E_i(x) = sum_k C(i, k) E_k(0) x^(i-k)."""
    numbers = [Fraction(1)]
    for i in range(1, n + 1):
        numbers.append(-sum(comb(i, k) * numbers[k] for k in range(i)) / 2)
    assert numbers[1] == Fraction(-1, 2)
    return appell_from_numbers(numbers)


def squared(rows):
    """The Appell sequence of l^2 from the rows A_i of that of l: its numbers
    are sum_k C(i, k) A_k(0) A_{i-k}(0), the EGF coefficients of (1/l)^2."""
    a = [row[0] for row in rows]
    return appell_from_numbers([
        sum(comb(i, k) * a[k] * a[i - k] for k in range(i + 1)) for i in range(len(a))
    ])


def miller_lee(n, alpha):
    """1/l = (1 - y)^-alpha: sum_k C(i, k) alpha^(k) x^(i-k), rising factorial."""
    rising = [Fraction(1)]
    for k in range(n):
        rising.append(rising[-1] * (alpha + k))
    return appell_from_numbers(rising)


def laguerre(n, lam):
    """1/l = (1 - y)^(lam+1): sum_k C(i, k) (-1)^k (lam+1)_k x^(i-k), falling factorial."""
    signed_falling = [Fraction(1)]
    for k in range(n):
        signed_falling.append(-signed_falling[-1] * (lam + 1 - k))
    return appell_from_numbers(signed_falling)


def laguerre_sheffer(n, lam):
    """i! L_i^(lam)(x) = sum_k (-1)^k (i!/k!) C(i + lam, i - k) x^k."""
    rows = []
    for i in range(n + 1):
        binom = [Fraction(1)]  # C(i + lam, j) for j = 0..i
        for j in range(i):
            binom.append(binom[-1] * (i + lam - j) / (j + 1))
        rows.append([
            (-1) ** k * (factorial(i) // factorial(k)) * binom[i - k]
            for k in range(i + 1)
        ])
    return rows


def laguerre_sheffer_appell(n):
    """sum_{k>=1} (-1)^k (i!/k!) C(i - 1, k - 1) x^k for i >= 1, free of lambda."""
    return [[1]] + [
        [0] + [
            (-1) ** k * (factorial(i) // factorial(k)) * comb(i - 1, k - 1)
            for k in range(1, i + 1)
        ]
        for i in range(1, n + 1)
    ]


def abel(n, a):
    """x (x - a i)^(i-1) for i >= 1: the x^k coefficient is C(i-1, k-1) (-a i)^(i-k)
    (Roman, The Umbral Calculus, 1984, section 4.1)."""
    return [[1]] + [
        [0] + [comb(i - 1, k - 1) * (-a * i) ** (i - k) for k in range(1, i + 1)]
        for i in range(1, n + 1)
    ]


def bessel(n):
    """The Bessel type (1, y - y^2/2): the x^k coefficient of degree i is
    (2i - k - 1)! / ((k - 1)! (i - k)!) 2^(k - i) for 1 <= k <= i (Roman,
    The Umbral Calculus, 1984, section 4.1)."""
    return [[1]] + [
        [0] + [
            Fraction(factorial(2 * i - k - 1), factorial(k - 1) * factorial(i - k))
            / 2 ** (i - k)
            for k in range(1, i + 1)
        ]
        for i in range(1, n + 1)
    ]


def touchard(n, t):
    """k! [y^k] e^{t (e^y - 1)} = sum_j S(k, j) t^j for k = 0..n, with the
    Stirling numbers of the second kind S(k + 1, j) = j S(k, j) + S(k, j - 1)."""
    stirling, numbers = [1], [Fraction(1)]
    for _ in range(n):
        pairs = zip(stirling + [0], [0] + stirling)
        stirling = [j * s + r for j, (s, r) in enumerate(pairs)]
        numbers.append(sum(s * t**j for j, s in enumerate(stirling)))
    return numbers


def charlier(n, a):
    """The Charlier pair (e^{a(e^y - 1)}, a(e^y - 1)), a = p/q: g = log(1 + y/a)
    and l(g) = e^y, so its Sheffer rows are those of e^{-y} (1 + y/a)^x,
    C_i = sum_k C(i, k) (-1)^(i-k) a^(-k) (x)_k (Roman, The Umbral Calculus,
    1984, section 4.1), and its Sheffer-Appell rows the Appell transform
    sA_i = sum_k C(i, k) t_k C_(i-k) with t_k = k! [y^k] 1/l = touchard(k, -a).
    Both kinds are summed as integer rows, p^i C_i and (p q)^i sA_i, since
    q^k t_k is an integer."""
    p, q = a.numerator, a.denominator
    t = [c * q**k for k, c in enumerate(touchard(n, -a))]
    assert all(c.denominator == 1 for c in t)

    def transform(weight, rows):
        """sum_k weight(i, k) rows[k] for each degree i."""
        out = []
        for i in range(n + 1):
            row = [0] * (i + 1)
            for k in range(i + 1):
                w = weight(i, k)
                for j, c in enumerate(rows[k]):
                    row[j] += w * c
            out.append(row)
        return out

    sheffer = transform(
        lambda i, k: comb(i, k) * (-1) ** (i - k) * q**k * p ** (i - k), falling(n))
    appell = transform(lambda i, k: comb(i, k) * int(t[i - k]) * p ** (i - k) * q**k, sheffer)
    return (
        [[Fraction(c, p**i) for c in row] for i, row in enumerate(sheffer)],
        [[Fraction(c, (p * q) ** i) for c in row] for i, row in enumerate(appell)],
    )


def charlier_pair(n, a):
    """(l, h) at order n: l_k = touchard(k, a)/k! and h = a (e^y - 1)."""
    l = TruncatedSeries([c / factorial(k) for k, c in enumerate(touchard(n, a))])
    h = TruncatedSeries([0] + [a / factorial(k) for k in range(1, n + 1)])
    return ShefferPair(l, h)


LAMBDAS = (0, Fraction(5, 2), Fraction(-7, 3))
MS = (0, 1, Fraction(-5, 2))

CASES = [
    ("monomial", {}, lambda n: powers(n, 0)),
    ("log-assoc", {}, lambda n: powers(n, 0)),
    ("exp-shift", {}, lambda n: powers(n, -1)),
    ("hermite", {}, hermite),
    ("bernoulli", {}, bernoulli),
    ("euler", {}, euler),
    *[("miller-lee", {"m": m}, partial(miller_lee, alpha=m + 1)) for m in MS],
    *[("laguerre", {"lambda": lam}, partial(laguerre, lam=lam)) for lam in LAMBDAS],
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
        ("sheffer", "laguerre", {"lambda": lam}, partial(laguerre_sheffer, lam=lam))
        for lam in LAMBDAS
    ],
    ("sheffer_appell", "monomial", {}, lambda n: powers(n, 0)),
    ("sheffer_appell", "log-assoc", {}, falling),
    ("sheffer_appell", "exp-shift", {}, lambda n: powers(n, -2)),
    ("sheffer_appell", "hermite", {}, lambda n: hermite(n, 2)),
    ("sheffer_appell", "bernoulli", {}, lambda n: squared(bernoulli(n))),
    ("sheffer_appell", "euler", {}, lambda n: squared(euler(n))),
    *[
        ("sheffer_appell", "miller-lee", {"m": m}, partial(miller_lee, alpha=2 * m + 2))
        for m in MS
    ],
    *[
        ("sheffer_appell", "laguerre", {"lambda": lam}, laguerre_sheffer_appell)
        for lam in LAMBDAS
    ],
]
# At n = BIG_N: the Sheffer-Appell kind at one parameter per family, each
# about a second or less.
BIG_KIND_CASES = [
    (kind, family, params, oracle)
    for kind, family, params, oracle in KIND_CASES
    if kind == "sheffer_appell" and params in ({}, {"m": 1}, {"lambda": Fraction(5, 2)})
]


def case_id(family, params):
    return "-".join([family, *(f"{k}={v}" for k, v in params.items())])


def kind_ids(cases):
    return [f"{k}-{case_id(f, p)}" for k, f, p, _ in cases]


def assert_rows(seq, expected, n):
    assert len(seq) == len(expected) == n + 1
    for i, (p, want) in enumerate(zip(seq, expected)):
        assert p.coeffs == tuple(Fraction(c) for c in want), f"degree {i}"


def check_appell(n, family, params, oracle):
    assert_rows(appell_sequence(make_pair(family, n, params).l, n), oracle(n), n)


def check_kind(n, kind, family, params, oracle):
    generate = sheffer_sequence if kind == "sheffer" else sheffer_appell_sequence
    assert_rows(generate(make_pair(family, n, params), n), oracle(n), n)


@pytest.mark.parametrize(
    "family, params, oracle", CASES, ids=[case_id(f, p) for f, p, _ in CASES]
)
def test_appell_rows_match_closed_form(family, params, oracle):
    check_appell(N, family, params, oracle)


@pytest.mark.parametrize(
    "kind, family, params, oracle", KIND_CASES, ids=kind_ids(KIND_CASES)
)
def test_sheffer_kinds_match_closed_form(kind, family, params, oracle):
    check_kind(N, kind, family, params, oracle)


@pytest.mark.parametrize(
    "family, params, oracle", CASES, ids=[case_id(f, p) for f, p, _ in CASES]
)
def test_appell_rows_match_closed_form_at_200(family, params, oracle):
    check_appell(BIG_N, family, params, oracle)


@pytest.mark.parametrize(
    "kind, family, params, oracle", BIG_KIND_CASES, ids=kind_ids(BIG_KIND_CASES)
)
def test_sheffer_kinds_match_closed_form_at_200(kind, family, params, oracle):
    check_kind(BIG_N, kind, family, params, oracle)


def test_abel_sheffer_rows_match_closed_form_at_200():
    """The associated pair (1, y e^{ay}) at a = -2/3, built from h alone."""
    a = Fraction(-2, 3)
    h = TruncatedSeries([0] + [a**k / factorial(k) for k in range(BIG_N)])
    assert_rows(sheffer_sequence(ShefferPair.associated(h), BIG_N), abel(BIG_N, a), BIG_N)


def test_bessel_sheffer_rows_match_closed_form_at_200():
    """The associated pair (1, y - y^2/2), built from h alone."""
    h = TruncatedSeries([0, 1, Fraction(-1, 2)], BIG_N)
    assert_rows(sheffer_sequence(ShefferPair.associated(h), BIG_N), bessel(BIG_N), BIG_N)


CHARLIER_AS = (Fraction(2), Fraction(3, 2))


@pytest.mark.parametrize("a", CHARLIER_AS, ids=str)
def test_charlier_formulas_match_sympy(a):
    """Both kinds' formulas at n <= 8 against sympy's expansion of
    e^{-y} (1 + y/a)^x, and of it times 1/l = e^{-a(e^y - 1)}."""
    R, x, y = ring("x, y", QQ)
    prec, qa = 9, QQ(a.numerator, a.denominator)
    exponent = x * rs_log(1 + y / qa, y, prec) - y
    expected = []
    for extra in (0, qa * (rs_exp(y, y, prec) - 1)):
        gf = rs_exp(exponent - extra, y, prec)
        expected.append([
            [Fraction(int(c.numerator), int(c.denominator)) for c in
             (gf.coeff_wrt(y, i).coeff(x**k) * factorial(i) for k in range(i + 1))]
            for i in range(prec)
        ])
    assert list(charlier(prec - 1, a)) == expected


@pytest.mark.parametrize("a", CHARLIER_AS, ids=str)
def test_charlier_rows_match_closed_form(a):
    """The first closed-form pair with l != 1 and a g that is not an
    involution, both kinds on one pair."""
    pair, (sheffer, sheffer_appell) = charlier_pair(N, a), charlier(N, a)
    assert_rows(sheffer_sequence(pair, N), sheffer, N)
    assert_rows(sheffer_appell_sequence(pair, N), sheffer_appell, N)
