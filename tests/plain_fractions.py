"""Plain-Fraction polynomial and series arithmetic for the tests.

The package never adds, subtracts or multiplies two ``Poly``s, never
raises one to a power or evaluates it, never subtracts two
``TruncatedSeries`` and never builds a monomial; it sums integer rows
instead.  The tests state their expected
values with these functions, which work one ``Fraction`` coefficient at a
time, so they are also the one independent reference of each row kernel:
``weighted_sum`` for ``combine_row``; ``combination`` for
``derivative_combination``; the functions on coefficient lists for the
truncated series product, reciprocal, composition, exponential and Lagrange
reversion, the Riordan array [d, g] built one column d g^k at a time, a
pair's two such arrays (``sheffer_arrays``), the product of two matrices,
and the Pascal rows and derivative vectors that fix an Appell pair's arrays
and identity rows; and ``derived_rows`` for g and the (a, b, c) vectors of
the four identities.  ``entries`` and ``coefficients`` draw the operands of
the kernels; ``near_misses_of_y`` gives the series one detail away from y,
for the kernel's fast paths on y;
``geometric_series`` gives 1/(1-y).
``pairs`` is the one generator of random pairs (l, h), and ``check_pair``
the one check of a whole pair: its g, its (a, b, c) rows and its two arrays
against the references.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import zip_longest

from hypothesis import strategies as st

from sheffermat import COEFF_EXTRACTORS, LABELS, Poly, ShefferPair, TruncatedSeries


def monomial(degree: int, coefficient: Fraction | int = 1) -> Poly:
    """coefficient * x**degree."""
    if degree < 0:
        raise ValueError("monomial degree must be >= 0")
    return Poly([0] * degree + [coefficient])


def _coeffs(p: Poly | Fraction | int) -> tuple[Fraction, ...]:
    return p.coeffs if isinstance(p, Poly) else (Fraction(p),)


def add(*terms: Poly | Fraction | int) -> Poly:
    """The sum of polynomials and scalars (the zero polynomial if none)."""
    out: list[Fraction] = []
    for term in terms:
        out = [a + b for a, b in zip_longest(out, _coeffs(term), fillvalue=0)]
    return Poly(out)


def neg(p: Poly) -> Poly:
    return Poly(-c for c in p.coeffs)


def sub(p: Poly | Fraction | int, q: Poly | Fraction | int) -> Poly:
    return add(p, neg(Poly(_coeffs(q))))


def mul(p: Poly | Fraction | int, q: Poly | Fraction | int) -> Poly:
    a, b = _coeffs(p), _coeffs(q)
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return Poly(out)


def power(p: Poly, exponent: int) -> Poly:
    if exponent < 0:
        raise ValueError("negative power of a polynomial")
    result = Poly((1,))
    for _ in range(exponent):
        result = mul(result, p)
    return result


def evaluate(p: Poly, value: Fraction | int) -> Fraction:
    """p(value) by Horner's rule."""
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * value + c
    return acc


def combination(terms, dw: int = 1) -> Poly:
    """sum (beta + alpha x) q^(k)/(k! dw) over the terms (alpha, beta, q, k),
    with the x^i coefficient of q^(k)/k! as C(i + k, k) q_(i+k)."""
    out = Poly()
    for alpha, beta, q, k in terms:
        scaled = Poly(math.comb(i, k) * c for i, c in enumerate(q.coeffs[k:], k))
        out = add(out, mul(Poly((Fraction(beta) / dw, Fraction(alpha) / dw)), scaled))
    return out


def weighted_sum(weights, rows) -> list[Fraction]:
    """sum_t weights[t] * rows[t], short rows zero-padded to the longest."""
    out = [Fraction(0)] * max((len(r) for r in rows), default=0)
    for w, r in zip(weights, rows):
        for j, c in enumerate(r):
            out[j] += w * c
    return out


def series_sub(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    if a.order != b.order:
        raise ValueError("orders differ")
    return TruncatedSeries([x - y for x, y in zip(a.coeffs, b.coeffs)])


# Coefficient lists of truncated series, all of one length.


def truncated_product(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """The schoolbook product, one nonzero coefficient of the sparser factor
    at a time, skipping the terms with a zero factor."""
    n = len(a)
    if sum(map(bool, a)) > sum(map(bool, b)):
        a, b = b, a
    out = [Fraction(0)] * n
    for i, x in enumerate(a):
        if x:
            for k in range(i, n):
                if b[k - i]:
                    out[k] += x * b[k - i]
    return out


def reciprocal(c: list[Fraction]) -> list[Fraction]:
    """1/c by the recurrence c_0 b_k = -sum_{i>=1} c_i b_(k-i)."""
    out = [1 / c[0]]
    for k in range(1, len(c)):
        out.append(-sum(c[i] * out[k - i] for i in range(1, k + 1)) / c[0])
    return out


def powers(g: list[Fraction]) -> list[list[Fraction]]:
    """g^0, ..., g^n for n = len(g) - 1, truncated at y^n, g[0] = 0: g^k starts
    at y^k, so each product skips its k leading zeros."""
    out = [[Fraction(1)] + [Fraction(0)] * (len(g) - 1)]
    for _ in g[1:]:
        out.append(truncated_product(out[-1], g))
    return out


def at_powers(f: list[Fraction], g_powers: list[list[Fraction]]) -> list[Fraction]:
    """sum f_k g^k from the powers of g, truncated to the length of f."""
    return [sum((c * p[i] for c, p in zip(f, g_powers) if c and p[i]), Fraction(0))
            for i in range(len(f))]


def composition(f: list[Fraction], g: list[Fraction]) -> list[Fraction]:
    """f(g(y)) = sum f_k g^k, g[0] = 0."""
    return at_powers(f, powers(g))


def exponential(g: list[Fraction]) -> list[Fraction]:
    """sum_k g^k / k!, g[0] = 0."""
    out, term = [Fraction(0)] * len(g), [Fraction(1)] + [Fraction(0)] * (len(g) - 1)
    for k in range(1, len(g) + 1):
        out = [o + t for o, t in zip(out, term)]
        term = [c / k for c in truncated_product(term, g)]
    return out


def derivative(c: list[Fraction]) -> list[Fraction]:
    """Term-wise d/dy, one coefficient shorter."""
    return [k * c[k] for k in range(1, len(c))]


def derivative_vector(c: list[Fraction]) -> list[Fraction]:
    """k! c_k: the derivatives at 0."""
    return [math.factorial(k) * c[k] for k in range(len(c))]


def pascal_rows(f: list[Fraction]) -> list[list[Fraction]]:
    """Row i of the Pascal matrix P[f] to its diagonal: C(i, j) (i-j)! f_(i-j)."""
    return [
        [math.comb(i, j) * math.factorial(i - j) * f[i - j] for j in range(i + 1)]
        for i in range(len(f))
    ]


def riordan_rows(d: list[Fraction], g: list[Fraction]) -> list[Poly]:
    """Degrees 0..n of [d, g]: the x^k coefficient of degree i is
    i!/k! [y^i] d g^k, one product per column d g^k."""
    columns, power = [], d
    for _ in d:
        columns.append(power)
        power = truncated_product(power, g)
    return [Poly(math.perm(i, i - k) * columns[k][i] for k in range(i + 1))
            for i in range(len(d))]


def reversion(h: list[Fraction]) -> list[Fraction]:
    """g with h(g) = y, h[0] = 0 != h[1], by Lagrange inversion:
    g_m = [y^(m-1)] (y/h)^m / m, one more power of y/h per coefficient."""
    y_over_h = reciprocal([*h[1:], Fraction(0)])  # the padding never reaches g
    out, power = [Fraction(0)], [Fraction(1)] + [Fraction(0)] * (len(h) - 1)
    for m in range(1, len(h)):
        power = truncated_product(power, y_over_h)
        out.append(power[m - 1] / m)
    return out


def sheffer_arrays(l: list[Fraction], g: list[Fraction]) -> tuple[list[Poly], list[Poly]]:
    """The Sheffer array [1/l(g), g] and the Sheffer-Appell array
    [1/(l(g) l), g] of the pair whose h is g^-1."""
    d = reciprocal(composition(l, g))
    return riordan_rows(d, g), riordan_rows(truncated_product(d, reciprocal(l)), g)


def derived_rows(l: list[Fraction], h: list[Fraction]) -> dict:
    """g = h^-1 by reversion, and under each identity label the derivative
    vectors (a, b, c), k = 0..n-1, of its series, for a pair (l, h) of order
    n.  The series are built by the formulas the engine used before every
    composite became 1/l or l'/l composed with g or h: l, l' and h' are each
    composed with g or h, and the compositions inverted."""
    n, prod = len(l) - 1, truncated_product
    g, rl = reversion(h), reciprocal(l)
    pg, ph = powers(g), powers(h)  # a composite of length n reads them to y^(n-1)
    rl_g, rl_h = reciprocal(at_powers(l, pg)), reciprocal(at_powers(l, ph))
    lp, hp = derivative(l), derivative(h)
    lp_over_l = prod(lp, rl[:n])
    lp_over_l_of_g = prod(at_powers(lp, pg), rl_g[:n])
    hp_of_g = at_powers(hp, pg)
    a = reciprocal(hp)

    def neg(c):
        return [-x for x in c]

    recurrence = (a, neg(prod(at_powers(lp, ph), rl_h[:n])), neg(prod(lp_over_l, a)))
    series = {
        "2.1": [prod(h[:n], c) for c in recurrence],
        "3.1": recurrence,
        "3.2": (hp_of_g, neg(prod(hp_of_g, lp_over_l)), neg(lp_over_l_of_g)),
        "3.3": (
            reciprocal(hp_of_g),
            neg(lp_over_l),
            neg(prod(lp_over_l_of_g, reciprocal(hp_of_g))),
        ),
    }
    return {"g": g, **{k: [derivative_vector(c) for c in v] for k, v in series.items()}}


def matmul(a: list[list[Fraction]], b: list[list[Fraction]]) -> list[list[Fraction]]:
    """The product of two matrices, one Fraction at a time, skipping zero terms
    (so a product of lower triangular matrices costs its nonzero terms only)."""
    def dot(row, col):
        return sum((x * y for x, y in zip(row, col) if x and y), Fraction(0))

    columns = list(zip(*b))
    return [[dot(row, col) for col in columns] for row in a]


def near_misses_of_y(order: int) -> list[TruncatedSeries]:
    """Series one detail away from y: 2y, y/2 (row (2, [0, 1, 0, ...])),
    -y, and y + y^k for k = 2 and k = order."""
    def linear(c, k=None):
        coeffs = [0, c] + [0] * (order - 1)
        if k is not None:
            coeffs[k] += 1
        return TruncatedSeries(coeffs)

    misses = [linear(2), linear(Fraction(1, 2)), linear(-1)]
    return misses + [linear(1, k) for k in {2, order} if 2 <= k <= order]


def geometric_series(order: int) -> TruncatedSeries:
    """1/(1-y): every coefficient 1."""
    return TruncatedSeries([Fraction(1)] * (order + 1))


# Negative numerators, denominators up to 10^12, zeros, ones and a negative
# non-unit.
entries = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(-7, 3)]),
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
    st.fractions(min_value=-(10**9), max_value=10**9, max_denominator=10**12),
)
nonzero = entries.filter(bool)


def coefficients(order: int, constant=entries):
    """order + 1 coefficients, the first drawn from ``constant`` (a strategy
    or a fixed value); the rest dense, all zero, or one nonzero term."""
    if not isinstance(constant, st.SearchStrategy):
        constant = st.just(Fraction(constant))
    dense = st.lists(entries, min_size=order, max_size=order)
    zero = st.just([Fraction(0)] * order)
    single = st.tuples(st.integers(0, max(order - 1, 0)), nonzero).map(
        lambda t: [t[1] if k == t[0] else Fraction(0) for k in range(order)]
    )
    tail = st.one_of(dense, zero, single) if order else st.just([])
    return st.tuples(constant, tail).map(lambda t: [t[0], *t[1]])


# p/q with |p| <= 9 and 1 <= q <= 9
digit = st.builds(Fraction, st.integers(-9, 9), st.integers(min_value=1, max_value=9))
nonzero_digit = digit.filter(bool)


@st.composite
def pairs(draw, min_order: int, max_order: int, appell: bool = False):
    """(l, h) as coefficient lists at an order n from min_order to max_order,
    every coefficient a digit: l(0) nonzero, of either sign, and h = y if
    ``appell``, else h'(0) any nonzero digit (negative, unit and non-unit)."""
    n = draw(st.integers(min_value=min_order, max_value=max_order))
    l = [draw(nonzero_digit)] + draw(st.lists(digit, min_size=n, max_size=n))
    if appell:
        return l, [Fraction(0), Fraction(1)] + [Fraction(0)] * (n - 1)
    tail = draw(st.lists(digit, min_size=n - 1, max_size=n - 1))
    return l, [Fraction(0), draw(nonzero_digit), *tail]


def sheffer_pair(l: list[Fraction], h: list[Fraction]) -> ShefferPair:
    return ShefferPair(TruncatedSeries(l), TruncatedSeries(h))


def canonical(x: Poly | TruncatedSeries) -> bool:
    """One reduced integer row: D > 0, gcd(D, *numerators) = 1 and, for a
    ``Poly``, no trailing zero."""
    den, p = x.row
    if type(den) is not int or den <= 0 or any(type(c) is not int for c in p):
        return False
    if isinstance(x, Poly) and p and p[-1] == 0:
        return False
    return math.gcd(den, *p) == 1


def check_pair(l: list[Fraction], h: list[Fraction]) -> None:
    """The pair (l, h) of order >= 1 against the references: its g and the
    (a, b, c) rows read through the extractors at the largest degree they
    serve against ``derived_rows``, and its two arrays, each polynomial
    canonical, against ``sheffer_arrays`` of the reference g."""
    pair, want = sheffer_pair(l, h), derived_rows(l, h)
    arrays = [pair.sheffer_polys, pair.sheffer_appell_polys]
    assert all(canonical(p) for polys in arrays for p in polys)
    assert [list(polys) for polys in arrays] == list(sheffer_arrays(l, want["g"]))
    assert list(pair.g.coeffs) == want["g"]
    for label in LABELS:
        t = COEFF_EXTRACTORS[label](pair, pair.order - 1)
        assert [list(t.a), list(t.b), list(t.c)] == want[label], label
