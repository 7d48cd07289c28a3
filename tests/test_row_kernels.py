"""Every row kernel against its plain-Fraction reference, once.

``Poly`` and ``TruncatedSeries`` store one reduced integer row
``(D, numerators)``.  Each operation that works on rows is compared here
with its one-Fraction-at-a-time reference from ``plain_fractions``, at
orders up to 40 (20 for the inverse and the arrays), on coefficients with negative numerators, denominators up to
10^12, zero series, one-term series and delta series with h'(0) != 1, and
every result is checked to be in canonical form: D > 0,
gcd(D, *numerators) = 1 and, for a ``Poly``, no trailing zero.  The series
product also takes y^k, c y^k and 1 - y in both argument orders; the
composition and exponential take inner series with no linear term; the
inverse is the plain Lagrange reversion.  A whole pair, its two arrays
among what it derives, goes through ``plain.check_pair``; the pair's choice
between reading P[d] (h = y) and the production recurrence is also checked
on fixed inputs: h = y at orders 1..40 (P[d] alone from order 0), and the
near misses of y (``plain.near_misses_of_y``).
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sheffermat import (
    Poly,
    TruncatedSeries,
    appell_sequence,
    wronskian_vector,
)
from sheffermat.pairs import pascal_polys
from sheffermat.polynomials import derivative_combination
from sheffermat.rationals import format_rational

from cost_counts import NO_WORK, counting
import plain_fractions as plain
from plain_fractions import canonical, check_pair, coefficients, entries, nonzero

orders = st.integers(min_value=0, max_value=40)


def delta(order: int):
    """A delta series' coefficients: h(0) = 0, h'(0) any nonzero rational."""
    tail = st.lists(entries, min_size=order - 1, max_size=order - 1)
    return st.tuples(nonzero, tail).map(lambda t: [Fraction(0), t[0], *t[1]])


def sparse(order: int):
    """y^k, c y^k (k = 0..order) or 1 - y: factors whose zeros the product
    skips when they outnumber the other factor's."""
    def at(k, c):
        return [Fraction(0)] * k + [Fraction(c)] + [Fraction(0)] * (order - k)

    power = st.integers(0, order).map(lambda k: at(k, 1))
    single = st.tuples(st.integers(0, order), nonzero).map(lambda t: at(*t))
    one_minus_y = [Fraction(1), Fraction(-1)][: order + 1] + [Fraction(0)] * (order - 1)
    return st.one_of(power, single, st.just(one_minus_y))


def inner(order: int):
    """g with g(0) = 0: ``coefficients(order, 0)``, a delta series, or, from
    order 2, one whose linear term is zero too (y^2, y^3 + y^5 truncated,
    or drawn)."""
    options = [coefficients(order, 0)]
    if order:
        options.append(delta(order))
    if order >= 2:
        fixed = ([0, 0, 1], [0, 0, 0, 1, 0, 1])
        options.append(st.sampled_from([
            [Fraction(c) for c in (cs + [0] * order)[: order + 1]] for cs in fixed
        ]))
        options.append(coefficients(order - 1, 0).map(lambda c: [Fraction(0), *c]))
    return st.one_of(options)


def same(series: TruncatedSeries, coeffs: list[Fraction]) -> bool:
    return canonical(series) and list(series.coeffs) == coeffs


def operand(order: int):
    return st.one_of(coefficients(order), sparse(order))


@settings(max_examples=80, deadline=None)
@given(orders.flatmap(lambda n: st.tuples(operand(n), operand(n))), entries)
def test_series_ring_operations(operands, scalar):
    a, b = operands
    sa, sb = TruncatedSeries(a), TruncatedSeries(b)
    assert same(sa, a) and same(sb, b)
    assert same(sa * sb, plain.truncated_product(a, b))
    assert same(sb * sa, plain.truncated_product(b, a))
    assert same(sa + sb, [x + y for x, y in zip(a, b)])
    assert same(-sa, [-x for x in a])
    assert same(sa * scalar, [x * scalar for x in a]) and scalar * sa == sa * scalar
    assert plain.series_sub(sa, sb) == sa + -sb
    dv = tuple(plain.derivative_vector(a))
    assert wronskian_vector(sa, sa.order).column_entries(0) == dv
    for k in range(len(a)):
        assert same(sa.truncate(k), a[: k + 1])
    if len(a) > 1:
        assert same(sa.derivative(), plain.derivative(a))


@settings(max_examples=60, deadline=None)
@given(orders.flatmap(lambda n: coefficients(n, constant=nonzero)))
def test_reciprocal(c):
    assert same(TruncatedSeries(c).reciprocal(), plain.reciprocal(c))


@settings(max_examples=60, deadline=None)
@given(orders.flatmap(lambda n: st.tuples(coefficients(n), inner(n))))
def test_compose_and_exp(operands):
    f, g = operands
    sf, sg = TruncatedSeries(f), TruncatedSeries(g)
    assert same(sf.compose(sg), plain.composition(f, g))
    assert same(sg.exp(), plain.exponential(g))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=20).flatmap(delta))
def test_compositional_inverse(h):
    g = TruncatedSeries(h).compositional_inverse()
    y = [Fraction(0), Fraction(1)] + [Fraction(0)] * (len(h) - 2)
    assert canonical(g) and g.is_delta
    assert list(g.coeffs) == plain.reversion(h)
    assert plain.composition(h, list(g.coeffs)) == y
    assert plain.composition(list(g.coeffs), h) == y


polys = st.integers(0, 20).flatmap(lambda n: coefficients(n)).map(Poly)


@settings(max_examples=60, deadline=None)
@given(polys, entries, st.integers(0, 4))
def test_poly_operations(p, scalar, k):
    assert canonical(p) and p == Poly(p.coeffs) and hash(p) == hash(Poly(p.coeffs))
    assert p.to_strings() == [format_rational(c) for c in p.coeffs]
    derivative = [math.perm(i, k) * c for i, c in enumerate(p.coeffs)][k:]
    for result, want in (
        (p * scalar, plain.mul(p, scalar)),
        (p.derivative(k), Poly(derivative)),
    ):
        assert canonical(result) and result.coeffs == want.coeffs
    if not p.is_zero:
        assert p.coeffs[-1] == p.coeff(len(p) - 1)


weights = st.one_of(st.integers(-(10**12), 10**12), entries)


@st.composite
def combination_terms(draw):
    """Up to 16 terms (alpha, beta, q, k), k <= 15, each q one of up to four
    drawn polynomials, so that some terms share a q by identity."""
    pool = draw(st.lists(polys, min_size=1, max_size=4))
    term = st.tuples(weights, weights, st.sampled_from(pool), st.integers(0, 15))
    return draw(st.lists(term, max_size=16))


@settings(max_examples=100, deadline=None)
@given(combination_terms(), st.one_of(st.just(1), st.integers(2, 10**12)))
def test_derivative_combination(terms, dw):
    """Integer and Fraction weights over a common denominator dw: 1 as the
    audit passes them, or D > 1 as the identity residuals do."""
    got = derivative_combination(terms, dw)
    assert canonical(got) and got == plain.combination(terms, dw)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 20).flatmap(lambda n: st.tuples(coefficients(n, nonzero), delta(n)))
)
@example(tuple(
    list(map(Fraction, cs))
    for cs in (["3/2", -1, "1/7", 0, 2, "-5/3"], [0, "2/3", 0, 1, "1/4", -3])
))
def test_riordan_and_appell_arrays(operands):
    l, h = operands
    check_pair(l, h)
    r = plain.reciprocal(l)
    for i, p in enumerate(appell_sequence(TruncatedSeries(l), len(l) - 1)):
        want = [math.perm(i, i - k) * r[i - k] for k in range(i + 1)]
        assert canonical(p) and p == Poly(want)


def spread(order: int) -> list[Fraction]:
    """order + 1 coefficients with signs, zeros and unequal denominators, so
    that each truncation of the row has its own denominator."""
    return [Fraction((-1) ** k * ((k + 1) % 7), k % 5 + 1) for k in range(order + 1)]


def array_work(l: list[Fraction], h: list[Fraction]) -> dict:
    """The kernels' work in building both arrays of the pair (l, h)."""
    pair = plain.sheffer_pair(l, h)
    with counting() as counts:
        pair.sheffer_polys, pair.sheffer_appell_polys
    return counts


@pytest.mark.parametrize("order", range(41))
def test_riordan_array_with_g_y_is_read_off_d(order):
    """[d, y] is P[d], read off d's row with no work in either kernel, at
    every order; an Appell pair (h = y) reads both arrays so, with no
    recurrence step (no row combination)."""
    d, y = spread(order), [Fraction(k == 1) for k in range(order + 1)]
    with counting() as counts:
        got = pascal_polys(TruncatedSeries(d))
    assert counts == NO_WORK
    assert all(map(canonical, got)) and list(got) == plain.riordan_rows(d, y)
    if order:
        assert array_work(d, y)["combine"] == [0, 0]
        check_pair(d, y)


@pytest.mark.parametrize("order", [1, 2, 9, 40])
def test_riordan_array_near_y_takes_the_general_path(order):
    for h in plain.near_misses_of_y(order):
        assert array_work(spread(order), list(h.coeffs))["combine"][0], h
        check_pair(spread(order), list(h.coeffs))


def test_appell_sequence_of_an_order_zero_l():
    seq = appell_sequence(TruncatedSeries([Fraction(-3, 4)]), 0)
    assert list(seq) == [Poly([Fraction(-4, 3)])] and canonical(seq[0])


def test_constants_hash_like_their_scalars():
    assert hash(Poly([3])) == hash(3) and hash(Poly([])) == hash(0)
    assert hash(Poly([Fraction(-5, 2)])) == hash(Fraction(-5, 2))
    assert Poly([3]).row == (1, [3]) and Poly([0, 0]).row == (1, [])
