"""Every row kernel against the plain-Fraction reference, orders 0..20.

``Poly`` and ``TruncatedSeries`` store one reduced integer row
``(D, numerators)``.  Each operation that works on rows is compared here
with its one-Fraction-at-a-time reference from ``plain_fractions`` on
coefficients with negative numerators, denominators up to 10^12, zero
series and delta series with h'(0) != 1, and every result is checked to
be in canonical form: D > 0, gcd(D, *numerators) = 1 and, for a ``Poly``,
no trailing zero.  A pair's arrays are compared with [d, g] built one column
d g^k at a time, with g = h^-1 by plain reversion; the pair's choice between
reading P[d] (h = y) and the production recurrence is also checked on fixed
inputs: h = y at orders 1..40 (P[d] alone from order 0), and the near misses
of y (``plain.near_misses_of_y``).
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sheffermat import (
    Poly,
    ShefferPair,
    TruncatedSeries,
    appell_sequence,
    wronskian_vector,
)
from sheffermat import pairs, series
from sheffermat.pairs import pascal_polys
from sheffermat.polynomials import derivative_combination
from sheffermat.rationals import format_rational

import plain_fractions as plain

entries = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(-7, 3)]),
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
    st.fractions(min_value=-(10**9), max_value=10**9, max_denominator=10**12),
)
nonzero = entries.filter(lambda q: q != 0)
orders = st.integers(min_value=0, max_value=20)


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


def delta(order: int):
    """A delta series' coefficients: h(0) = 0, h'(0) any nonzero rational."""
    tail = st.lists(entries, min_size=order - 1, max_size=order - 1)
    return st.tuples(nonzero, tail).map(lambda t: [Fraction(0), t[0], *t[1]])


def refuse_product(a, b):
    raise AssertionError("a series product ran")


def canonical(x) -> bool:
    den, p = x.row
    if type(den) is not int or den <= 0 or any(type(c) is not int for c in p):
        return False
    if isinstance(x, Poly) and p and p[-1] == 0:
        return False
    return math.gcd(den, *p) == 1


def same(series: TruncatedSeries, coeffs: list[Fraction]) -> bool:
    return canonical(series) and list(series.coeffs) == coeffs


@settings(max_examples=60, deadline=None)
@given(orders.flatmap(lambda n: st.tuples(coefficients(n), coefficients(n))), entries)
def test_series_ring_operations(operands, scalar):
    a, b = operands
    sa, sb = TruncatedSeries(a), TruncatedSeries(b)
    assert same(sa, a) and same(sb, b)
    assert same(sa * sb, plain.truncated_product(a, b))
    assert same(sa + sb, [x + y for x, y in zip(a, b)])
    assert same(-sa, [-x for x in a])
    assert same(sa * scalar, [x * scalar for x in a]) and scalar * sa == sa * scalar
    assert plain.series_sub(sa, sb) == sa + -sb
    dv = tuple(x * math.factorial(k) for k, x in enumerate(a))
    assert wronskian_vector(sa, sa.order).column_entries(0) == dv
    for k in range(len(a)):
        assert same(sa.truncate(k), a[: k + 1])
    if len(a) > 1:
        assert same(sa.derivative(), [x * k for k, x in enumerate(a)][1:])


@settings(max_examples=60, deadline=None)
@given(orders.flatmap(lambda n: coefficients(n, constant=nonzero)))
def test_reciprocal(c):
    assert same(TruncatedSeries(c).reciprocal(), plain.reciprocal(c))


@settings(max_examples=40, deadline=None)
@given(orders.flatmap(lambda n: st.tuples(coefficients(n), coefficients(n, 0))))
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


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(weights, weights, polys, st.integers(0, 6)), max_size=6),
    st.one_of(st.just(1), st.integers(2, 10**12)),
)
def test_derivative_combination(terms, dw):
    """Integer and Fraction weights over a common denominator dw: 1 as the
    audit passes them, or D > 1 as the identity residuals do."""
    got = derivative_combination(terms, dw)
    want = plain.add(*(
        plain.mul(Poly((Fraction(beta) / dw, Fraction(alpha) / dw)), q.derivative(k))
        * Fraction(1, math.factorial(k))
        for alpha, beta, q, k in terms
    ))
    assert canonical(got) and got == want


def same_arrays(l: list[Fraction], h: list[Fraction]) -> bool:
    """The pair's two arrays are canonical and equal [1/l(g), g] and
    [1/(l(g) l), g] built one column d g^k at a time, g = h^-1 by reversion."""
    pair = ShefferPair(TruncatedSeries(l), TruncatedSeries(h))
    g = plain.reversion(h)
    d = plain.reciprocal(plain.composition(l, g))
    want = [d, plain.truncated_product(d, plain.reciprocal(l))]
    got = [pair.sheffer_polys, pair.sheffer_appell_polys]
    return all(canonical(p) for polys in got for p in polys) and [
        list(polys) for polys in got
    ] == [plain.riordan_rows(d, g) for d in want]


@settings(max_examples=40, deadline=None)
@given(
    orders.filter(bool).flatmap(lambda n: st.tuples(coefficients(n, nonzero), delta(n)))
)
def test_riordan_and_appell_arrays(operands):
    l, h = operands
    assert same_arrays(l, h)
    r = plain.reciprocal(l)
    for i, p in enumerate(appell_sequence(TruncatedSeries(l), len(l) - 1)):
        want = [math.perm(i, i - k) * r[i - k] for k in range(i + 1)]
        assert canonical(p) and p == Poly(want)


def spread(order: int) -> list[Fraction]:
    """order + 1 coefficients with signs, zeros and unequal denominators, so
    that each truncation of the row has its own denominator."""
    return [Fraction((-1) ** k * ((k + 1) % 7), k % 5 + 1) for k in range(order + 1)]


def counted_recurrence_steps(monkeypatch) -> list:
    """The production-recurrence steps that build a pair's arrays, from now on."""
    calls, honest = [], pairs.derivative_combination

    def counted(*args, **kwargs):
        calls.append(args)
        return honest(*args, **kwargs)

    monkeypatch.setattr(pairs, "derivative_combination", counted)
    return calls


@pytest.mark.parametrize("order", range(41))
def test_riordan_array_with_g_y_is_read_off_d(monkeypatch, order):
    """[d, y] is P[d], read off d's row with no series product, at every order;
    an Appell pair (h = y) reads both arrays so, with no recurrence step."""
    calls = counted_recurrence_steps(monkeypatch)
    d, y = spread(order), [Fraction(k == 1) for k in range(order + 1)]
    with monkeypatch.context() as patch:
        patch.setattr(series, "_product", refuse_product)
        got = pascal_polys(TruncatedSeries(d))
    assert all(map(canonical, got)) and list(got) == plain.riordan_rows(d, y)
    if order:
        assert same_arrays(d, y)
    assert calls == []


@pytest.mark.parametrize("order", [1, 2, 9, 40])
def test_riordan_array_near_y_takes_the_general_path(monkeypatch, order):
    calls = counted_recurrence_steps(monkeypatch)
    for h in plain.near_misses_of_y(order):
        del calls[:]
        assert same_arrays(spread(order), list(h.coeffs)), h
        assert calls, h


def test_appell_sequence_of_an_order_zero_l():
    seq = appell_sequence(TruncatedSeries([Fraction(-3, 4)]), 0)
    assert list(seq) == [Poly([Fraction(-4, 3)])] and canonical(seq[0])


def test_constants_hash_like_their_scalars():
    assert hash(Poly([3])) == hash(3) and hash(Poly([])) == hash(0)
    assert hash(Poly([Fraction(-5, 2)])) == hash(Fraction(-5, 2))
    assert Poly([3]).row == (1, [3]) and Poly([0, 0]).row == (1, [])
