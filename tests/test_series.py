"""``TruncatedSeries`` beyond its values: construction, the refusals of each
operation, the one inversion, composition's chunk boundaries and the fast
paths on y.

The value of every operation (``*``, ``+``, the derivative, ``reciprocal``,
``compose``, ``exp`` and ``compositional_inverse``) is compared with its
plain-Fraction reference in one property test of ``test_row_kernels``.
"""

import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sheffermat import (
    ContractError,
    InsufficientOrderError,
    NotDeltaSeriesError,
    NotInvertibleError,
    OrderMismatchError,
    Poly,
    ShefferPair,
    TruncatedSeries,
    make_pair,
)

from cost_counts import NO_WORK, counting
import plain_fractions as plain

# -- construction & basics -------------------------------------------------


def test_order_and_padding():
    s = TruncatedSeries([1, 2], order=4)
    assert s.order == 4
    assert s.coeffs == (Fraction(1), Fraction(2), 0, 0, 0)
    with pytest.raises(ValueError, match="at least a constant term"):
        TruncatedSeries([])
    with pytest.raises(ValueError, match="3 coefficients exceed order 1"):
        TruncatedSeries([1, 2, 3], order=1)


@pytest.mark.parametrize(
    "method, operation",
    [("__add__", operator.add), ("__mul__", operator.mul), ("__eq__", operator.eq)],
)
def test_foreign_operand_is_not_implemented(method, operation):
    s = TruncatedSeries([1, 2])
    assert getattr(s, method)("x") is NotImplemented
    if operation is operator.eq:
        assert operation(s, "x") is False
    else:
        with pytest.raises(TypeError):
            operation(s, "x")


def test_constant_and_identity():
    assert TruncatedSeries([3], 2).coeffs == (3, 0, 0)
    assert TruncatedSeries.identity(3).coeffs == (0, 1, 0, 0)
    with pytest.raises(ValueError):
        TruncatedSeries.identity(0)


def test_delta_and_invertible_predicates():
    assert TruncatedSeries([0, 2, 5]).is_delta
    assert not TruncatedSeries([0, 0, 1]).is_delta
    assert not TruncatedSeries([1, 1]).is_delta
    assert TruncatedSeries([3, 0]).is_invertible
    assert not TruncatedSeries([0, 1]).is_invertible


def test_non_rational_coefficients_rejected():
    with pytest.raises(TypeError, match="not a rational"):
        TruncatedSeries([Fraction(1), Poly((0, 1))])
    with pytest.raises(TypeError, match="not a rational"):
        TruncatedSeries(["0", ["0", "1"]])


# -- each operation refuses what it cannot take ------------------------------


def test_truncate_shrinks_only():
    s = plain.geometric_series(4)
    assert s.truncate(2) == plain.geometric_series(2)
    with pytest.raises(InsufficientOrderError):
        s.truncate(7)


def test_addition_requires_equal_orders():
    with pytest.raises(OrderMismatchError):
        TruncatedSeries([1, 1]) + TruncatedSeries([1, 1, 1])


def test_derivative_requires_positive_order():
    with pytest.raises(ValueError):
        TruncatedSeries([5]).derivative()


def test_reciprocal_needs_nonzero_constant():
    with pytest.raises(NotInvertibleError):
        TruncatedSeries([0, 1]).reciprocal()


def test_compose_requires_delta_inner():
    with pytest.raises(NotDeltaSeriesError):
        plain.geometric_series(3).compose(TruncatedSeries([1, 1, 0, 0]))
    with pytest.raises(TypeError, match="compose expects a TruncatedSeries"):
        plain.geometric_series(3).compose(Poly((0, 1)))


def test_inverse_requires_delta():
    with pytest.raises(NotDeltaSeriesError):
        TruncatedSeries([1, 1]).compositional_inverse()


def test_exp_needs_zero_constant_term():
    with pytest.raises(ValueError):
        TruncatedSeries([1, 1]).exp()


# -- compositional inverse ----------------------------------------------------


def test_inverse_is_the_g_of_the_associated_pair():
    """One inversion in the package: h^-1 is the g of the pair (1, h), read
    off its Sheffer-Appell array, equal to the plain-Fraction Lagrange
    reversion; y is its own inverse, and a series that is not a delta series
    has none."""
    dense = TruncatedSeries(
        [0, Fraction(-3, 2)] + [Fraction((-1) ** k * k, k + 3) for k in range(2, 16)]
    )
    hs = (make_pair("laguerre", 15, {"lambda": Fraction(5, 2)}).h,
          make_pair("log-assoc", 15).h, dense)
    for h in hs:
        assert list(h.compositional_inverse().coeffs) == plain.reversion(h.coeffs)
    y = TruncatedSeries.identity(15)
    assert y.compositional_inverse() == y
    for coeffs in ([1, 1], [0], [0, 0, 1]):
        with pytest.raises(NotDeltaSeriesError):
            TruncatedSeries(coeffs).compositional_inverse()


def test_inverse_off_a_broken_array_is_a_contract_error(monkeypatch):
    """x added to degree 2 of the array moves g_2 and keeps every leading
    coefficient, so only the check h(g) = y can refuse it."""
    honest = ShefferPair._array

    def broken(self, power):
        polys = list(honest(self, power))
        polys[2] = plain.add(polys[2], plain.monomial(1))
        return tuple(polys)

    monkeypatch.setattr(ShefferPair, "_array", broken)
    h = TruncatedSeries([0, Fraction(-3, 2), 1, Fraction(2, 5), -4])
    with pytest.raises(ContractError, match="h\\(g\\) = y"):
        h.compositional_inverse()


# -- Paterson-Stockmeyer composition and fixed-factor loops -------------------


def composition(f, g):
    """f(g) by the plain-Fraction composition."""
    return TruncatedSeries(plain.composition(list(f.coeffs), list(g.coeffs)))


@pytest.mark.parametrize("order", [1, 2, 3, 4, 8, 10, 15])
def test_compose_chunk_boundaries(order):
    # m = 1 at orders 1-2; at order 10 (m = 3) the last chunk holds 2 of 11
    f = TruncatedSeries([Fraction(k + 1, 3 - k % 3) for k in range(order + 1)])
    tail = [Fraction(1, k) for k in range(2, order + 1)]
    g = TruncatedSeries([0, Fraction(-2, 5), *tail])
    assert f.compose(g) == composition(f, g)
    assert f.compose(TruncatedSeries.identity(order)) == f


def test_compose_with_all_zero_chunks():
    # order 8 gives m = 3: chunks y^0..y^2, y^3..y^5 (zero), y^6..y^8 (zero)
    f = TruncatedSeries([2, Fraction(-1, 3), 5], order=8)
    g = TruncatedSeries([0, 1, Fraction(1, 2), 0, 0, 3, 0, 0, 1])
    assert f.compose(g) == composition(f, g)
    middle = TruncatedSeries([1, 0, 0, 0, 0, 0, Fraction(7, 2), 0, 1])
    assert middle.compose(g) == composition(middle, g)
    zero = TruncatedSeries([0], 8)
    assert zero.compose(g) == zero


# -- y: composing with it and inverting it return at once ---------------------


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=40).flatmap(plain.coefficients).map(TruncatedSeries)
)
def test_compose_with_y_and_inverse_of_y_run_no_product(f):
    """f(y) = f against the plain composition, and y^-1 = y, with no work in
    either arithmetic kernel."""
    y = TruncatedSeries.identity(f.order)
    want = plain.composition(list(f.coeffs), list(y.coeffs))
    with counting() as counts:
        composed, inverse = f.compose(y), y.compositional_inverse()
    assert counts == NO_WORK
    assert list(composed.coeffs) == want
    assert inverse == y


def test_y_at_order_one_runs_no_product():
    """The shortest row of y, (1, [0, 1]): no zero padding to compare."""
    y, f = TruncatedSeries([0, 1]), TruncatedSeries([Fraction(-7, 3), 5])
    with counting() as counts:
        assert f.compose(y) == f
        assert y.compositional_inverse() == y
        assert TruncatedSeries([0, 1]).exp() == TruncatedSeries([1, 1])
    assert counts == NO_WORK


@pytest.mark.parametrize("order", [1, 2, 9, 40])
def test_near_misses_of_y_take_the_general_path(order):
    f = TruncatedSeries([Fraction(k + 1, 3 - k % 3) for k in range(order + 1)])
    y = [Fraction(0), Fraction(1)] + [Fraction(0)] * (order - 1)
    for inner in plain.near_misses_of_y(order):
        with counting() as counts:
            composed = f.compose(inner)
        assert counts["product"][0], inner
        assert list(composed.coeffs) == plain.composition(
            list(f.coeffs), list(inner.coeffs)
        )
        with counting() as counts:
            inverse = inner.compositional_inverse()
        assert counts["product"][0], inner
        assert plain.composition(list(inner.coeffs), list(inverse.coeffs)) == y


def test_compose_and_inverse_call_no_common_denominator(monkeypatch):
    from sheffermat import series

    f = TruncatedSeries([Fraction(k + 2, k + 1) for k in range(31)])
    g = TruncatedSeries([0, Fraction(2, 3)] + [Fraction(1, k * k) for k in range(2, 31)])
    h = TruncatedSeries([0, 1] + [Fraction(1, math.factorial(k)) for k in range(2, 31)])
    inverse = TruncatedSeries(plain.reversion(h.coeffs))
    want = composition(f, g), inverse, TruncatedSeries(plain.exponential(h.coeffs))
    scaled = []
    honest = series.common_denominator

    def counted(values):
        scaled.append(tuple(values))
        return honest(values)

    monkeypatch.setattr(series, "common_denominator", counted)
    assert f.compose(g) == want[0]
    assert h.compositional_inverse() == want[1]
    assert h.exp() == want[2]
    assert scaled == []
