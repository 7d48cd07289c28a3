from fractions import Fraction

import pytest

from sheffermat import (
    NotDeltaSeriesError,
    NotInvertibleError,
    OrderMismatchError,
    Poly,
    ShefferPair,
    TruncatedSeries,
)


def test_valid_pair():
    l = TruncatedSeries([1, 1, 1])
    h = TruncatedSeries([0, -1, -1])
    pair = ShefferPair(l, h)
    assert pair.order == 2
    assert pair.l is l and pair.h is h


def test_order_mismatch():
    with pytest.raises(OrderMismatchError):
        ShefferPair(TruncatedSeries([1, 0]), TruncatedSeries([0, 1, 0]))


def test_l_must_be_invertible():
    with pytest.raises(NotInvertibleError):
        ShefferPair(TruncatedSeries([0, 1]), TruncatedSeries([0, 1]))


def test_h_must_be_delta():
    with pytest.raises(NotDeltaSeriesError):
        ShefferPair(TruncatedSeries([1, 0]), TruncatedSeries([1, 1]))
    with pytest.raises(NotDeltaSeriesError):
        ShefferPair(TruncatedSeries([1, 0]), TruncatedSeries([0, 0]))


def test_polynomial_coefficients_rejected():
    with pytest.raises(TypeError):
        ShefferPair(
            TruncatedSeries([Poly((1,)), Poly((0, 1))]), TruncatedSeries([0, 1])
        )


def test_h_inverse_round_trip():
    h = TruncatedSeries([0, 1, 1, 1, 1])
    pair = ShefferPair.associated(h)
    g = pair.g
    assert h.compose(g) == TruncatedSeries.identity(4)


def test_appell_constructor():
    l = TruncatedSeries([1, Fraction(1, 2), Fraction(1, 6)])
    pair = ShefferPair.appell(l)
    assert pair.h == TruncatedSeries.identity(2)


def test_associated_constructor():
    h = TruncatedSeries([0, 2, 1])
    pair = ShefferPair.associated(h)
    assert pair.l == TruncatedSeries([1], 2)


def test_pairs_hash_and_compare():
    a = ShefferPair(TruncatedSeries([1, 1]), TruncatedSeries([0, 1]))
    b = ShefferPair(TruncatedSeries([1, 1]), TruncatedSeries([0, 1]))
    assert a == b and hash(a) == hash(b)
