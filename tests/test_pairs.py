from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sheffermat import (
    ContractError,
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



# -- the leading-coefficient contract, on the integer rows ---------------------

rational = st.fractions(min_value=-9, max_value=9, max_denominator=9)
# h'(0) = p/q: negative and non-unit slopes are drawn on purpose
slope = st.sampled_from([Fraction(-2, 3), Fraction(-7, 2), Fraction(5, 3)])
scale = st.sampled_from([1, 1, 1, 1, 2, -1, Fraction(1, 3), 0])


def fraction_contract(pair, polys, power):
    """The contract by the Fraction formula: degree k leads with
    1 / (l(0)^power h'(0)^k), and a zero polynomial has no lead."""
    lead = 1 / pair.l.coeffs[0] ** power
    for p in polys:
        if p.is_zero or p.coeffs[-1] != lead:
            return False
        lead /= pair.h.coeffs[1]
    return True


def integer_contract(pair, polys, power):
    try:
        return pair._checked("array", polys, power) is polys
    except ContractError:
        return False


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_integer_leading_coefficient_contract_matches_the_fraction_formula(data):
    n = data.draw(st.integers(1, 6), label="order")
    l0 = data.draw(rational.filter(bool), label="l(0)")
    h1 = data.draw(slope | rational.filter(bool), label="h'(0)")
    tail = st.lists(rational, min_size=n + 1, max_size=n + 1)
    l = TruncatedSeries([l0] + data.draw(tail)[1:])
    h = TruncatedSeries([0, h1] + data.draw(tail)[2:])
    pair = ShefferPair(l, h)
    for power, polys in ((1, pair.sheffer_polys), (2, pair.sheffer_appell_polys)):
        assert fraction_contract(pair, polys, power)
        scales = data.draw(st.lists(scale, min_size=n + 1, max_size=n + 1))
        scaled = tuple(p * s for p, s in zip(polys, scales))
        want = fraction_contract(pair, scaled, power)
        assert integer_contract(pair, scaled, power) is want
        assert want is all(s == 1 for s in scales)


@pytest.mark.parametrize("h1", [Fraction(-2, 3), Fraction(-7, 2), Fraction(5, 3)])
def test_leading_coefficients_follow_a_non_unit_slope(h1):
    pair = ShefferPair(TruncatedSeries([3, 1, -2, 5]), TruncatedSeries([0, h1, 1, 2]))
    for power, polys in ((1, pair.sheffer_polys), (2, pair.sheffer_appell_polys)):
        leads = [p.coeffs[-1] for p in polys]
        assert leads == [1 / (Fraction(3) ** power * h1**k) for k in range(4)]
        assert not integer_contract(pair, polys[:-1] + (polys[-1] * h1,), power)
