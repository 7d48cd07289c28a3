import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sheffermat import Poly, format_rational, parse_rational, rat
from sheffermat.rationals import combine_row, common_denominator, format_row, reduce_row

import plain_fractions as plain


def test_parse_plain_integer():
    assert parse_rational("2") == Fraction(2)
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational("0") == Fraction(0)


def test_parse_fraction():
    assert parse_rational("1/2") == Fraction(1, 2)
    assert parse_rational("-1/3") == Fraction(-1, 3)
    assert parse_rational("4/6") == Fraction(2, 3)


@pytest.mark.parametrize(
    "bad", ["", "1.5", "1/-2", "a", "1 / 2", "--3", "1/", "3\n", "1/2\n", "\u0663"]
)
def test_parse_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_parse_rejects_zero_denominator():
    with pytest.raises(ValueError):
        parse_rational("3/0")


def test_format_uses_short_form_for_integers():
    assert format_rational(Fraction(5)) == "5"
    assert format_rational(Fraction(-2, 1)) == "-2"
    assert format_rational(Fraction(1, 2)) == "1/2"
    assert format_rational(Fraction(-3, 4)) == "-3/4"


def test_rat_coerces_int_str_fraction():
    assert rat(3) == Fraction(3)
    assert rat("2/4") == Fraction(1, 2)
    assert rat(Fraction(1, 3)) == Fraction(1, 3)


@pytest.mark.parametrize(
    "bad", [1.5, None, Poly((0, 1))], ids=["float", "None", "Poly"]
)
def test_rat_rejects_non_rationals(bad):
    with pytest.raises(TypeError, match="not a rational"):
        rat(bad)


def test_common_denominator():
    values = [Fraction(1, 4), Fraction(-5, 6), Fraction(3)]
    assert common_denominator(values) == (12, [3, -10, 36])
    assert common_denominator([]) == (1, [])


small = st.fractions(min_value=-20, max_value=20, max_denominator=12)
weight = st.one_of(st.just(0), st.integers(-6, 6), small)


@st.composite
def weighted_rows(draw):
    count = draw(st.integers(0, 6))
    weights = draw(st.lists(weight, min_size=count, max_size=count))
    rows = draw(
        st.lists(st.lists(small, max_size=7), min_size=count, max_size=count)
    )
    return weights, rows


@given(weighted_rows())
def test_combine_row_is_the_fraction_sum_and_reduces_to_one_form(case):
    weights, rows = case
    dw, numerators = common_denominator(weights)
    den, out = combine_row(dw, numerators, [common_denominator(r) for r in rows])
    expected = plain.weighted_sum(weights, rows)
    assert [Fraction(c, den) for c in out] == expected
    reduced_den, reduced = reduce_row(den, out)
    assert math.gcd(reduced_den, *reduced) == 1
    assert (reduced_den, reduced) == common_denominator(expected)


def test_combine_edge_cases():
    assert combine_row(1, [], []) == (1, [])
    rows = [common_denominator([Fraction(1, 3), 2]), common_denominator([5])]
    assert combine_row(1, [0, 0], rows) == (1, [0, 0])
    # (3/4) (1/3, 2) = (3/12, 18/12) = (1/4, 3/2)
    assert combine_row(4, [3], rows[:1]) == (12, [3, 18])
    # (1/3, 2) - (5, 0) = (-14/3, 6/3)
    assert combine_row(1, [1, -1], rows) == (3, [-14, 6])


def test_combine_skips_zero_weight_rows():
    class Untouchable(list):
        def __iter__(self):
            raise AssertionError("a zero-weight row was read")

    rows = [(7, Untouchable([1, 2])), common_denominator([Fraction(1, 2)])]
    assert combine_row(1, [0, 4], rows) == (2, [4, 0])


def test_combine_needs_one_weight_per_row():
    with pytest.raises(ValueError):
        combine_row(1, [1], [])


@given(
    st.integers(1, 10**30),
    st.lists(st.integers(-(10**40), 10**40) | st.sampled_from([0, 1, -1]), max_size=8),
)
def test_format_row_writes_each_entry_as_its_fraction(den, numerators):
    expected = [format_rational(Fraction(c, den)) for c in numerators]
    assert format_row(den, numerators) == expected


@given(st.fractions(max_denominator=1000))
def test_round_trip_is_bit_exact(q):
    assert parse_rational(format_rational(q)) == q
