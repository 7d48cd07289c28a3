from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sheffermat import Poly, format_rational, parse_rational, rat
from sheffermat.rationals import common_denominator


def test_parse_plain_integer():
    assert parse_rational("2") == Fraction(2)
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational("0") == Fraction(0)


def test_parse_fraction():
    assert parse_rational("1/2") == Fraction(1, 2)
    assert parse_rational("-1/3") == Fraction(-1, 3)
    assert parse_rational("4/6") == Fraction(2, 3)


@pytest.mark.parametrize("bad", ["", "1.5", "1/-2", "a", "1 / 2", "--3", "1/"])
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
    "bad", [1.5, None, Poly.x()], ids=["float", "None", "Poly"]
)
def test_rat_rejects_non_rationals(bad):
    with pytest.raises(TypeError, match="not a rational"):
        rat(bad)


def test_common_denominator():
    values = [Fraction(1, 4), Fraction(-5, 6), Fraction(3)]
    assert common_denominator(values) == (12, [3, -10, 36])
    assert common_denominator([]) == (1, [])


@given(st.fractions(max_denominator=1000))
def test_round_trip_is_bit_exact(q):
    assert parse_rational(format_rational(q)) == q
