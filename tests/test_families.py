import math
from fractions import Fraction

import pytest

from sheffermat import (
    FAMILIES,
    ParameterError,
    TruncatedSeries,
    UnknownFamilyError,
    binomial_series,
    list_families,
    make_pair,
)


def test_catalog_contents():
    names = [spec.name for spec in list_families()]
    assert names == sorted(names)
    for required in (
        "monomial",
        "laguerre",
        "miller-lee",
        "hermite",
        "bernoulli",
        "euler",
        "exp-shift",
        "log-assoc",
    ):
        assert required in FAMILIES


def test_catalog_json_shape():
    spec = FAMILIES["laguerre"]
    payload = spec.to_json()
    assert payload["name"] == "laguerre"
    assert payload["params"] == [{"name": "lambda", "type": "rational"}]
    assert isinstance(payload["description"], str) and payload["description"]


def test_binomial_series_geometric():
    # alpha = -1 gives 1/(1-y): all coefficients 1
    assert binomial_series(Fraction(-1), 4) == TruncatedSeries([1, 1, 1, 1, 1])


def test_binomial_series_square():
    assert binomial_series(Fraction(-2), 3) == TruncatedSeries([1, 2, 3, 4])


def test_binomial_series_terminating():
    assert binomial_series(Fraction(2), 4) == TruncatedSeries([1, -2, 1, 0, 0])


def test_monomial_pair():
    pair = make_pair("monomial", 3)
    assert pair.l == TruncatedSeries([1], 3)
    assert pair.h == TruncatedSeries.identity(3)


def test_laguerre_pair_at_zero():
    pair = make_pair("laguerre", 4, {"lambda": 0})
    assert pair.l.coeffs == (1, 1, 1, 1, 1)
    assert pair.h.coeffs == (0, -1, -1, -1, -1)


def test_laguerre_pair_general():
    pair = make_pair("laguerre", 3, {"lambda": "5/2"})
    assert pair.l == binomial_series(Fraction(-7, 2), 3)
    assert pair.h.coeffs == (0, -1, -1, -1)


def test_miller_lee_pair():
    pair = make_pair("miller-lee", 3, {"m": 1})
    assert pair.l.coeffs == (1, -2, 1, 0)
    assert pair.h == TruncatedSeries.identity(3)


def test_hermite_pair():
    pair = make_pair("hermite", 4)
    assert pair.l.coeffs == (1, 0, Fraction(1, 2), 0, Fraction(1, 8))
    assert pair.h == TruncatedSeries.identity(4)


def test_bernoulli_pair():
    pair = make_pair("bernoulli", 3)
    assert pair.l.coeffs == (
        1,
        Fraction(1, 2),
        Fraction(1, 6),
        Fraction(1, 24),
    )


def test_euler_pair():
    pair = make_pair("euler", 3)
    assert pair.l.coeffs == (1, Fraction(1, 2), Fraction(1, 4), Fraction(1, 12))


def test_exp_shift_pair():
    pair = make_pair("exp-shift", 3)
    assert pair.l.coeffs == tuple(
        Fraction(1, math.factorial(k)) for k in range(4)
    )
    assert pair.h == TruncatedSeries.identity(3)


def test_log_assoc_pair():
    pair = make_pair("log-assoc", 3)
    assert pair.l == TruncatedSeries([1], 3)
    assert pair.h.coeffs == (0, 1, Fraction(1, 2), Fraction(1, 6))


def test_unknown_family():
    with pytest.raises(UnknownFamilyError) as info:
        make_pair("legendre", 4)
    assert "legendre" in str(info.value)
    assert "laguerre" in str(info.value)


def test_missing_parameter():
    with pytest.raises(ParameterError):
        make_pair("laguerre", 4)


def test_unexpected_parameter():
    with pytest.raises(ParameterError):
        make_pair("hermite", 4, {"lambda": 1})
    with pytest.raises(ParameterError):
        make_pair("laguerre", 4, {"lambda": 1, "m": 2})


@pytest.mark.parametrize("params", [{1: 2}, {None: 2}, {1: 2, "lambda": 3}])
def test_unknown_parameter_name_of_any_type_is_a_parameter_error(params):
    with pytest.raises(ParameterError, match="does not take parameter"):
        make_pair("hermite", 5, params)


def test_invalid_parameter_value():
    with pytest.raises(ParameterError):
        make_pair("laguerre", 4, {"lambda": "x"})


@pytest.mark.parametrize("value", [1.5, None, "1.5"])
def test_non_rational_parameter_is_a_parameter_error(value):
    with pytest.raises(ParameterError, match="parameter lambda="):
        make_pair("laguerre", 4, {"lambda": value})


def test_string_and_fraction_parameters_agree():
    via_str = make_pair("miller-lee", 4, {"m": "3"})
    via_int = make_pair("miller-lee", 4, {"m": 3})
    assert via_str == via_int


@pytest.mark.parametrize("name", sorted(FAMILIES))
@pytest.mark.parametrize("order", [1, 2, 5, 16, 32])
def test_every_family_builds_valid_pairs(name, order):
    params = {param: Fraction(1) for param in FAMILIES[name].params}
    pair = make_pair(name, order, params or None)
    assert pair.order == order
    assert pair.l.is_invertible
    assert pair.h.is_delta
