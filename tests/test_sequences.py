import math
from fractions import Fraction

import pytest

from sheffermat import (
    InsufficientOrderError,
    NotInvertibleError,
    Poly,
    PolySequence,
    TruncatedSeries,
    appell_sequence,
    make_pair,
    sheffer_appell_sequence,
    sheffer_sequence,
    wronskian_vector,
)

from plain_fractions import add, monomial, power


def test_polysequence_validates_kind_and_degrees():
    PolySequence("sheffer", (Poly((1,)), Poly((0, 1))))
    with pytest.raises(ValueError):
        PolySequence("legendre", (Poly((1,)),))
    with pytest.raises(ValueError):
        PolySequence("sheffer", (Poly((1,)), Poly((1,))))


def test_polysequence_container_protocol():
    seq = PolySequence("appell", (Poly((1,)), Poly((0, 1))))
    assert len(seq) == 2
    assert seq[1] == Poly((0, 1))
    assert list(seq) == [Poly((1,)), Poly((0, 1))]


def test_appell_sequence_function():
    l = TruncatedSeries([1, 1, Fraction(1, 2), Fraction(1, 6)])
    seq = appell_sequence(l, 3)
    assert seq.kind == "appell"
    for k in range(4):
        assert seq[k] == power(Poly((-1, 1)), k)


def test_appell_sequence_rejects_non_invertible():
    with pytest.raises(NotInvertibleError):
        appell_sequence(TruncatedSeries([0, 1, 0]), 2)


def test_appell_pair_reductions():
    # For an Appell pair (l, y): sheffer == appell of l, and the
    # double-denominator variant == appell of l^2.
    pair = make_pair("hermite", 6)
    assert list(sheffer_sequence(pair, 6)) == list(appell_sequence(pair.l, 6))
    assert list(sheffer_appell_sequence(pair, 6)) == list(
        appell_sequence(pair.l * pair.l, 6)
    )


def test_appell_derivative_property():
    pair = make_pair("bernoulli", 8)
    seq = sheffer_appell_sequence(pair, 8)
    for n in range(1, 9):
        assert seq[n].derivative() == n * seq[n - 1]


def test_degree_bounds_checked():
    pair = make_pair("monomial", 3)
    with pytest.raises(InsufficientOrderError):
        sheffer_appell_sequence(pair, 4)
    with pytest.raises(ValueError):
        sheffer_sequence(pair, -1)


def test_laguerre_sheffer_appell_is_free_of_lambda():
    # g = h = y/(y - 1) and l(g) l = 1, so every lambda gives the l = 1 Sheffer sequence
    expected = list(sheffer_sequence(make_pair("laguerre", 20, {"lambda": -1}), 20))
    for lam in (0, Fraction(5, 2), Fraction(-1, 3), 7, -2):
        pair = make_pair("laguerre", 20, {"lambda": lam})
        assert list(sheffer_appell_sequence(pair, 20)) == expected


# -- binomial convolution ----------------------------------------------------


def fraction_convolution(kernel, s):
    """result_n = sum_k C(n, k) kernel[k] s[n-k], in plain Fraction arithmetic."""
    polys = tuple(
        add(*(math.comb(n, k) * kernel[k] * s[n - k] for k in range(n + 1)))
        for n in range(len(s))
    )
    return PolySequence(s.kind, polys)


def test_exp_kernel_shifts_powers():
    l = TruncatedSeries(
        [1, 1, Fraction(1, 2), Fraction(1, 6), Fraction(1, 24)]
    )
    kernel = wronskian_vector(l.reciprocal(), 4).column_entries(0)
    assert kernel == (1, -1, 1, -1, 1)
    powers = PolySequence("sheffer", tuple(monomial(k) for k in range(5)))
    shifted = fraction_convolution(kernel, powers)
    assert list(shifted) == [power(Poly((-1, 1)), k) for k in range(5)]


def test_leading_coefficients():
    pair = make_pair("laguerre", 6, {"lambda": Fraction(5, 2)})
    appellish = sheffer_appell_sequence(pair, 6)
    plain = sheffer_sequence(pair, 6)
    for k in range(7):
        assert appellish[k].degree == k
        assert appellish[k].coeffs[-1] == Fraction(-1) ** k
        assert plain[k].coeffs[-1] == Fraction(-1) ** k


def test_shared_pair_object_reuses_expansion():
    pair = make_pair("euler", 10)
    first = sheffer_appell_sequence(pair, 10)
    second = sheffer_appell_sequence(pair, 7)
    assert list(second) == list(first)[:8]
