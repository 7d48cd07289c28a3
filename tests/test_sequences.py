import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sheffermat import (
    InsufficientOrderError,
    NotInvertibleError,
    Poly,
    PolySequence,
    TruncatedSeries,
    appell_kernel,
    appell_sequence,
    discrete_convolution,
    make_pair,
    sheffer_appell_sequence,
    sheffer_sequence,
)
from sheffermat import polynomials, rationals
from sheffermat.polynomials import derivative_combination


def test_polysequence_validates_kind_and_degrees():
    PolySequence("sheffer", (Poly.one(), Poly.x()))
    with pytest.raises(ValueError):
        PolySequence("legendre", (Poly.one(),))
    with pytest.raises(ValueError):
        PolySequence("sheffer", (Poly.one(), Poly.one()))


def test_polysequence_container_protocol():
    seq = PolySequence("appell", (Poly.one(), Poly.x()))
    assert seq.top_degree == 1
    assert len(seq) == 2
    assert seq[1] == Poly.x()
    assert list(seq) == [Poly.one(), Poly.x()]


def test_monomial_pair_gives_powers():
    pair = make_pair("monomial", 5)
    for seq in (sheffer_appell_sequence(pair, 5), sheffer_sequence(pair, 5)):
        assert list(seq) == [Poly.monomial(k) for k in range(6)]


def test_laguerre_sheffer_appell_start():
    pair = make_pair("laguerre", 4, {"lambda": 0})
    seq = sheffer_appell_sequence(pair, 3)
    assert seq[0] == Poly.one()
    assert seq[1] == Poly((0, -1))
    assert seq[2] == Poly((0, -2, 1))
    assert seq[3] == Poly((0, -6, 6, -1))


def test_laguerre_sheffer_start():
    pair = make_pair("laguerre", 4, {"lambda": 0})
    seq = sheffer_sequence(pair, 2)
    assert seq[1] == Poly((1, -1))
    assert seq[2] == Poly((2, -4, 1))


def test_miller_lee_appell_start():
    pair = make_pair("miller-lee", 4, {"m": 0})
    seq = sheffer_appell_sequence(pair, 3)
    assert seq[1] == Poly((2, 1))
    assert seq[2] == Poly((6, 4, 1))
    assert seq[3] == Poly((24, 18, 6, 1))


def test_exp_shift_sequences_are_shifted_powers():
    pair = make_pair("exp-shift", 6)
    appellish = sheffer_appell_sequence(pair, 6)
    plain = sheffer_sequence(pair, 6)
    for k in range(7):
        assert appellish[k] == Poly((-2, 1)) ** k
        assert plain[k] == Poly((-1, 1)) ** k


def test_hermite_and_bernoulli_values():
    hermite = sheffer_sequence(make_pair("hermite", 4), 3)
    assert hermite[2] == Poly((-1, 0, 1))
    assert hermite[3] == Poly((0, -3, 0, 1))
    bernoulli = sheffer_sequence(make_pair("bernoulli", 4), 2)
    assert bernoulli[1] == Poly((Fraction(-1, 2), 1))
    assert bernoulli[2] == Poly((Fraction(1, 6), -1, 1))


def test_appell_sequence_function():
    l = TruncatedSeries([1, 1, Fraction(1, 2), Fraction(1, 6)])
    seq = appell_sequence(l, 3)
    assert seq.kind == "appell"
    for k in range(4):
        assert seq[k] == Poly((-1, 1)) ** k


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


def test_truncation_stability():
    low = make_pair("laguerre", 5, {"lambda": 1})
    high = make_pair("laguerre", 11, {"lambda": 1})
    assert list(sheffer_appell_sequence(low, 5)) == list(
        sheffer_appell_sequence(high, 5)
    )


# -- binomial convolution ----------------------------------------------------


def test_identity_kernel_is_noop():
    pair = make_pair("laguerre", 5, {"lambda": 0})
    seq = sheffer_sequence(pair, 5)
    kernel = (Fraction(1),) + (Fraction(0),) * 5
    assert list(discrete_convolution(kernel, seq)) == list(seq)


def test_exp_kernel_shifts_powers():
    l = TruncatedSeries(
        [1, 1, Fraction(1, 2), Fraction(1, 6), Fraction(1, 24)]
    )
    kernel = appell_kernel(l)
    assert kernel == (1, -1, 1, -1, 1)
    powers = PolySequence("sheffer", tuple(Poly.monomial(k) for k in range(5)))
    shifted = discrete_convolution(kernel, powers)
    assert list(shifted) == [Poly((-1, 1)) ** k for k in range(5)]


def test_kernel_times_sheffer_is_sheffer_appell():
    for name, params in (
        ("laguerre", {"lambda": 2}),
        ("miller-lee", {"m": 1}),
        ("hermite", None),
    ):
        pair = make_pair(name, 8, params)
        convolved = discrete_convolution(
            appell_kernel(pair.l), sheffer_sequence(pair, 8)
        )
        assert list(convolved) == list(sheffer_appell_sequence(pair, 8))


def per_degree_convolution(kernel, s):
    """Reference: one derivative_combination per degree over all of
    s[0..n], so every s[m] is rescaled at every later degree."""
    polys = tuple(
        derivative_combination(
            [(0, math.comb(n, k) * kernel[k], s[n - k], 0) for k in range(n + 1)]
        )
        for n in range(s.top_degree + 1)
    )
    return PolySequence(s.kind, polys)


def fraction_convolution(kernel, s):
    """Reference in plain Fraction arithmetic, independent of the integer rows."""
    polys = tuple(
        sum((math.comb(n, k) * kernel[k] * s[n - k] for k in range(n + 1)), Poly.zero())
        for n in range(s.top_degree + 1)
    )
    return PolySequence(s.kind, polys)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(
        [("laguerre", {"lambda": Fraction(5, 2)}), ("log-assoc", None), ("euler", None)]
    ),
    st.lists(
        st.one_of(st.just(Fraction(0)), st.fractions(-9, 9, max_denominator=7)),
        min_size=9,
        max_size=9,
    ).filter(lambda kernel: kernel[0] != 0),
)
def test_convolution_matches_the_per_degree_form(family, kernel):
    name, params = family
    seq = sheffer_sequence(make_pair(name, 8, params), 8)
    expected = fraction_convolution(kernel, seq)
    assert per_degree_convolution(kernel, seq) == expected
    assert discrete_convolution(kernel, seq) == expected


def test_convolution_scales_each_polynomial_once(monkeypatch):
    pair = make_pair("laguerre", 12, {"lambda": Fraction(5, 2)})
    seq = sheffer_sequence(pair, 12)
    coeffs = {id(p.coeffs) for p in seq}
    scaled = []
    honest = rationals.common_denominator

    def counted(values):
        if id(values) in coeffs:
            scaled.append(id(values))
        return honest(values)

    monkeypatch.setattr(rationals, "common_denominator", counted)
    monkeypatch.setattr(polynomials, "common_denominator", counted)
    discrete_convolution(appell_kernel(pair.l), seq)
    assert sorted(scaled) == sorted(coeffs)
    # a second convolution reads the rows the polynomials kept
    discrete_convolution(appell_kernel(pair.l), seq)
    assert sorted(scaled) == sorted(coeffs)


def test_convolution_preserves_kind():
    seq = PolySequence("appell", (Poly.one(), Poly((1, 1))))
    out = discrete_convolution((Fraction(1), Fraction(0)), seq)
    assert out.kind == "appell"


def test_convolution_rejects_short_kernel():
    seq = PolySequence("sheffer", (Poly.one(), Poly.x(), Poly.monomial(2)))
    with pytest.raises(ValueError):
        discrete_convolution((Fraction(1),), seq)


def test_appell_kernel_requires_invertible():
    with pytest.raises(NotInvertibleError):
        appell_kernel(TruncatedSeries([0, 1]))


def test_leading_coefficients():
    pair = make_pair("laguerre", 6, {"lambda": Fraction(5, 2)})
    appellish = sheffer_appell_sequence(pair, 6)
    plain = sheffer_sequence(pair, 6)
    for k in range(7):
        assert appellish[k].degree == k
        assert appellish[k].leading_coefficient == Fraction(-1) ** k
        assert plain[k].leading_coefficient == Fraction(-1) ** k


def test_shared_pair_object_reuses_expansion():
    pair = make_pair("euler", 10)
    first = sheffer_appell_sequence(pair, 10)
    second = sheffer_appell_sequence(pair, 7)
    assert list(second) == list(first)[:8]
