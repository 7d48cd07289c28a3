import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sheffermat import Poly
from sheffermat.cli import poly_to_latex
from sheffermat.polynomials import derivative_combination
from sheffermat.rationals import common_denominator, format_rational

from plain_fractions import add, evaluate, monomial, mul, power, sub

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)
polys = st.lists(rationals, max_size=6).map(Poly)


def test_zero_is_empty_and_canonical():
    assert Poly().coeffs == ()
    assert Poly((0, 0, 0)) == Poly()
    assert Poly((1, 2, 0, 0)).coeffs == (Fraction(1), Fraction(2))


def test_degree_of_zero_is_sentinel():
    assert Poly().degree == -math.inf
    assert Poly().is_zero
    assert Poly((3,)).degree == 0
    assert Poly((0, 1)).degree == 1


@pytest.mark.parametrize("other", ["1", 1.0, None], ids=repr)
def test_equality_with_a_non_number_is_not_implemented(other):
    assert Poly((1,)).__eq__(other) is NotImplemented
    assert Poly((1,)) != other


def test_addition_and_subtraction():
    p = Poly((1, 2))
    q = Poly((0, -2, 5))
    assert add(p, q) == Poly((1, 0, 5))
    assert sub(add(p, q), q) == p
    assert sub(p, p) == Poly()


def test_scalar_arithmetic():
    p = Poly((1, 1))
    assert p * 2 == Poly((2, 2))
    assert 2 * p == Poly((2, 2))
    assert p * Fraction(1, 2) == Poly((Fraction(1, 2), Fraction(1, 2)))
    assert add(p, 1) == Poly((2, 1))
    assert sub(1, p) == Poly((0, -1))


def test_multiplication():
    assert mul(Poly((1, 1)), Poly((1, -1))) == Poly((1, 0, -1))
    assert mul(Poly((0, 1)), Poly((0, 1))) == monomial(2)
    assert mul(Poly((1, 2)), Poly()) == Poly()


def test_power():
    assert power(Poly((1, 1)), 3) == Poly((1, 3, 3, 1))
    assert power(Poly((0, 2)), 0) == Poly((1,))


def test_derivative_examples():
    assert monomial(3).derivative() == monomial(2, 3)
    assert Poly((0, 1, Fraction(1, 2))).derivative(2) == Poly((1,))
    assert Poly((5,)).derivative() == Poly()
    assert Poly((1, 2, 3)).derivative(0) == Poly((1, 2, 3))


def test_derivative_count_must_be_nonneg():
    with pytest.raises(ValueError):
        Poly((1,)).derivative(-1)


def test_evaluation_is_exact():
    assert evaluate(Poly((1, 0, 1)), Fraction(2)) == Fraction(5)
    assert evaluate(Poly((7, 3, -2)), Fraction(0)) == Fraction(7)
    assert evaluate(Poly((1, -1)), Fraction(1, 3)) == Fraction(2, 3)


def test_string_round_trip():
    p = Poly((Fraction(1, 2), 0, -3))
    assert p.to_strings() == ["1/2", "0", "-3"]
    assert Poly(p.to_strings()) == p
    assert Poly().to_strings() == []
    assert Poly([]) == Poly()


def test_str_prints_descending_degree():
    assert str(Poly((Fraction(-1, 2), 1))) == "x - 1/2"
    assert str(Poly()) == "0"
    assert str(Poly((0, 0, 1))) == "x^2"


# The two renderers as they were written before they shared Poly.render; the
# shared term walk must reproduce both exactly.


def reference_str(p: Poly) -> str:
    if p.is_zero:
        return "0"
    parts: list[str] = []
    for k in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[k]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if k == 0:
            body = format_rational(mag)
        else:
            xpow = "x" if k == 1 else f"x^{k}"
            body = xpow if mag == 1 else f"{format_rational(mag)}*{xpow}"
        if not parts:
            parts.append(body if sign == "+" else f"-{body}")
        else:
            parts.append(f"{sign} {body}")
    return " ".join(parts)


def reference_latex(p: Poly) -> str:
    if p.is_zero:
        return "0"
    parts = []
    for d in range(len(p) - 1, -1, -1):
        c = p.coeff(d)
        if c == 0:
            continue
        magnitude = abs(c)
        if d == 0:
            body = reference_latex_rational(magnitude)
        else:
            var = "x" if d == 1 else f"x^{{{d}}}"
            body = var if magnitude == 1 else reference_latex_rational(magnitude) + var
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def reference_latex_rational(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    sign = "-" if value < 0 else ""
    return f"{sign}\\frac{{{abs(value.numerator)}}}{{{value.denominator}}}"


render_coeffs = st.one_of(
    st.sampled_from([0, 1, -1]),
    st.integers(-1000, 1000),
    st.fractions(max_denominator=60),
    st.fractions(min_value=-(10**12), max_value=10**12, max_denominator=10**9),
)


@settings(max_examples=500)
@given(st.lists(render_coeffs, max_size=9).map(Poly))
@example(Poly())
@example(Poly((1,)))
@example(Poly((-1,)))
@example(Poly((Fraction(-7, 3),)))
@example(Poly((-1, 1, -1, 1)))
@example(Poly((0, 0, Fraction(1, 2), 0, -1)))
def test_render_matches_the_reference_renderers(p):
    assert str(p) == reference_str(p)
    assert poly_to_latex(p) == reference_latex(p)


@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    assert add(add(p, q), r) == add(p, add(q, r))
    assert add(p, q) == add(q, p)
    assert mul(mul(p, q), r) == mul(p, mul(q, r))
    assert mul(p, q) == mul(q, p)
    assert mul(p, add(q, r)) == add(mul(p, q), mul(p, r))


@given(polys, polys)
def test_product_rule(p, q):
    assert mul(p, q).derivative() == add(mul(p.derivative(), q), mul(p, q.derivative()))


@given(polys, polys)
def test_results_stay_canonical(p, q):
    for result in (add(p, q), sub(p, q), mul(p, q)):
        assert not result.coeffs or result.coeffs[-1] != 0


@given(polys)
def test_serialization_round_trip(p):
    assert Poly(p.to_strings()) == p


@given(polys)
def test_row_is_the_kept_common_denominator_row(p):
    den, row = p.row
    assert p.row == common_denominator(p.coeffs)
    assert den > 0 and math.gcd(den, *row) == 1 and (not row or row[-1] != 0)


@given(polys)
def test_equality_and_hash_ignore_the_kept_row(p):
    fresh = Poly(p.coeffs)
    assert p.row is not None
    assert p == fresh and hash(p) == hash(fresh)
    assert {p: 1}[fresh] == 1


@pytest.mark.parametrize(
    "scalar", [0, 3, -7, Fraction(0), Fraction(5, 2), Fraction(-1, 3)], ids=str
)
def test_constant_hashes_like_the_scalar_it_equals(scalar):
    p = Poly([scalar])
    assert p == scalar and hash(p) == hash(scalar)
    assert len({p, scalar}) == 1
    assert p in {scalar} and scalar in {p}


def test_higher_degree_poly_is_no_scalar_in_a_set():
    p = Poly((3, 1))
    assert p != 3 and p not in {3, Fraction(3)}
    assert len({p, Poly((3, 1)), 3}) == 2


def test_derivative_combination_of_repeated_terms():
    p, q = Poly((Fraction(1, 2), 3, Fraction(-2, 7))), Poly((5, Fraction(1, 3)))
    terms = [(1, 2, p, 0), (0, 1, p, 1), (Fraction(1, 3), 0, q, 0), (0, 0, q, 1)]
    got = derivative_combination(terms * 3)
    assert derivative_combination(terms) * 3 == got
    x = Poly((0, 1))
    once = add(mul(add(x, 2), p), p.derivative(), Fraction(1, 3) * mul(x, q))
    assert got == once * 3
