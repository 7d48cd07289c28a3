import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sheffermat import (
    COEFF_EXTRACTORS,
    LABELS,
    RESIDUALS,
    CoeffTriple,
    InsufficientOrderError,
    Poly,
    ShefferPair,
    TruncatedSeries,
    appell_sequence,
    associated_residual,
    binomial_series,
    convolution_recurrence_coeffs,
    derivative_recurrence_coeffs,
    differential_equation_coeffs,
    factorization_check,
    lemma_checks,
    make_pair,
    mixed_recurrence_coeffs,
    omega,
    omega_inverse,
    pascal_matrix,
    residual_checks,
    sheffer_appell_sequence,
    sheffer_sequence,
    wronskian_powers_matrix,
    wronskian_vector,
)
from sheffermat.polynomials import derivative_combination

from plain_fractions import add, mul, sub


def zeros(n):
    return (Fraction(0),) * n


def test_labels_and_tables_agree():
    assert LABELS == ("2.1", "3.1", "3.2", "3.3")
    assert set(COEFF_EXTRACTORS) == set(LABELS)
    assert set(RESIDUALS) == set(LABELS)


def test_coeff_triple_validation():
    with pytest.raises(ValueError):
        CoeffTriple("9.9", (Fraction(1),), (Fraction(0),), (Fraction(0),))
    with pytest.raises(ValueError):
        CoeffTriple("2.1", (Fraction(1),), (Fraction(0),), ())


def test_coeff_triple_json():
    triple = CoeffTriple(
        "3.1",
        (Fraction(-1), Fraction(2)),
        (Fraction(1, 2), Fraction(0)),
        (Fraction(0), Fraction(0)),
    )
    assert triple.to_json() == {
        "theorem": "3.1",
        "a": ["-1", "2"],
        "b": ["1/2", "0"],
        "c": ["0", "0"],
    }


# -- coefficient vectors on simple pairs ----------------------------------


def test_monomial_coeffs_all_labels():
    pair = make_pair("monomial", 6)
    for label, expected_a0 in (("2.1", 0), ("3.1", 1), ("3.2", 1), ("3.3", 1)):
        t = COEFF_EXTRACTORS[label](pair, 4)
        assert t.label == label
        assert t.b == zeros(5) and t.c == zeros(5)
        if label == "2.1":
            # h/h' = y: a = (0, 1, 0, ...)
            assert t.a == (0, 1, 0, 0, 0)
        else:
            assert t.a == (expected_a0, 0, 0, 0, 0)


def test_exp_shift_coeffs():
    pair = make_pair("exp-shift", 6)
    t = derivative_recurrence_coeffs(pair, 3)
    # l = e^y: l'/l = 1, so b = c = (-1, 0, 0, 0)
    assert t.a == (1, 0, 0, 0)
    assert t.b == (-1, 0, 0, 0)
    assert t.c == (-1, 0, 0, 0)


def test_laguerre_derivative_recurrence_coeffs():
    pair = make_pair("laguerre", 6, {"lambda": 0})
    t = derivative_recurrence_coeffs(pair, 4)
    assert t.a == (-1, 2, -2, 0, 0)
    assert t.b == (-1, 1, 0, 0, 0)
    assert t.c == (1, -1, 0, 0, 0)


def test_laguerre_differential_equation_coeffs():
    pair = make_pair("laguerre", 6, {"lambda": 0})
    t = differential_equation_coeffs(pair, 4)
    assert t.a == (0, 1, -2, 0, 0)


def test_miller_lee_mixed_coeffs():
    m = 1
    pair = make_pair("miller-lee", 6, {"m": m})
    t = mixed_recurrence_coeffs(pair, 4)
    assert t.a == (1, 0, 0, 0, 0)
    expected = tuple(
        Fraction((m + 1) * math.factorial(k)) for k in range(5)
    )
    assert t.b == expected
    assert t.c == expected


def test_convolution_coeffs_depend_only_on_pair():
    pair = make_pair("hermite", 6)
    t = convolution_recurrence_coeffs(pair, 3)
    assert t.a == (1, 0, 0, 0)
    # l = e^{y^2/2}: l'/l = y, so b = (0, -1, 0, 0), twice
    assert t.b == (0, -1, 0, 0)
    assert t.c == (0, -1, 0, 0)


def test_coeffs_need_one_extra_order():
    pair = make_pair("laguerre", 4, {"lambda": 0})
    derivative_recurrence_coeffs(pair, 3)
    with pytest.raises(InsufficientOrderError):
        derivative_recurrence_coeffs(pair, 4)


# -- residuals -------------------------------------------------------------


@pytest.mark.parametrize("label", LABELS)
def test_named_example_residuals(label):
    examples = {
        "2.1": ("laguerre", {"lambda": 2}, 8),
        "3.1": ("miller-lee", {"m": 1}, 6),
        "3.2": ("laguerre", {"lambda": 1}, 6),
        "3.3": ("hermite", None, 6),
    }
    family, params, n = examples[label]
    pair = make_pair(family, n + 2, params)
    assert RESIDUALS[label](pair, n) == Poly()


@pytest.mark.parametrize("label", LABELS)
@pytest.mark.parametrize(
    "family,params",
    [
        ("monomial", None),
        ("laguerre", {"lambda": Fraction(5, 2)}),
        ("miller-lee", {"m": 3}),
        ("bernoulli", None),
        ("euler", None),
        ("log-assoc", None),
    ],
)
def test_residuals_vanish_across_catalog(label, family, params):
    pair = make_pair(family, 7, params)
    for n in range(6):
        assert RESIDUALS[label](pair, n) == Poly()


def test_residual_requires_order():
    pair = make_pair("monomial", 4)
    with pytest.raises(InsufficientOrderError):
        RESIDUALS["3.1"](pair, 4)


# -- matrix factorization ----------------------------------------------------


def test_factorization_examples():
    assert factorization_check(make_pair("monomial", 3), 3)
    assert factorization_check(make_pair("exp-shift", 4), 4)
    assert factorization_check(make_pair("laguerre", 4, {"lambda": 0}), 4)
    assert factorization_check(make_pair("bernoulli", 5), 5)


def test_factorization_with_nontrivial_h():
    assert factorization_check(make_pair("log-assoc", 4), 4)
    assert factorization_check(
        make_pair("laguerre", 5, {"lambda": Fraction(1, 2)}), 5
    )


# -- associated-sequence specializations -----------------------------------


def test_associated_residuals_vanish():
    for family in ("monomial", "log-assoc"):
        pair = make_pair(family, 6)
        for which in LABELS:
            assert associated_residual(pair, 4, which) == Poly()


def test_associated_mobius_pair():
    h = TruncatedSeries([0, -1, -1, -1, -1, -1, -1])
    pair = ShefferPair.associated(h)
    for which in LABELS:
        assert associated_residual(pair, 4, which) == Poly()


def test_associated_rejects_general_l():
    pair = make_pair("laguerre", 5, {"lambda": 0})
    with pytest.raises(ValueError):
        associated_residual(pair, 3, "3.1")


def test_associated_rejects_unknown_label():
    pair = make_pair("monomial", 5)
    with pytest.raises(ValueError):
        associated_residual(pair, 3, "4.1")


PAIR = make_pair("monomial", 5)  # order 5: l = 1, h = y


def at(fn, *extra):
    """fn(PAIR, n, *extra) as a call of the size n alone."""
    return lambda n: fn(PAIR, n, *extra)


# (call at size n, least size accepted, most accepted or None for no bound).
# At pair order N the recurrences read sA_{n+1} and (a, b, c) to k = n, so
# extractors and residuals stop at N - 1; everything else at N.
SIZE_CALLS = [
    *(
        pytest.param(at(f), 0, 4, id=f"extract-{k}")
        for k, f in COEFF_EXTRACTORS.items()
    ),
    *(pytest.param(at(f), 0, 4, id=f"residual-{k}") for k, f in RESIDUALS.items()),
    *(
        pytest.param(at(associated_residual, k), 0, 4, id=f"associated-{k}")
        for k in LABELS
    ),
    pytest.param(at(residual_checks), 0, 4, id="residual_checks"),
    pytest.param(at(sheffer_sequence), 0, 5, id="sheffer_sequence"),
    pytest.param(at(sheffer_appell_sequence), 0, 5, id="sheffer_appell_sequence"),
    pytest.param(lambda n: appell_sequence(PAIR.l, n), 0, 5, id="appell_sequence"),
    pytest.param(at(factorization_check), 0, 5, id="factorization_check"),
    pytest.param(at(lemma_checks), 0, 5, id="lemma_checks"),
    pytest.param(lambda n: pascal_matrix(PAIR.l, n), 0, 5, id="pascal_matrix"),
    pytest.param(lambda n: wronskian_vector(PAIR.l, n), 0, 5, id="wronskian_vector"),
    pytest.param(
        lambda n: wronskian_powers_matrix(PAIR.h, n), 0, 5, id="wronskian_powers_matrix"
    ),
    pytest.param(PAIR.l.truncate, 0, 5, id="truncate"),
    pytest.param(omega, 0, None, id="omega"),
    pytest.param(omega_inverse, 0, None, id="omega_inverse"),
    pytest.param(lambda n: make_pair("hermite", n), 1, None, id="make_pair"),
    pytest.param(lambda n: binomial_series(3, n), 0, None, id="binomial_series"),
]


@pytest.mark.parametrize("fn, least, most", SIZE_CALLS)
def test_negative_degree_is_rejected(fn, least, most):
    # Below degree 0 a residual would read as a false identity failure, and
    # above its bound a call would read coefficients the pair does not carry.
    for n in range(-1, least):
        with pytest.raises(ValueError, match="must be >= ") as info:
            fn(n)
        assert info.type is ValueError
    fn(least)
    if most is not None:
        fn(most)
        above = f" {most + 1} is above {most},"
        with pytest.raises(InsufficientOrderError, match=above):
            fn(most + 1)


def repeated_derivative_combination(triple, poly, n):
    """The repeated Poly.derivative form of sum_k (x a_k + b_k + c_k)
    poly^(k)/k!, kept as the reference for the integer kernel."""
    acc = Poly()
    for k in range(n + 1):
        factor = Poly((triple.b[k] + triple.c[k], triple.a[k]))
        acc = add(acc, mul(factor, poly.derivative(k)) * Fraction(1, math.factorial(k)))
    return acc


def triple_combination(triple, poly, n):
    """The same sum through the integer kernel."""
    terms = [(triple.a[k], triple.b[k] + triple.c[k], poly, k) for k in range(n + 1)]
    return derivative_combination(terms)


small_rationals = st.fractions(min_value=-50, max_value=50, max_denominator=1000)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_derivative_combination_matches_repeated_derivatives(data):
    degree = data.draw(st.integers(-1, 12), label="degree")  # -1: the zero polynomial
    n = data.draw(st.integers(0, 15), label="n")
    coeffs = data.draw(st.lists(small_rationals, min_size=degree + 1, max_size=degree + 1))
    vector = st.lists(small_rationals, min_size=n + 1, max_size=n + 1).map(tuple)
    triple = CoeffTriple("2.1", data.draw(vector), data.draw(vector), data.draw(vector))
    poly = Poly(coeffs)
    expected = repeated_derivative_combination(triple, poly, n)
    assert triple_combination(triple, poly, n) == expected


def test_derivative_combination_edge_cases():
    triple = CoeffTriple("3.1", (1, 2, 3), (4, 5, 6), (7, 8, 9))
    assert triple_combination(triple, Poly(), 2) == Poly()
    # degree 1 < n = 2: only k = 0, 1 contribute; (x + 11)(3 + 2x) + (2x + 13) 2
    expected = add(mul(Poly((11, 1)), Poly((3, 2))), Poly((13, 2)) * 2)
    assert triple_combination(triple, Poly((3, 2)), 2) == expected
    # every k up to the degree contributes
    dense = Poly(Fraction(j + 1, 7 - j % 5) for j in range(13))
    vector = tuple(Fraction(k - 4, k + 1) for k in range(16))
    triple = CoeffTriple("2.1", vector, vector[::-1], vector[3:] + vector[:3])
    expected = repeated_derivative_combination(triple, dense, 15)
    assert triple_combination(triple, dense, 15) == expected


def plain_combination(terms):
    """sum (beta + alpha x) q^(k)/k! in plain Poly arithmetic."""
    acc = Poly()
    for alpha, beta, q, k in terms:
        factor = Poly((beta, alpha)) * Fraction(1, math.factorial(k))
        acc = add(acc, mul(factor, q.derivative(k)))
    return acc


kernel_terms = st.lists(
    st.tuples(
        small_rationals,
        small_rationals,
        st.lists(small_rationals, max_size=10).map(Poly),
        st.integers(0, 12),
    ),
    max_size=8,
)


@settings(max_examples=100, deadline=None)
@given(kernel_terms, st.data())
def test_kernel_matches_plain_poly_arithmetic(terms, data):
    # Repeat some polynomials by identity: their integer rows are shared.
    reuse = st.tuples(small_rationals, small_rationals, st.integers(0, 7), st.integers(0, 4))
    for alpha, beta, i, k in data.draw(st.lists(reuse, max_size=4)):
        if i < len(terms):
            terms.append((alpha, beta, terms[i][2], k))
    assert derivative_combination(terms) == plain_combination(terms)


def test_kernel_nonzero_example():
    q = Poly((Fraction(1, 3), 2, Fraction(-5, 7), 1))
    terms = [(Fraction(1, 2), 3, q, 0), (0, Fraction(-2, 5), q, 2), (7, 0, Poly((1, 1)), 1)]
    # (3 + x/2) q  -  (2/5) q''/2  +  7x,  q''/2 = -5/7 + 3x
    expected = add(
        mul(Poly((3, Fraction(1, 2))), q),
        Poly((Fraction(-5, 7), 3)) * Fraction(-2, 5),
        Poly((0, 7)),
    )
    result = derivative_combination(terms)
    assert result == expected == plain_combination(terms)
    assert not result.is_zero


def test_kernel_edge_cases():
    q = Poly((1, 2, 3))
    assert derivative_combination([]) == Poly()
    assert derivative_combination([(0, 0, q, 0), (0, 0, q, 1)]) == Poly()
    assert derivative_combination([(Fraction(1, 2), 5, q, 3)]) == Poly()
    assert derivative_combination([(Fraction(1, 2), 5, q, 7)]) == Poly()
    assert derivative_combination([(3, 4, Poly(), 0)]) == Poly()
    # zero weights, k > deg q and the zero polynomial add nothing to a live term
    live = (Fraction(-1, 3), 2, q, 2)  # (2 - x/3) * 3
    terms = [(0, 0, q, 0), live, (3, 4, Poly(), 0), (1, 1, q, 9)]
    assert derivative_combination(terms) == Poly((6, -1))
    # cancelling terms give the canonical zero polynomial
    assert derivative_combination([(1, 1, q, 1), (-1, -1, q, 1)]) == Poly()


# -- the four residuals against Poly references -----------------------------


def differential_reference(t, s, n):
    return sub(repeated_derivative_combination(t, s[n], n), s[n] * n)


def derivative_reference(t, s, n):
    return sub(s[n + 1], repeated_derivative_combination(t, s[n], n))


def mixed_reference(t, s, n):
    """Residual "3.2" built one Poly per term, as before the integer kernel."""
    acc = sub(s[n + 1] * t.a[0], mul(Poly((0, 1)), s[n]))
    for k in range(n + 1):
        acc = sub(acc, math.comb(n, k) * (t.b[k] + t.c[k]) * s[n - k])
    for k in range(1, n + 1):
        acc = add(acc, math.comb(n, k) * t.a[k] * s[n + 1 - k])
    return acc


def convolution_reference(t, s, n):
    """Residual "3.3" built one Poly per term, as before the integer kernel."""
    acc = s[n + 1]
    for k in range(n + 1):
        factor = Poly((t.b[k] + t.c[k], t.a[k]))
        acc = sub(acc, math.comb(n, k) * mul(factor, s[n - k]))
    return acc


# label -> (the pair's cached row of its (D, a, b, c) vectors, reference)
REFERENCES = {
    "2.1": ("differential_equation", differential_reference),
    "3.1": ("derivative_recurrence", derivative_reference),
    "3.2": ("mixed_recurrence", mixed_reference),
    "3.3": ("convolution_recurrence", convolution_reference),
}

tiny = st.fractions(min_value=-3, max_value=3, max_denominator=3)
tiny_nonzero = tiny.filter(lambda q: q != 0)


@st.composite
def random_pairs(draw):
    order = draw(st.integers(min_value=2, max_value=7))
    l = [draw(tiny_nonzero)] + [draw(tiny) for _ in range(order)]
    h = [Fraction(0), draw(tiny_nonzero)] + [draw(tiny) for _ in range(order - 1)]
    return ShefferPair(TruncatedSeries(l), TruncatedSeries(h))


@pytest.mark.parametrize("label", sorted(REFERENCES))
@settings(max_examples=30, deadline=None)
@given(pair=random_pairs(), other=random_pairs())
def test_residuals_match_references(label, pair, other):
    """Equal to the references on valid pairs (both zero), and on the
    sequence of one pair with the integer (a, b, c) vectors of another
    injected (in general a nonzero residual)."""
    vectors, reference = REFERENCES[label]
    for n in range(min(pair.order, other.order)):
        s = sheffer_appell_sequence(pair, n + 1)
        own = COEFF_EXTRACTORS[label](pair, n)
        assert RESIDUALS[label](pair, n) == reference(own, s, n) == Poly()
        foreign = COEFF_EXTRACTORS[label](other, n)
        with pytest.MonkeyPatch.context() as mp:
            mp.setitem(vars(pair), vectors, getattr(other, vectors))
            assert RESIDUALS[label](pair, n) == reference(foreign, s, n)


@pytest.mark.parametrize("label", sorted(REFERENCES))
def test_residuals_on_foreign_coefficients(monkeypatch, label):
    vectors, reference = REFERENCES[label]
    pair = make_pair("laguerre", 8, {"lambda": Fraction(5, 2)})
    other = make_pair("log-assoc", 8)
    foreign = COEFF_EXTRACTORS[label](other, 6)
    monkeypatch.setitem(vars(pair), vectors, getattr(other, vectors))
    residual = RESIDUALS[label](pair, 6)
    assert not residual.is_zero
    assert residual == reference(foreign, sheffer_appell_sequence(pair, 7), 6)
