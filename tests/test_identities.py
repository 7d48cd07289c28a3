import math
from fractions import Fraction

import pytest
from hypothesis import given, settings

from sheffermat import (
    COEFF_EXTRACTORS,
    LABELS,
    RESIDUALS,
    CoeffTriple,
    ContractError,
    InsufficientOrderError,
    Poly,
    ShefferPair,
    appell_sequence,
    binomial_series,
    derivative_recurrence_coeffs,
    factorization_check,
    lemma_checks,
    make_pair,
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

import plain_fractions as plain
from plain_fractions import add, combination, mul, sub


def zeros(n):
    return (Fraction(0),) * n


def test_labels_and_tables_agree():
    assert LABELS == ("2.1", "3.1", "3.2", "3.3")
    assert set(COEFF_EXTRACTORS) == set(LABELS)
    assert set(RESIDUALS) == set(LABELS)


def test_coeff_triple_validation():
    with pytest.raises(ValueError):
        CoeffTriple.from_rationals("9.9", (Fraction(1),), (Fraction(0),), zeros(1))
    with pytest.raises(ValueError):
        CoeffTriple.from_rationals("2.1", (Fraction(1),), (Fraction(0),), ())


def test_coeff_triple_json():
    triple = CoeffTriple.from_rationals(
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


def test_coeff_triple_is_one_canonical_integer_row():
    half = Fraction(1, 2)
    triple = CoeffTriple.from_rationals("3.1", (half, 1), (0, "2"), ("6/2", -1))
    assert triple.row == (2, (1, 2), (0, 4), (6, -2))
    assert (triple.a, triple.b, triple.c) == ((half, 1), (0, 2), (3, -1))
    assert {type(v) for v in triple.a + triple.b + triple.c} == {Fraction}
    same = CoeffTriple("3.1", (2, (1, 2), (0, 4), (6, -2)))
    assert triple == same and hash(triple) == hash(same)
    assert triple != CoeffTriple("2.1", triple.row)
    unreduced = CoeffTriple("3.1", (4, [2, 4], [0, 8], [12, -4]))
    assert unreduced == triple and hash(unreduced) == hash(triple)
    assert unreduced.row == triple.row and type(unreduced.row[1]) is tuple
    bad = [(-2, (-1,), (0,), (-6,)), (0, (0,), (0,), (0,)), (1, (1,), (1, 2), (3,))]
    for row in bad:
        with pytest.raises(ValueError):
            CoeffTriple("3.1", row)
    with pytest.raises(AttributeError):
        triple.a = (1, 1)


@pytest.mark.parametrize(
    "family, params",
    [("bernoulli", {}), ("laguerre", {"lambda": Fraction(5, 2)}), ("log-assoc", {})],
)
def test_extracted_triples_equal_their_rational_twins(family, params):
    # A prefix of a pair's reduced row can share a factor with D (27 of
    # bernoulli's 32 prefixes at order 8 do), so each slice is reduced again.
    pair = make_pair(family, 8, params)
    for label in LABELS:
        for n in range(8):
            t = COEFF_EXTRACTORS[label](pair, n)
            twin = CoeffTriple.from_rationals(label, t.a, t.b, t.c)
            assert t == twin and hash(t) == hash(twin) and len(t.a) == n + 1


def test_coeffs_need_one_extra_order():
    pair = make_pair("laguerre", 4, {"lambda": 0})
    derivative_recurrence_coeffs(pair, 3)
    with pytest.raises(InsufficientOrderError):
        derivative_recurrence_coeffs(pair, 4)


# -- residuals -------------------------------------------------------------


def test_residual_requires_order():
    pair = make_pair("monomial", 4)
    with pytest.raises(InsufficientOrderError):
        RESIDUALS["3.1"](pair, 4)


# -- associated-sequence specializations -----------------------------------


def test_associated_corrupted_row_fails_3_1_and_3_2():
    """a[2] of log-assoc's "3.1" row gains D before the array is built from
    it.  The "3.1" residual reads the row the array was built from, so it
    stays zero; residual_checks answers "3.1" from the factorization and
    "3.2" through h'(g), and the g read off that array fails h(g) = y, so
    both refuse every degree."""
    pair = make_pair("log-assoc", 12)
    den, a, b, c = pair.derivative_recurrence
    vars(pair)["derivative_recurrence"] = (den, [*a[:2], a[2] + den, *a[3:]], b, c)
    for n in range(12):
        assert RESIDUALS["3.1"](pair, n) == Poly()
        for label in ("3.1", "3.2"):
            with pytest.raises(ContractError):
                residual_checks(pair, n, label)


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


def triple_terms(triple, poly, n):
    """The terms (a_k, b_k + c_k, poly, k), k <= n, of sum_k (x a_k + b_k + c_k)
    poly^(k)/k!."""
    return [(triple.a[k], triple.b[k] + triple.c[k], poly, k) for k in range(n + 1)]


def triple_combination(triple, poly, n):
    """The same sum through the integer kernel."""
    return derivative_combination(triple_terms(triple, poly, n))


def test_derivative_combination_edge_cases():
    triple = CoeffTriple.from_rationals("3.1", (1, 2, 3), (4, 5, 6), (7, 8, 9))
    assert triple_combination(triple, Poly(), 2) == Poly()
    # degree 1 < n = 2: only k = 0, 1 contribute; (x + 11)(3 + 2x) + (2x + 13) 2
    expected = add(mul(Poly((11, 1)), Poly((3, 2))), Poly((13, 2)) * 2)
    assert triple_combination(triple, Poly((3, 2)), 2) == expected
    # every k up to the degree contributes
    dense = Poly(Fraction(j + 1, 7 - j % 5) for j in range(13))
    vector = tuple(Fraction(k - 4, k + 1) for k in range(16))
    rotated = vector[3:] + vector[:3]
    triple = CoeffTriple.from_rationals("2.1", vector, vector[::-1], rotated)
    expected = combination(triple_terms(triple, dense, 15))
    assert triple_combination(triple, dense, 15) == expected


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
    assert result == expected == combination(terms)
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
    return sub(combination(triple_terms(t, s[n], n)), s[n] * n)


def derivative_reference(t, s, n):
    return sub(s[n + 1], combination(triple_terms(t, s[n], n)))


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

random_pairs = plain.pairs(2, 7).map(lambda lh: plain.sheffer_pair(*lh))


@pytest.mark.parametrize("label", sorted(REFERENCES))
@settings(max_examples=30, deadline=None)
@given(pair=random_pairs, other=random_pairs)
def test_residuals_match_references(label, pair, other):
    """Equal to the references on valid pairs (both zero), and on the
    sequence of one pair with the integer (a, b, c) vectors of another
    injected (in general a nonzero residual).  The pair keeps its residuals,
    so the vectors go into a fresh pair, after its array is built."""
    vectors, reference = REFERENCES[label]
    fresh = ShefferPair(pair.l, pair.h)
    fresh.sheffer_appell_polys
    for n in range(min(pair.order, other.order)):
        s = sheffer_appell_sequence(pair, n + 1)
        own = COEFF_EXTRACTORS[label](pair, n)
        assert RESIDUALS[label](pair, n) == reference(own, s, n) == Poly()
        foreign = COEFF_EXTRACTORS[label](other, n)
        with pytest.MonkeyPatch.context() as mp:
            mp.setitem(vars(fresh), vectors, getattr(other, vectors))
            assert RESIDUALS[label](fresh, n) == reference(foreign, s, n)


@pytest.mark.parametrize("label", sorted(REFERENCES))
def test_residuals_on_foreign_coefficients(monkeypatch, label):
    vectors, reference = REFERENCES[label]
    pair = make_pair("laguerre", 8, {"lambda": Fraction(5, 2)})
    other = make_pair("log-assoc", 8)
    foreign = COEFF_EXTRACTORS[label](other, 6)
    pair.sheffer_appell_polys  # the array is built from the pair's own "3.1" row
    monkeypatch.setitem(vars(pair), vectors, getattr(other, vectors))
    residual = RESIDUALS[label](pair, 6)
    assert not residual.is_zero
    assert residual == reference(foreign, sheffer_appell_sequence(pair, 7), 6)


@pytest.mark.parametrize("label", sorted(REFERENCES))
def test_residuals_are_kept_per_pair_label_and_degree(monkeypatch, label):
    """A repeat of (pair, label, n) returns the kept residual; a fresh pair
    with a foreign row gives that row's residual at every degree, each kept
    under its own n."""
    vectors, reference = REFERENCES[label]
    pair = make_pair("log-assoc", 9)
    first = [RESIDUALS[label](pair, n) for n in range(8)]
    again = [RESIDUALS[label](pair, n) for n in range(8)]
    assert again == first and all(a is b for a, b in zip(again, first))
    other = make_pair("laguerre", 9, {"lambda": Fraction(5, 2)})
    fresh = make_pair("log-assoc", 9)
    fresh.sheffer_appell_polys
    monkeypatch.setitem(vars(fresh), vectors, getattr(other, vectors))
    for n in range(8):
        s = sheffer_appell_sequence(fresh, n + 1)
        foreign = COEFF_EXTRACTORS[label](other, n)
        assert RESIDUALS[label](fresh, n) == reference(foreign, s, n)
    assert set(fresh.kept) == {(label, n) for n in range(8)}
