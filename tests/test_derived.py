"""The per-pair derived series: independent oracles and the once-per-pair cost."""

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import QQ
from sympy.polys.ring_series import (
    rs_exp,
    rs_mul,
    rs_series_inversion,
    rs_series_reversion,
    rs_trunc,
)
from sympy.polys.rings import ring

from sheffermat import (
    COEFF_EXTRACTORS,
    FAMILIES,
    KINDS,
    LABELS,
    Matrix,
    Poly,
    RESIDUALS,
    ShefferPair,
    TruncatedSeries,
    appell_sequence,
    derivative_recurrence_coeffs,
    factorization_check,
    identities,
    lemma_checks,
    make_pair,
    omega_inverse,
    pascal_matrix,
    rationals,
    residual_checks,
    sheffer_appell_sequence,
    sheffer_sequence,
    wronskian_powers_matrix,
)
from cost_counts import counting
import plain_fractions as plain
from plain_fractions import add, monomial, reversion

# -- sympy oracle on random valid pairs --------------------------------------


def random_pairs(min_order: int) -> st.SearchStrategy[ShefferPair]:
    return plain.pairs(min_order, 6).map(lambda lh: plain.sheffer_pair(*lh))


def sympy_sequences(pair: ShefferPair) -> dict[str, list[Poly]]:
    """Degrees 0..N of all three kinds, from sympy's own power-series
    expansion of d(y) e^{x g(y)} (ring_series: reversion, exp, inversion)."""
    R, x, y = ring("x, y", QQ)
    prec = pair.order + 1

    def poly_in_y(series):
        return sum(
            (QQ(c.numerator, c.denominator) * y**k
             for k, c in enumerate(series.coeffs)),
            R(0),
        )

    l, h = poly_in_y(pair.l), poly_in_y(pair.h)
    g = rs_series_reversion(h, y, prec, x).compose(x, y)
    l_of_g = rs_trunc(l.compose(y, g), y, prec)
    generating = {
        "sheffer": (g, l_of_g),
        "appell": (y, l),
        "sheffer_appell": (g, rs_mul(l_of_g, l, y, prec)),
    }
    out = {}
    for kind, (inner, denominator) in generating.items():
        exp_part = rs_exp(x * inner, y, prec)
        gf = rs_mul(exp_part, rs_series_inversion(denominator, y, prec), y, prec)
        polys = []
        for i in range(prec):
            row = gf.coeff_wrt(y, i) * math.factorial(i)
            polys.append(
                Poly(
                    Fraction(int(c.numerator), int(c.denominator))
                    for c in (row.coeff(x**k) for k in range(i + 1))
                )
            )
        out[kind] = polys
    return out


@settings(max_examples=100, deadline=None)
@given(random_pairs(1))
def test_sequences_match_sympy_expansion(pair):
    expected = sympy_sequences(pair)
    n = pair.order
    assert list(sheffer_sequence(pair, n)) == expected["sheffer"]
    assert list(appell_sequence(pair.l, n)) == expected["appell"]
    assert list(sheffer_appell_sequence(pair, n)) == expected["sheffer_appell"]


@settings(max_examples=60, deadline=None)
@given(random_pairs(2))
def test_identities_hold_for_random_pairs(pair):
    checks = residual_checks(pair, pair.order - 1) + lemma_checks(pair, pair.order)
    assert [c.name for c in checks if not c.passed] == []


# -- the rational factorization against the Poly-matrix product --------------
# The Poly matrices here are nested lists; the engine's Matrix holds
# rationals only.  The sequence is read through the identities module, so
# a test that patches the engine's sequence patches the reference too.


def scaled_derivative_matrix(pair: ShefferPair, n: int) -> list[list[Poly]]:
    """Entry (i, j) = sA_i^(j)(x) / j!, lower triangular.

    Differentiation here is in x, unlike the package's matrices, which
    differentiate the series variable y.
    """
    s = identities.sheffer_appell_sequence(pair, n)
    return [
        [s[i].derivative(j) * Fraction(1, math.factorial(j)) for j in range(n + 1)]
        for i in range(n + 1)
    ]


def pascal_of_exp_xy(n: int) -> list[list[Poly]]:
    """P[e^{xy}] at y = 0: entry (i, j) = C(i, j) x^(i-j), zero above."""
    return [
        [
            monomial(i - j, math.comb(i, j)) if i >= j else Poly()
            for j in range(n + 1)
        ]
        for i in range(n + 1)
    ]


def poly_matmul(rational_rows, poly_rows) -> list[list[Poly]]:
    """The product of a rational matrix and a Poly matrix, as nested lists."""
    return [
        [add(*(a * p for a, p in zip(row, col))) for col in zip(*poly_rows)]
        for row in rational_rows
    ]


def coefficient_rows(pair: ShefferPair, n: int) -> list[tuple[Fraction, ...]]:
    s = identities.sheffer_appell_sequence(pair, n)
    return [p.coeffs + (Fraction(0),) * (n - i) for i, p in enumerate(s)]


def rational_factor(pair: ShefferPair, n: int) -> Matrix:
    """W[1, g, ..., g^n] Omega^-1 P[1/l] P[1/l(h)], built from the pair's
    own series rather than its stored derived ones, with g by the
    plain-Fraction Lagrange reversion of h."""
    return (
        wronskian_powers_matrix(TruncatedSeries(reversion(pair.h.coeffs)), n)
        @ omega_inverse(n)
        @ pascal_matrix(pair.l.reciprocal(), n)
        @ pascal_matrix(pair.l.compose(pair.h).reciprocal(), n)
    )


def poly_matrix_factorization(pair: ShefferPair, n: int) -> bool:
    """Reference: the full identity with the polynomial factor P[e^{xy}],
    compared entrywise against the matrix of scaled x-derivatives."""
    rational_part = rational_factor(pair, n)
    rows = [rational_part.row(i) for i in range(n + 1)]
    return scaled_derivative_matrix(pair, n) == poly_matmul(rows, pascal_of_exp_xy(n))


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_rational_factorization_agrees_with_poly_matrices(family):
    params = {"lambda": Fraction(1, 2), "m": 2}
    spec_params = {k: v for k, v in params.items() if k in FAMILIES[family].params}
    pair = make_pair(family, 6, spec_params)
    for n in range(7):
        assert factorization_check(pair, n) == poly_matrix_factorization(pair, n)
        assert factorization_check(pair, n)


def test_factorization_checks_agree_on_a_wrong_sequence(monkeypatch):
    pair = make_pair("laguerre", 6, {"lambda": 0})
    other = make_pair("exp-shift", 6)
    monkeypatch.setattr(
        identities,
        "sheffer_appell_sequence",
        lambda _pair, n: sheffer_appell_sequence(other, n),
    )
    for n in range(1, 7):
        assert not factorization_check(pair, n)
        assert not poly_matrix_factorization(pair, n)


@pytest.mark.parametrize("row", [0, 3, 6])
@pytest.mark.parametrize("short", ["no-leading-term", "zero"])
def test_factorization_rejects_a_row_of_lower_degree(monkeypatch, row, short):
    """sA_row replaced by a polynomial of degree < row: the integer row of
    the kept product is compared with the zero-padded ``Poly.row``."""
    pair = make_pair("log-assoc", 7)
    engine = identities.sheffer_appell_sequence

    def lowered(pair, n):
        s = list(engine(pair, n))
        if row <= n:
            p = s[row]
            s[row] = Poly() if short == "zero" else Poly(p.coeffs[:-1])
            assert s[row].degree < row
        return s

    assert factorization_check(pair, 6)
    monkeypatch.setattr(identities, "sheffer_appell_sequence", lowered)
    for n in range(7):
        assert identities.first_factorization_mismatch(pair, n) == min(row, n + 1)
        assert [c.passed for c in lemma_checks(pair, n)] == [
            d < row for d in range(n + 1)
        ]


def test_scaled_derivatives_are_column_zero_derivatives():
    pair = make_pair("log-assoc", 5)
    product = poly_matmul(coefficient_rows(pair, 5), pascal_of_exp_xy(5))
    assert product == scaled_derivative_matrix(pair, 5)


def test_scaled_derivative_matrix_monomial():
    m = scaled_derivative_matrix(make_pair("monomial", 3), 3)
    assert len(m) == 4 and all(len(row) == 4 for row in m)
    # entry (i, j) = C(i, j) x^{i-j}
    assert m[3][1] == Poly((0, 0, 3))
    assert m[2][2] == Poly((1,))
    assert m[1][2] == Poly()


# -- the lemma sweep read off one size-n product ------------------------------


def per_size_lemma(pair: ShefferPair, n: int) -> list[bool]:
    """Reference: the factorization at each size d = 0..n on its own, as a
    comparison of whole (d+1) x (d+1) matrices."""
    return [
        Matrix(coefficient_rows(pair, d)) == rational_factor(pair, d)
        for d in range(n + 1)
    ]


def break_row(monkeypatch, row: int) -> None:
    """Make the engine's sA_row wrong by one in its constant coefficient."""
    engine = identities.sheffer_appell_sequence

    def broken(pair, n):
        s = list(engine(pair, n))
        if row <= n:
            s[row] = add(s[row], 1)
        return s

    monkeypatch.setattr(identities, "sheffer_appell_sequence", broken)


SWEEP_PAIRS = [
    ("laguerre", {"lambda": Fraction(5, 2)}),
    ("log-assoc", {}),
    ("hermite", {}),
]


@pytest.mark.parametrize("family, params", SWEEP_PAIRS)
@pytest.mark.parametrize("row", [0, 3, 9, 10])
def test_lemma_sweep_fails_from_the_first_bad_row(monkeypatch, family, params, row):
    # row 10 lies beyond n, so nothing is broken and every size passes
    n = 9
    pair = make_pair(family, n + 2, params)
    break_row(monkeypatch, row)
    passed = [c.passed for c in lemma_checks(pair, n)]
    assert passed == [d < row for d in range(n + 1)]
    assert passed == per_size_lemma(pair, n)


def test_lemma_sweep_edge_sizes(monkeypatch):
    pair = make_pair("hermite", 4)
    with pytest.raises(ValueError, match="degree must be >= 0"):
        lemma_checks(pair, -1)  # not [], which would read as "all passed"
    assert [(c.name, c.passed) for c in lemma_checks(pair, 0)] == [
        ("factorization n=0", True)
    ]
    break_row(monkeypatch, 0)
    assert [c.passed for c in lemma_checks(pair, 0)] == [False]


# -- the factorization product kept on the pair ------------------------------


@pytest.mark.parametrize("broken_first", [False, True])
@pytest.mark.parametrize("row", [0, 4, 7])
def test_kept_product_does_not_hide_a_broken_row(monkeypatch, row, broken_first):
    pair = make_pair("log-assoc", 11)

    def sweep(n, broken):
        with monkeypatch.context() as patch:
            if broken:
                break_row(patch, row)
            return [c.passed for c in lemma_checks(pair, n)]

    for broken in (broken_first, not broken_first):
        for n in (9, 7):
            want = [d < row or not broken for d in range(n + 1)]
            assert sweep(n, broken) == want


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(SWEEP_PAIRS),
    st.lists(st.tuples(st.integers(0, 10), st.integers(0, 11)), min_size=1, max_size=6),
)
def test_kept_product_answers_as_a_fresh_pair(family_params, calls):
    # each call (n, row) breaks sA_row; row 11 lies beyond every n
    family, params = family_params
    pair = make_pair(family, 10, params)
    for n, row in calls:
        with pytest.MonkeyPatch.context() as patch:
            break_row(patch, row)
            fresh = make_pair(family, 10, params)
            want = identities.first_factorization_mismatch(fresh, n)
            assert identities.first_factorization_mismatch(pair, n) == want
            assert want == min(row, n + 1)


# -- production-matrix oracle, for h = y only ----------------------------------
# For h != y the engine builds sA from the "3.1" row by this same production
# recurrence, so the comparison below holds whatever that row holds: there it
# checks the recurrence's arithmetic, not the row.  For h = y, sA is read off
# P[1/l^2] and the comparison is a check of the row.


def production_matrix(pair: ShefferPair, n: int) -> list[list[Fraction]]:
    """P with R[0..n] P = R[1..n+1], where row i of R holds the x-coefficients
    of sA_i; solved by forward substitution, as R is lower triangular with a
    nonzero diagonal."""
    s = sheffer_appell_sequence(pair, n + 1)
    r = [[p.coeff(k) for k in range(n + 2)] for p in s]
    prod: list[list[Fraction]] = []
    for i in range(n + 1):
        prod.append(
            [
                (r[i + 1][k] - sum(r[i][j] * prod[j][k] for j in range(i))) / r[i][i]
                for k in range(n + 2)
            ]
        )
    return prod


def production_closed_form(pair: ShefferPair, n: int) -> list[list[Fraction]]:
    """Deutsch, Ferrari & Rinaldi, "Production matrices and Riordan arrays"
    (2009): an exponential Riordan array [d, g] has production matrix
    P[i][j] = i!/j! (z_{i-j} + j a_{i-j+1}) for j <= i+1, zero elsewhere,
    with z_{-1} = 0, A(t) = g'(g^{-1}(t)) and Z(t) = d'/d (g^{-1}(t)).
    For sA, d = 1/(l(g) l) and g = h^{-1}, so A = 1/h' and Z = b + c: the
    ordinary coefficients of the "3.1" series, read off independently."""
    t = derivative_recurrence_coeffs(pair, n + 1)
    fact = [math.factorial(k) for k in range(n + 2)]
    a = [v / fact[k] for k, v in enumerate(t.a)]
    z = [(b + c) / fact[k] for k, (b, c) in enumerate(zip(t.b, t.c))]

    def entry(i: int, j: int) -> Fraction:
        if j > i + 1:
            return Fraction(0)
        z_term = z[i - j] if j <= i else Fraction(0)
        return Fraction(fact[i], fact[j]) * (z_term + j * a[i - j + 1])

    return [[entry(i, j) for j in range(n + 2)] for i in range(n + 1)]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_production_matrix_of_catalog_families(family):
    params = {"lambda": Fraction(5, 2), "m": 1}
    spec_params = {k: v for k, v in params.items() if k in FAMILIES[family].params}
    pair = make_pair(family, 10, spec_params)
    assert production_matrix(pair, 8) == production_closed_form(pair, 8)


# -- integer rows, built once per pair: no rescale and no Fraction ------------


def test_warm_residual_sweep_calls_no_common_denominator(monkeypatch):
    """Sequence polynomials and derived series are stored as integer rows, so
    a residual sweep on a pair whose derived series are built scales none."""
    pair = make_pair("log-assoc", 12)
    assert all(r.passed for r in residual_checks(pair, 10))
    calls = []
    honest = rationals.common_denominator

    def counted(values):
        calls.append(values)
        return honest(values)

    for name, module in list(sys.modules.items()):
        if name.startswith("sheffermat") and vars(module).get("common_denominator"):
            monkeypatch.setattr(module, "common_denominator", counted)
    assert all(r.passed for r in residual_checks(pair, 10))
    assert calls == []


def test_derived_series_are_built_lazily():
    pair = make_pair("laguerre", 6, {"lambda": 0})
    assert set(vars(pair)) == {"l", "h"}
    sheffer_sequence(pair, 3)
    built = vars(pair)
    assert "derivative_recurrence" in built and "sheffer_polys" in built
    assert "sheffer_appell_polys" not in built
    assert "mixed_recurrence" not in built and "g" not in built


def count_fractions(monkeypatch) -> list:
    """From now on, record the arguments of every Fraction built."""
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    return built


def test_coefficient_vectors_are_built_once_per_pair(monkeypatch):
    """The extractors read the integer rows built once per pair and build no
    Fraction; every extraction slices the rows to the prefix of the top one."""
    pair = make_pair("log-assoc", 12)
    top = {label: COEFF_EXTRACTORS[label](pair, 10) for label in LABELS}
    built = count_fractions(monkeypatch)
    triples = {(label, n): COEFF_EXTRACTORS[label](pair, n)
               for label in LABELS for n in range(11)}
    assert built == []
    monkeypatch.undo()
    for (label, n), t in triples.items():
        full = top[label]
        for got, want in zip((t.a, t.b, t.c), (full.a, full.b, full.c)):
            assert got == want[: n + 1]


def session_task(pair: ShefferPair, kind: str, n: int) -> list:
    """One task of a long-lived session on a pair, as served: the sequence of
    one kind, the four (a, b, c) triples, the four residuals, the factorization
    at min(n, 12), and the JSON text of each."""
    if kind == "appell":
        sequence = appell_sequence(pair.l, n)
    elif kind == "sheffer":
        sequence = sheffer_sequence(pair, n)
    else:
        sequence = sheffer_appell_sequence(pair, n)
    triples = [COEFF_EXTRACTORS[label](pair, n).to_json() for label in LABELS]
    residuals = [RESIDUALS[label](pair, n).to_strings() for label in LABELS]
    return [[p.to_strings() for p in sequence], triples, residuals,
            factorization_check(pair, min(n, 12))]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_first_visit_session_task_builds_no_fraction(monkeypatch, family, kind):
    """A pair's first task builds every derived series, array and (a, b, c) row
    it reads, and serves all of it from integer rows: no Fraction is built."""
    params = {"lambda": Fraction(5, 2), "m": 1}
    spec_params = {k: v for k, v in params.items() if k in FAMILIES[family].params}
    pair = make_pair(family, 32, spec_params)
    built = count_fractions(monkeypatch)
    result = session_task(pair, kind, 30)
    assert built == []
    assert result[-1] is True


@pytest.mark.parametrize(
    "family, params",
    [("laguerre", {"lambda": Fraction(5, 2)}), ("log-assoc", {}), ("miller-lee", {"m": 1})],
)
def test_warm_residual_sweep_builds_no_fraction(monkeypatch, family, params):
    """The residuals read the integer (D, a, b, c) rows: no Fraction is built
    in a sweep on a pair whose derived series are built."""
    pair = make_pair(family, 13, params)
    assert all(r.passed for r in residual_checks(pair, 12))
    built = count_fractions(monkeypatch)
    assert all(r.passed for r in residual_checks(pair, 12))
    assert built == []


def test_leading_coefficient_contract_runs_once_per_array(monkeypatch):
    calls = []
    check = ShefferPair._checked

    def counted(self, kind, polys, lead):
        calls.append(kind)
        return check(self, kind, polys, lead)

    monkeypatch.setattr(ShefferPair, "_checked", counted)
    pair = make_pair("laguerre", 10, {"lambda": Fraction(5, 2)})
    for n in range(11):
        sheffer_appell_sequence(pair, n)
        sheffer_sequence(pair, n)
    assert sorted(calls) == ["sheffer", "sheffer-appell"]


# -- the whole pair against the plain-Fraction references ----------------------


@settings(max_examples=60, deadline=None)
@given(plain.pairs(2, 12))
def test_derived_series_match_reference_on_random_pairs(lh):
    plain.check_pair(*lh)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_derived_series_match_reference_on_catalog(family):
    params = {"lambda": Fraction(5, 2), "m": 2}
    spec_params = {k: v for k, v in params.items() if k in FAMILIES[family].params}
    pair = make_pair(family, 40, spec_params)
    plain.check_pair(list(pair.l.coeffs), list(pair.h.coeffs))


def test_extractors_at_n_zero_on_an_order_one_pair():
    # l = 2 + 3y, h = 5y: the identity vectors live at order 0, where the
    # truncated h and g are the zero series
    pair = ShefferPair(TruncatedSeries([2, 3]), TruncatedSeries([0, 5]))
    f = Fraction
    want = {
        "2.1": ((0,), (0,), (0,)),
        "3.1": ((f(1, 5),), (f(-3, 2),), (f(-3, 10),)),
        "3.2": ((5,), (f(-15, 2),), (f(-3, 2),)),
        "3.3": ((f(1, 5),), (f(-3, 2),), (f(-3, 10),)),
    }
    for label, extract in COEFF_EXTRACTORS.items():
        t = extract(pair, 0)
        assert (t.a, t.b, t.c) == want[label]


ROW_ATTRS = {
    "2.1": "differential_equation",
    "3.1": "derivative_recurrence",
    "3.2": "mixed_recurrence",
    "3.3": "convolution_recurrence",
}
CATALOG_CELLS = [
    ("laguerre", {"lambda": 0}),
    ("laguerre", {"lambda": Fraction(5, 2)}),
    ("miller-lee", {"m": 0}),
    ("miller-lee", {"m": 1}),
] + [(family, {}) for family in sorted(FAMILIES) if not FAMILIES[family].params]
CATALOG_IDS = [
    "-".join([f, *(f"{k}={v}" for k, v in p.items())]) for f, p in CATALOG_CELLS
]


@pytest.mark.parametrize("family, params", CATALOG_CELLS, ids=CATALOG_IDS)
def test_identity_rows_are_reduced(family, params):
    """Every stored (D, a, b, c) row is reduced as one row: gcd(D, *a, *b, *c) = 1."""
    pair = make_pair(family, 41, params)
    for label, attr in ROW_ATTRS.items():
        den, a, b, c = getattr(pair, attr)
        assert len(a) == len(b) == len(c) == 41, label
        assert den > 0 and math.gcd(den, *a, *b, *c) == 1, label


@pytest.mark.parametrize("family, params", CATALOG_CELLS, ids=CATALOG_IDS)
def test_arrays_of_an_appell_pair_cost_one_product(family, params):
    """With its derived series built, an Appell pair (g = y) reads both
    arrays off P[d]: all they cost is the product d = 1/l 1/l.  Any other h
    builds both arrays by the "3.1" recurrence on its integer row, with no
    series product."""
    pair = make_pair(family, 32, params)
    pair.reciprocal_l, pair.derivative_recurrence
    with counting() as arrays:
        pair.sheffer_polys, pair.sheffer_appell_polys
    with counting() as square:
        pair.reciprocal_l * pair.reciprocal_l
    if family in ("laguerre", "log-assoc"):
        assert arrays["product"] == [0, 0]
    else:
        assert arrays == square


def test_log_assoc_derivative_recurrence_row_is_integral():
    """For (1, e^y - 1), a = dv(e^{-y}) = ((-1)^k) and b = c = 0 over D = 1."""
    den, a, b, c = make_pair("log-assoc", 41).derivative_recurrence
    assert den == 1
    assert a == [(-1) ** k for k in range(41)]
    assert b == c == [0] * 41
