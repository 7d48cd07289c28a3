import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sheffermat import (
    InsufficientOrderError,
    Matrix,
    NotDeltaSeriesError,
    Poly,
    TruncatedSeries,
    check_property_composition,
    check_property_product_pascal,
    check_property_product_wronskian,
    omega,
    omega_inverse,
    pascal_matrix,
    wronskian_powers_matrix,
    wronskian_vector,
)

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)


def rational_series(order):
    return st.lists(
        rationals, min_size=order + 1, max_size=order + 1
    ).map(TruncatedSeries)


def exponential(order):
    return TruncatedSeries(
        [Fraction(1, math.factorial(k)) for k in range(order + 1)]
    )


def geometric(order):
    return TruncatedSeries([Fraction(1)] * (order + 1))


def above_diagonal(m):
    return [m.row(i)[j] for i in range(m.rows) for j in range(i + 1, m.cols)]


# -- Matrix basics -----------------------------------------------------------


def test_identity_and_diagonal():
    i2 = Matrix.diagonal([1, 1])
    assert i2.row(0) == (1, 0)
    assert i2.row(1) == (0, 1)
    d = Matrix.diagonal([Fraction(2), Fraction(3)])
    assert d.row(0) == (2, 0) and d.row(1) == (0, 3)


def test_rectangularity_enforced():
    with pytest.raises(ValueError):
        Matrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        Matrix([])


def test_matmul_and_shapes():
    a = Matrix([[1, 2], [3, 4]])
    b = Matrix([[0, 1], [1, 0]])
    assert a @ b == Matrix([[2, 1], [4, 3]])
    with pytest.raises(ValueError):
        a @ Matrix([[1, 2]])


def schoolbook_product(a, b):
    """Reference product: one Fraction multiply-add at a time."""
    return [
        [sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)]
        for row in a
    ]


@st.composite
def matrix_pairs(draw):
    """(A, B) with A p x q and B q x r: dense, or both lower triangular,
    with some rows of A set to zero."""
    p, q, r = (draw(st.integers(1, 5)) for _ in range(3))
    triangular = draw(st.booleans())
    if triangular:
        p = q = r

    def entries(rows, cols):
        row = st.lists(rationals, min_size=cols, max_size=cols)
        m = draw(st.lists(row, min_size=rows, max_size=rows))
        if triangular:
            m = [[e if j <= i else 0 for j, e in enumerate(line)]
                 for i, line in enumerate(m)]
        return m

    a, b = entries(p, q), entries(q, r)
    zero_rows = draw(st.sets(st.integers(0, p - 1), max_size=p))
    a = [[0] * q if i in zero_rows else row for i, row in enumerate(a)]
    return a, b


@given(matrix_pairs())
def test_matmul_is_the_schoolbook_product(case):
    a, b = case
    assert Matrix(a) @ Matrix(b) == Matrix(schoolbook_product(a, b))


def test_triangular_matmul_matches_schoolbook():
    p = pascal_matrix(geometric(6), 6)
    w = wronskian_powers_matrix(TruncatedSeries([0, Fraction(2, 3), 5, 1, 0, 0, 7]), 6)
    p_rows, w_rows = ([m.row(i) for i in range(7)] for m in (p, w))
    assert p @ w == Matrix(schoolbook_product(p_rows, w_rows))


def test_scalar_and_addition():
    a = Matrix([[1, 2], [3, 4]])
    assert a * Fraction(1, 2) == Matrix(
        [[Fraction(1, 2), 1], [Fraction(3, 2), 2]]
    )
    assert a + a == a * 2


def test_column_entries():
    a = Matrix.column([1, 2, 3])
    assert (a.rows, a.cols) == (3, 1)
    assert a.column_entries(0) == (1, 2, 3)


def test_matrix_entries_are_rational():
    assert Matrix([["-1/3", 2]]).row(0) == (Fraction(-1, 3), Fraction(2))
    with pytest.raises(TypeError):
        Matrix([[Poly((0, 1))]])
    with pytest.raises(TypeError):
        Matrix([[1.5]])


# -- canonical integer rows ------------------------------------------------------


def is_canonical(m):
    return all(
        den > 0 and math.gcd(den, *p) == 1
        for den, p in (m.integer_row(i) for i in range(m.rows))
    )


@st.composite
def rational_matrices(draw):
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    row = st.lists(rationals, min_size=cols, max_size=cols)
    return draw(st.lists(row, min_size=rows, max_size=rows))


def as_int_or_string(q, i):
    """Alternate the two other accepted encodings of q: an int when q is
    integral, a "p/q" string otherwise and on every other entry."""
    if q.denominator == 1 and i % 2:
        return int(q)
    return f"{q.numerator}/{q.denominator}"


@given(rational_matrices(), rationals.filter(lambda q: q != 0))
def test_every_route_to_a_matrix_gives_one_canonical_form(entries, s):
    m = Matrix(entries)
    rows, cols = m.rows, m.cols
    routes = [
        Matrix(
            [as_int_or_string(q, i + j) for j, q in enumerate(r)]
            for i, r in enumerate(entries)
        ),
        (m * s) * (1 / s),
        m + Matrix([[0] * cols] * rows),
        m @ Matrix.diagonal([1] * cols),
        Matrix.diagonal([1] * rows) @ m,
    ]
    for other in routes:
        assert other == m and hash(other) == hash(m)
        assert is_canonical(other)
    assert is_canonical(m)
    assert m * 0 == Matrix([[0] * cols for _ in range(rows)])
    for i, r in enumerate(entries):
        assert m.row(i) == tuple(r)
        assert all(type(e) is Fraction for e in m.row(i))
    for j in range(cols):
        assert m.column_entries(j) == tuple(r[j] for r in entries)


@given(st.lists(rationals, min_size=1, max_size=6))
def test_diagonal_and_column_match_explicit_rows(entries):
    n = len(entries)
    diagonal = Matrix(
        [e if i == j else 0 for j in range(n)] for i, e in enumerate(entries)
    )
    column = Matrix([[e] for e in entries])
    assert Matrix.diagonal(entries) == diagonal
    assert hash(Matrix.diagonal(entries)) == hash(diagonal)
    assert Matrix.column(entries) == column
    assert hash(Matrix.column(entries)) == hash(column)
    assert is_canonical(Matrix.diagonal(entries))
    assert is_canonical(Matrix.column(entries))


def test_diagonal_and_column_need_an_entry():
    with pytest.raises(ValueError):
        Matrix.diagonal([])
    with pytest.raises(ValueError):
        Matrix.column([])


# -- the builders against plain Fraction definitions ------------------------------


def series_up_to_order(max_order, delta=False):
    """A series of order 0..max_order (1..max_order if delta); the zero
    series is drawn explicitly as well."""
    def build(order):
        tail = st.lists(rationals, min_size=order + 1, max_size=order + 1)
        if delta:
            lead = rationals.filter(lambda q: q != 0)
            tail = st.tuples(lead, tail).map(lambda t: [0, t[0], *t[1][2:]])
        else:
            tail = st.one_of(tail, st.just([0] * (order + 1)))
        return tail.map(TruncatedSeries)

    return st.integers(1 if delta else 0, max_order).flatmap(build)


def fraction_product(a, b):
    """Truncated series product, one Fraction multiply-add at a time."""
    return [
        sum((a[k] * b[m - k] for k in range(m + 1)), Fraction(0))
        for m in range(len(a))
    ]


def assert_rows(m, expected):
    assert (m.rows, m.cols) == (len(expected), len(expected[0]))
    for i, row in enumerate(expected):
        assert m.row(i) == tuple(row)
    assert is_canonical(m)


@given(series_up_to_order(10))
def test_pascal_matrix_is_its_definition(f):
    n, c = f.order, f.coeffs
    expected = [
        [
            math.comb(i, j) * math.factorial(i - j) * c[i - j] if i >= j else 0
            for j in range(n + 1)
        ]
        for i in range(n + 1)
    ]
    assert_rows(pascal_matrix(f, n), expected)


@given(series_up_to_order(10))
def test_wronskian_vector_is_its_definition(f):
    assert_rows(
        wronskian_vector(f, f.order),
        [[math.factorial(k) * c] for k, c in enumerate(f.coeffs)],
    )


@given(series_up_to_order(10, delta=True))
def test_powers_matrix_is_repeated_series_products(h):
    n = h.order
    columns, power = [], [Fraction(1)] + [Fraction(0)] * n
    for _ in range(n + 1):
        columns.append([math.factorial(k) * c for k, c in enumerate(power)])
        power = fraction_product(power, list(h.coeffs))
    assert_rows(wronskian_powers_matrix(h, n), [list(r) for r in zip(*columns)])


@pytest.mark.parametrize("n", range(11))
def test_omega_and_its_inverse_are_their_definitions(n):
    def diag(entries):
        return [
            [e if i == j else Fraction(0) for j in range(n + 1)]
            for i, e in enumerate(entries)
        ]

    factorials = [Fraction(math.factorial(k)) for k in range(n + 1)]
    assert_rows(omega(n), diag(factorials))
    assert_rows(omega_inverse(n), diag([1 / f for f in factorials]))


# -- Pascal matrices -----------------------------------------------------------


def test_pascal_of_exponential():
    m = pascal_matrix(exponential(2), 2)
    assert m == Matrix([[1, 0, 0], [1, 1, 0], [1, 2, 1]])


def test_pascal_of_one_is_identity():
    one = TruncatedSeries([1], 2)
    assert pascal_matrix(one, 2) == Matrix.diagonal([1] * 3)


def test_pascal_of_geometric():
    m = pascal_matrix(geometric(2), 2)
    assert m == Matrix([[1, 0, 0], [1, 1, 0], [2, 2, 1]])


def test_builders_reject_a_negative_size():
    with pytest.raises(ValueError):
        pascal_matrix(geometric(2), -1)
    with pytest.raises(ValueError):
        wronskian_vector(geometric(2), -1)
    with pytest.raises(ValueError):
        wronskian_powers_matrix(TruncatedSeries([0, 1, 3]), -1)


def test_pascal_requires_order():
    with pytest.raises(InsufficientOrderError):
        pascal_matrix(geometric(2), 3)


# -- Wronskian vectors and matrices -----------------------------------------


def exp_ty(t, order):
    """e^{ty}: the series e^{xy} with x set to the rational t."""
    return (TruncatedSeries.identity(order) * t).exp()


def test_wronskian_of_exp_xy():
    # W_2[e^{xy}] = (1, x, x^2)^T: entries of degree <= 2 in x, so three
    # distinct rationals x = t pin the identity down
    for t in (Fraction(-3, 2), Fraction(0), Fraction(5, 7)):
        assert wronskian_vector(exp_ty(t, 2), 2) == Matrix.column([1, t, t**2])


def test_wronskian_of_constant_one():
    one = TruncatedSeries([1], 2)
    assert wronskian_vector(one, 2) == Matrix.column([1, 0, 0])


def test_wronskian_of_y_squared():
    y2 = TruncatedSeries([0, 0, 1])
    assert wronskian_vector(y2, 2) == Matrix.column([0, 0, 2])


# -- powers matrix and omega ---------------------------------------------------


def test_powers_matrix_of_identity_is_omega():
    y = TruncatedSeries.identity(3)
    assert wronskian_powers_matrix(y, 3) == omega(3)


def test_powers_matrix_of_mobius():
    h = TruncatedSeries([0, -1, -1])
    assert wronskian_powers_matrix(h, 2) == Matrix(
        [[1, 0, 0], [0, -1, 0], [0, -2, 2]]
    )


def test_powers_matrix_matches_repeated_products():
    h = TruncatedSeries([0, Fraction(2, 3), 5, Fraction(-1, 7), 0, 2, Fraction(1, 9)])
    columns, power = [], TruncatedSeries([1], 6)
    for _ in range(7):
        columns.append(wronskian_vector(power, 6).column_entries(0))
        power = power * h
    assert wronskian_powers_matrix(h, 6) == Matrix(zip(*columns))
    assert wronskian_powers_matrix(h, 4) == Matrix(
        [row[:5] for row in zip(*columns)][:5]
    )

def test_powers_matrix_diagonal_entries():
    h = TruncatedSeries([0, Fraction(2, 3), 5, 1])
    m = wronskian_powers_matrix(h, 3)
    assert all(e == 0 for e in above_diagonal(m))
    for j in range(4):
        assert m.row(j)[j] == math.factorial(j) * Fraction(2, 3) ** j
    assert m.row(1)[1] == Fraction(2, 3)


def test_powers_matrix_requires_delta():
    with pytest.raises(NotDeltaSeriesError):
        wronskian_powers_matrix(geometric(3), 3)


def test_omega_and_inverse():
    assert omega(2) == Matrix.diagonal([1, 1, 2])
    assert omega_inverse(3) == Matrix.diagonal(
        [1, 1, Fraction(1, 2), Fraction(1, 6)]
    )
    assert omega(4) @ omega_inverse(4) == Matrix.diagonal([1] * 5)


# -- the four properties ---------------------------------------------------


def test_pascal_product_exponential_geometric():
    assert check_property_product_pascal(exponential(6), geometric(6), 6)


def test_wronskian_product_mixed_rings():
    e = exponential(5)
    assert check_property_product_wronskian(e, e, 5)
    # e^y * e^{ty} has the derivative vector of e^{(t+1)y}
    t = Fraction(2, 3)
    lhs = wronskian_vector(e * exp_ty(t, 5), 5)
    rhs = pascal_matrix(e, 5) @ wronskian_vector(exp_ty(t, 5), 5)
    assert lhs == rhs
    assert lhs == Matrix.column([(t + 1) ** k for k in range(6)])


def test_composition_property_collapse():
    l = geometric(5)
    h = TruncatedSeries([0, -1, -1, -1, -1, -1])
    assert check_property_composition(l, h, 5)
    assert l.compose(h) == TruncatedSeries([1, -1, 0, 0, 0, 0])


def test_composition_property_identity_delta():
    l = exponential(4)
    assert check_property_composition(l, TruncatedSeries.identity(4), 4)


def test_composition_requires_delta():
    with pytest.raises(NotDeltaSeriesError):
        check_property_composition(geometric(3), geometric(3), 3)
    # h(0) = 0 and h'(0) = 0: the composition is defined, the powers matrix is not
    with pytest.raises(NotDeltaSeriesError):
        check_property_composition(geometric(3), TruncatedSeries([0, 0, 1, 1]), 3)


@given(rational_series(4), rational_series(4), rationals, rationals)
def test_linearity_of_pascal_and_wronskian(f, g, u, v):
    combo = f * u + g * v
    assert pascal_matrix(combo, 4) == pascal_matrix(f, 4) * u + pascal_matrix(
        g, 4
    ) * v
    assert wronskian_vector(combo, 4) == wronskian_vector(
        f, 4
    ) * u + wronskian_vector(g, 4) * v


@given(rational_series(4), rational_series(4))
def test_pascal_product_randomized(f, g):
    assert all(e == 0 for e in above_diagonal(pascal_matrix(f, 4)))
    assert check_property_product_pascal(f, g, 4)


@given(rational_series(4), rational_series(4))
def test_wronskian_product_randomized(f, g):
    assert check_property_product_wronskian(f, g, 4)


@given(
    rational_series(4),
    st.tuples(
        rationals.filter(lambda q: q != 0), rationals, rationals, rationals
    ),
)
def test_composition_randomized(l, tail):
    h = TruncatedSeries((Fraction(0),) + tail)
    assert check_property_composition(l, h, 4)
