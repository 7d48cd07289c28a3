import math
import operator
from fractions import Fraction

import pytest
from hypothesis import example, given
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

import plain_fractions as plain

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)


def above_diagonal(m):
    return [m.row(i)[j] for i in range(m.rows) for j in range(i + 1, m.cols)]


def diag(entries):
    """The explicit rows of the diagonal matrix of ``entries``."""
    n = len(entries)
    return [[e if i == j else 0 for j in range(n)] for i, e in enumerate(entries)]


# -- Matrix basics -----------------------------------------------------------


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


def rows(m):
    return [list(m.row(i)) for i in range(m.rows)]


@given(matrix_pairs())
@example((
    rows(pascal_matrix(plain.geometric_series(6), 6)),
    rows(wronskian_powers_matrix(TruncatedSeries([0, Fraction(2, 3), 5, 1, 0, 0, 7]), 6)),
))
def test_matmul_is_the_schoolbook_product(case):
    a, b = case
    assert Matrix(a) @ Matrix(b) == Matrix(plain.matmul(a, b))


def test_scalar_and_addition():
    a = Matrix([[1, 2], [3, 4]])
    assert a * Fraction(1, 2) == Matrix(
        [[Fraction(1, 2), 1], [Fraction(3, 2), 2]]
    )
    assert a + a == a * 2
    with pytest.raises(ValueError, match="equal shapes"):
        a + Matrix([[1, 2]])


@pytest.mark.parametrize(
    "method, operation",
    [
        ("__add__", operator.add),
        ("__mul__", operator.mul),
        ("__matmul__", operator.matmul),
        ("__eq__", operator.eq),
    ],
)
def test_foreign_operand_is_not_implemented(method, operation):
    a = Matrix([[1, 2], [3, 4]])
    assert getattr(a, method)("x") is NotImplemented
    if operation is operator.eq:
        assert operation(a, "x") is False
    else:
        with pytest.raises(TypeError):
            operation(a, "x")


def test_repr_round_trips():
    a = Matrix([[Fraction(1, 2), 0], [-3, Fraction(5, 7)]])
    assert repr(a) == (
        "Matrix([[Fraction(1, 2), Fraction(0, 1)], [Fraction(-3, 1), Fraction(5, 7)]])"
    )
    assert eval(repr(a), {"Matrix": Matrix, "Fraction": Fraction}) == a


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
        m @ Matrix(diag([1] * cols)),
        Matrix(diag([1] * rows)) @ m,
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
def test_column_matches_explicit_rows(entries):
    column = Matrix([[e] for e in entries])
    assert Matrix.column(entries) == column
    assert hash(Matrix.column(entries)) == hash(column)
    assert is_canonical(Matrix.column(entries))


def test_column_needs_an_entry():
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
@example(TruncatedSeries([0, Fraction(2, 3), 5, Fraction(-1, 7), 0, 2, Fraction(1, 9)]))
def test_powers_matrix_is_repeated_series_products(h):
    """At every size m up to the series' order n: the leading block of size n."""
    n = h.order
    columns, power = [], [Fraction(1)] + [Fraction(0)] * n
    for _ in range(n + 1):
        columns.append([math.factorial(k) * c for k, c in enumerate(power)])
        power = plain.truncated_product(power, list(h.coeffs))
    expected = [list(r) for r in zip(*columns)]
    for m in range(n + 1):
        assert_rows(wronskian_powers_matrix(h, m), [r[: m + 1] for r in expected[: m + 1]])


@pytest.mark.parametrize("n", range(31))
def test_omega_and_its_inverse_are_their_definitions(n):
    """Entry by entry, and the same reduced rows (and hash) as the matrices
    the constructor builds from the explicit rows, though built straight
    from integer rows."""
    factorials = [Fraction(math.factorial(k)) for k in range(n + 1)]
    inverses = [1 / f for f in factorials]
    assert_rows(omega(n), diag(factorials))
    assert_rows(omega_inverse(n), diag(inverses))
    for got, want in ((omega(n), factorials), (omega_inverse(n), inverses)):
        assert got == Matrix(diag(want))
        assert hash(got) == hash(Matrix(diag(want)))
    assert omega(n) @ omega_inverse(n) == Matrix(diag([1] * (n + 1)))


# -- Pascal matrices -----------------------------------------------------------


def test_pascal_of_exponential():
    m = pascal_matrix(plain.exponential_series(2), 2)
    assert m == Matrix([[1, 0, 0], [1, 1, 0], [1, 2, 1]])


def test_pascal_of_one_is_identity():
    one = TruncatedSeries([1], 2)
    assert pascal_matrix(one, 2) == Matrix(diag([1] * 3))


def test_pascal_of_geometric():
    m = pascal_matrix(plain.geometric_series(2), 2)
    assert m == Matrix([[1, 0, 0], [1, 1, 0], [2, 2, 1]])


def test_builders_reject_a_negative_size():
    with pytest.raises(ValueError):
        pascal_matrix(plain.geometric_series(2), -1)
    with pytest.raises(ValueError):
        wronskian_vector(plain.geometric_series(2), -1)
    with pytest.raises(ValueError):
        wronskian_powers_matrix(TruncatedSeries([0, 1, 3]), -1)


def test_pascal_requires_order():
    with pytest.raises(InsufficientOrderError):
        pascal_matrix(plain.geometric_series(2), 3)


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


def test_powers_matrix_diagonal_entries():
    h = TruncatedSeries([0, Fraction(2, 3), 5, 1])
    m = wronskian_powers_matrix(h, 3)
    assert all(e == 0 for e in above_diagonal(m))
    for j in range(4):
        assert m.row(j)[j] == math.factorial(j) * Fraction(2, 3) ** j
    assert m.row(1)[1] == Fraction(2, 3)


def test_powers_matrix_requires_delta():
    with pytest.raises(NotDeltaSeriesError):
        wronskian_powers_matrix(plain.geometric_series(3), 3)


# -- the four properties ---------------------------------------------------


def test_pascal_product_exponential_geometric():
    assert check_property_product_pascal(plain.exponential_series(6), plain.geometric_series(6), 6)


def test_wronskian_product_mixed_rings():
    e = plain.exponential_series(5)
    assert check_property_product_wronskian(e, e, 5)
    # e^y * e^{ty} has the derivative vector of e^{(t+1)y}
    t = Fraction(2, 3)
    lhs = wronskian_vector(e * exp_ty(t, 5), 5)
    rhs = pascal_matrix(e, 5) @ wronskian_vector(exp_ty(t, 5), 5)
    assert lhs == rhs
    assert lhs == Matrix.column([(t + 1) ** k for k in range(6)])


def test_composition_property_collapse():
    l = plain.geometric_series(5)
    h = TruncatedSeries([0, -1, -1, -1, -1, -1])
    assert check_property_composition(l, h, 5)
    assert l.compose(h) == TruncatedSeries([1, -1, 0, 0, 0, 0])


def test_composition_property_identity_delta():
    l = plain.exponential_series(4)
    assert check_property_composition(l, TruncatedSeries.identity(4), 4)


def test_composition_requires_delta():
    with pytest.raises(NotDeltaSeriesError):
        check_property_composition(plain.geometric_series(3), plain.geometric_series(3), 3)
    # h(0) = 0 and h'(0) = 0: the composition is defined, the powers matrix is not
    with pytest.raises(NotDeltaSeriesError):
        check_property_composition(plain.geometric_series(3), TruncatedSeries([0, 0, 1, 1]), 3)
