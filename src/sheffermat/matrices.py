"""Pascal functional matrices, Wronskian matrices, and their identities.

Everything here is evaluated at y = 0: the Pascal functional matrix of a
series f is the lower triangular matrix with entry (i, j) equal to
C(i, j) * f^(i-j)(0), and the Wronskian column of f stacks
f(0), f'(0), ..., f^(n)(0).  The public constructor coerces every entry by
:func:`~sheffermat.rationals.rat`, so a matrix holds rationals only (a
float or a polynomial is a TypeError), and stores each row as one reduced
integer row ``(D, numerators)``: gcd(D, *numerators) = 1 and D > 0, a
canonical form that ``==`` and ``hash`` compare.  Sums, scalar multiples,
products and the builders work on integers and reduce once per row: row i
of A @ B is one :func:`~sheffermat.rationals.combine_row` of B's rows,
which skips the zero weights of A's row i, so triangular and diagonal
factors cost only their nonzero entries.

The four classical identities relating these matrices are exposed as
boolean checks:

* linearity of both constructions (tested as an invariant),
* the Pascal matrix of a product is the (commuting) product of Pascal
  matrices,
* the Wronskian of a product factors as Pascal times Wronskian,
* the Wronskian of a composition f(h(y)) with a delta series h factors
  through the matrix of powers W[1, h, ..., h^n] and the factorial
  diagonal.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import NotDeltaSeriesError, check_size
from .rationals import Row, combine_row, common_denominator, rat, reduce_row
from .series import TruncatedSeries, power_rows


class Matrix:
    """A dense rectangular matrix over the rationals, stored as integer rows."""

    __slots__ = ("_rows",)

    def __init__(self, rows: Iterable[Iterable[Fraction | int | str]]):
        # reduced Fractions over the lcm of their denominators: a reduced row
        packed = tuple(common_denominator([rat(e) for e in row]) for row in rows)
        if not packed or not packed[0][1]:
            raise ValueError("matrix must have at least one row and one column")
        if any(len(p) != len(packed[0][1]) for _, p in packed):
            raise ValueError("all rows must have equal length")
        self._rows = packed

    @classmethod
    def _reduced(cls, rows: Iterable[Row]) -> Matrix:
        """The matrix of integer rows of one shape, each reduced by one gcd."""
        m = cls.__new__(cls)
        m._rows = tuple([reduce_row(den, p) for den, p in rows])
        return m

    # -- constructors ----------------------------------------------------

    @classmethod
    def column(cls, entries: Sequence[Fraction | int]) -> Matrix:
        return cls([e] for e in entries)

    # -- structure ----------------------------------------------------------

    @property
    def rows(self) -> int:
        return len(self._rows)

    @property
    def cols(self) -> int:
        return len(self._rows[0][1])

    def row(self, i: int) -> tuple[Fraction, ...]:
        den, p = self._rows[i]
        return tuple(Fraction(c, den) for c in p)

    def integer_row(self, i: int) -> Row:
        """The stored row i, ``(D, numerators)`` with gcd 1; not to be modified."""
        return self._rows[i]

    def column_entries(self, j: int) -> tuple[Fraction, ...]:
        return tuple(Fraction(p[j], den) for den, p in self._rows)

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: Matrix) -> Matrix:
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("matrix addition requires equal shapes")
        return Matrix._reduced(
            (da * db, [a * db + b * da for a, b in zip(pa, pb)])
            for (da, pa), (db, pb) in zip(self._rows, other._rows)
        )

    def __mul__(self, scalar: Fraction | int) -> Matrix:
        if isinstance(scalar, (Fraction, int)):
            return Matrix._reduced(
                (den * scalar.denominator, [c * scalar.numerator for c in p])
                for den, p in self._rows
            )
        return NotImplemented

    __rmul__ = __mul__

    def __matmul__(self, other: Matrix) -> Matrix:
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        right = other._rows
        return Matrix._reduced(combine_row(den, p, right) for den, p in self._rows)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Matrix):
            return self._rows == other._rows
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("Matrix", tuple((den, tuple(p)) for den, p in self._rows)))

    def __repr__(self) -> str:
        return f"Matrix({[list(self.row(i)) for i in range(self.rows)]!r})"


def pascal_matrix(f: TruncatedSeries, n: int) -> Matrix:
    """The (n+1) x (n+1) Pascal functional matrix of f at y = 0.

    The (i, j) entry is C(i, j) * f^(i-j)(0) = i!/j! * f_(i-j) for i >= j,
    zero above the diagonal; the Pascal matrix of the constant series 1 is
    the identity.
    """
    check_size(n, f.order, "n")
    den, p = f.row
    return Matrix._reduced(
        (den, [math.perm(i, i - j) * p[i - j] if i >= j else 0 for j in range(n + 1)])
        for i in range(n + 1)
    )


def wronskian_vector(f: TruncatedSeries, n: int) -> Matrix:
    """The Wronskian column [f(0), f'(0), ..., f^(n)(0)]^T, f^(k)(0) = k! * f_k."""
    check_size(n, f.order, "n")
    den, p = f.row
    return Matrix._reduced((den, [math.factorial(k) * p[k]]) for k in range(n + 1))


def wronskian_powers_matrix(h: TruncatedSeries, n: int) -> Matrix:
    """W[1, h, h^2, ..., h^n] at y = 0 for a delta series h.

    Lower triangular because h^j has valuation j; the (j, j) entry is
    j! * h'(0)^j.
    """
    if not h.is_delta:
        raise NotDeltaSeriesError("powers matrix requires a delta series")
    check_size(n, h.order, "n")
    columns = power_rows((h.row[0], h.row[1][: n + 1]), n)
    den = math.lcm(*(d for d, _ in columns))
    scaled = [(den // d, p) for d, p in columns]
    return Matrix._reduced(
        (den, [math.factorial(i) * s * p[i] for s, p in scaled]) for i in range(n + 1)
    )


def omega(n: int) -> Matrix:
    """The diagonal matrix diag(0!, 1!, ..., n!)."""
    check_size(n, n, "n")  # any size n >= 0
    rows = ((1, [0] * k + [math.factorial(k)] + [0] * (n - k)) for k in range(n + 1))
    return Matrix._reduced(rows)


def omega_inverse(n: int) -> Matrix:
    """The exact inverse diag(1/0!, 1/1!, ..., 1/n!): row k is (k!, e_k)."""
    check_size(n, n, "n")  # any size n >= 0
    rows = ((math.factorial(k), [0] * k + [1] + [0] * (n - k)) for k in range(n + 1))
    return Matrix._reduced(rows)


def check_property_product_pascal(
    f: TruncatedSeries, g: TruncatedSeries, n: int
) -> bool:
    """P[f*g] = P[f] P[g] = P[g] P[f], entrywise exact."""
    product = pascal_matrix(f * g, n)
    pf, pg = pascal_matrix(f, n), pascal_matrix(g, n)
    return product == pf @ pg and product == pg @ pf


def check_property_product_wronskian(
    f: TruncatedSeries, g: TruncatedSeries, n: int
) -> bool:
    """W[f*g] = P[f] W[g] = P[g] W[f], entrywise exact."""
    product = wronskian_vector(f * g, n)
    fg = pascal_matrix(f, n) @ wronskian_vector(g, n)
    gf = pascal_matrix(g, n) @ wronskian_vector(f, n)
    return product == fg and product == gf


def check_property_composition(
    l: TruncatedSeries, h: TruncatedSeries, n: int
) -> bool:
    """W[l(h(y))] = W[1, h, ..., h^n] * Omega^-1 * W[l] for delta h."""
    lhs = wronskian_vector(l.compose(h), n)
    rhs = wronskian_powers_matrix(h, n) @ (omega_inverse(n) @ wronskian_vector(l, n))
    return lhs == rhs
