"""Pascal functional matrices, Wronskian matrices, and their identities.

Everything here is evaluated at y = 0: the Pascal functional matrix of a
series f is the lower triangular matrix with entry (i, j) equal to
C(i, j) * f^(i-j)(0), and the Wronskian column of f stacks
f(0), f'(0), ..., f^(n)(0).  Every entry is coerced by
:func:`~sheffermat.rationals.rat`, as the series coefficients are, so a
matrix holds rationals only; a float or a polynomial is a TypeError.
A product scales each row of the right factor to integers once and forms
each row of the result with :func:`~sheffermat.rationals.combine`, which
skips zero weights, so triangular and diagonal factors cost only their
nonzero entries.

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

from .errors import InsufficientOrderError, NotDeltaSeriesError
from .rationals import combine, common_denominator, rat
from .series import TruncatedSeries, power_rows


class Matrix:
    """A dense rectangular matrix over the rationals."""

    __slots__ = ("_rows",)

    def __init__(self, rows: Iterable[Iterable[Fraction | int | str]]):
        packed = tuple(tuple(rat(e) for e in row) for row in rows)
        if not packed or not packed[0]:
            raise ValueError("matrix must have at least one row and one column")
        width = len(packed[0])
        if any(len(row) != width for row in packed):
            raise ValueError("all rows must have equal length")
        self._rows = packed

    # -- constructors ----------------------------------------------------

    @classmethod
    def diagonal(cls, entries: Sequence[Fraction | int]) -> Matrix:
        n = len(entries)
        return cls([entries[i] if i == j else 0 for j in range(n)] for i in range(n))

    @classmethod
    def column(cls, entries: Sequence[Fraction | int]) -> Matrix:
        return cls([[e] for e in entries])

    # -- structure ----------------------------------------------------------

    @property
    def rows(self) -> int:
        return len(self._rows)

    @property
    def cols(self) -> int:
        return len(self._rows[0])

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self._rows[i]

    def column_entries(self, j: int) -> tuple[Fraction, ...]:
        return tuple(row[j] for row in self._rows)

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: Matrix) -> Matrix:
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("matrix addition requires equal shapes")
        return Matrix(
            [a + b for a, b in zip(ra, rb)] for ra, rb in zip(self._rows, other._rows)
        )

    def __mul__(self, scalar: Fraction | int) -> Matrix:
        if isinstance(scalar, (Fraction, int)):
            return Matrix([c * scalar for c in row] for row in self._rows)
        return NotImplemented

    __rmul__ = __mul__

    def __matmul__(self, other: Matrix) -> Matrix:
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        scaled = [common_denominator(row) for row in other._rows]
        return Matrix(combine(row, scaled) for row in self._rows)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Matrix):
            return self._rows == other._rows
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("Matrix", self._rows))

    def __repr__(self) -> str:
        return f"Matrix({[list(r) for r in self._rows]!r})"


def _require_order(f: TruncatedSeries, n: int, what: str) -> None:
    if f.order < n:
        raise InsufficientOrderError(
            f"{what} of size {n + 1} needs series order >= {n}, got {f.order}"
        )


def pascal_matrix(f: TruncatedSeries, n: int) -> Matrix:
    """The (n+1) x (n+1) Pascal functional matrix of f at y = 0.

    The (i, j) entry is C(i, j) * f^(i-j)(0) for i >= j, zero above the
    diagonal; the Pascal matrix of the constant series 1 is the identity.
    """
    _require_order(f, n, "Pascal matrix")
    dv = f.truncate(n).derivatives_at_zero()
    return Matrix(
        [math.comb(i, j) * dv[i - j] if i >= j else 0 for j in range(n + 1)]
        for i in range(n + 1)
    )


def wronskian_vector(f: TruncatedSeries, n: int) -> Matrix:
    """The Wronskian column [f(0), f'(0), ..., f^(n)(0)]^T."""
    _require_order(f, n, "Wronskian vector")
    return Matrix.column(f.truncate(n).derivatives_at_zero())


def wronskian_powers_matrix(h: TruncatedSeries, n: int) -> Matrix:
    """W[1, h, h^2, ..., h^n] at y = 0 for a delta series h.

    Lower triangular because h^j has valuation j; the (j, j) entry is
    j! * h'(0)^j.
    """
    if not h.is_delta:
        raise NotDeltaSeriesError("powers matrix requires a delta series")
    _require_order(h, n, "powers matrix")
    columns = power_rows(common_denominator(h.truncate(n).coeffs), n)
    return Matrix(
        [Fraction(p[i] * math.factorial(i), den) for den, p in columns]
        for i in range(n + 1)
    )


def omega(n: int) -> Matrix:
    """The diagonal matrix diag(0!, 1!, ..., n!)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return Matrix.diagonal([Fraction(math.factorial(k)) for k in range(n + 1)])


def omega_inverse(n: int) -> Matrix:
    """The exact inverse diag(1/0!, 1/1!, ..., 1/n!)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return Matrix.diagonal([Fraction(1, math.factorial(k)) for k in range(n + 1)])


def check_property_product_pascal(
    f: TruncatedSeries, g: TruncatedSeries, n: int
) -> bool:
    """P[f*g] = P[f] P[g] = P[g] P[f], entrywise exact."""
    product = pascal_matrix(f * g, n)
    fg = pascal_matrix(f, n) @ pascal_matrix(g, n)
    gf = pascal_matrix(g, n) @ pascal_matrix(f, n)
    return product == fg and product == gf


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
    if not h.is_delta:
        raise NotDeltaSeriesError("the composition identity requires a delta series")
    lhs = wronskian_vector(l.compose(h), n)
    rhs = wronskian_powers_matrix(h, n) @ omega_inverse(n) @ wronskian_vector(l, n)
    return lhs == rhs
