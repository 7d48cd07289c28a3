"""Truncated formal power series in y with rational coefficients.

A :class:`TruncatedSeries` of order n stores the n+1 coefficients of
y^0 .. y^n as :class:`fractions.Fraction` values; every operation is
exact modulo y^(n+1) and makes no claim beyond the truncation order.
Each coefficient is coerced by :func:`~sheffermat.rationals.rat`, which
rejects anything that is not a rational, such as a float or a polynomial.

Binary operations require equal orders; mixing orders is a loud
:class:`OrderMismatchError`, never a silent truncation.  Use
:meth:`TruncatedSeries.truncate` for deliberate order reduction.

Beyond the ring operations the module provides the pieces of series
calculus needed downstream: derivative, reciprocal of an invertible
series, composition with a series of zero constant term, compositional
inverse of a delta series (zero constant term, nonzero linear term; by
Lagrange inversion), and the exponential of a series with zero constant
term, which is the series of e^y composed with it.

The product runs on integers: the truncated product of two ``(D, numerators)``
rows (:func:`~sheffermat.rationals.common_denominator`) is reduced once by
the gcd of D and the numerators, and a loop of products by one fixed factor
(:func:`power_rows`) scales that factor once.  The reciprocal is Newton
iteration on the product; composition is Paterson-Stockmeyer (Brent & Kung,
"Fast algorithms for manipulating formal power series", J. ACM 25, 1978, §2)
and the only routine that evaluates one series at another.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator

from .errors import (
    ContractError,
    InsufficientOrderError,
    NotDeltaSeriesError,
    NotInvertibleError,
    OrderMismatchError,
)
from .rationals import Row, combine_row, common_denominator, rat, reduce_row


def _product(a: Row, b: Row) -> Row:
    """Truncated product of two equal-length ``(D, numerators)`` rows, reduced
    once by the gcd of D and the numerators; zeros of ``a`` are skipped."""
    (da, pa), (db, pb) = a, b
    out = [0] * len(pa)
    for i, ai in enumerate(pa):
        if ai:
            out[i:] = [o + ai * bj for o, bj in zip(out[i:], pb)]
    return reduce_row(da * db, out)


def power_rows(factor: Row, count: int, start: Row | None = None) -> list[Row]:
    """start * factor^k for k = 0..count as rows (start defaults to 1): the
    fixed factor is scaled once, by the caller, and never again."""
    rows = [start or (1, [1] + [0] * (len(factor[1]) - 1))]
    for _ in range(count):
        rows.append(_product(rows[-1], factor))
    return rows


class TruncatedSeries:
    """A power series in y truncated at a fixed order, with rational coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(
        self, coeffs: Iterable[Fraction | int | str], order: int | None = None
    ):
        items = [rat(c) for c in coeffs]
        if not items:
            raise ValueError("a truncated series needs at least a constant term")
        if order is not None:
            if order < 0:
                raise ValueError("order must be >= 0")
            if len(items) > order + 1:
                raise ValueError(
                    f"{len(items)} coefficients exceed order {order}; "
                    "truncate explicitly instead"
                )
            items.extend([Fraction(0)] * (order + 1 - len(items)))
        self._coeffs = tuple(items)

    # -- constructors ---------------------------------------------------

    @classmethod
    def constant(cls, value: Fraction | int, order: int) -> TruncatedSeries:
        return cls([value], order)

    @classmethod
    def identity(cls, order: int) -> TruncatedSeries:
        """The series y (the identity delta series) at the given order."""
        if order < 1:
            raise ValueError("the identity series needs order >= 1")
        return cls([Fraction(0), Fraction(1)], order)

    # -- structure --------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def constant_term(self) -> Fraction:
        return self._coeffs[0]

    @property
    def is_delta(self) -> bool:
        """True iff f(0) = 0 and f'(0) != 0."""
        return self.order >= 1 and self._coeffs[0] == 0 and self._coeffs[1] != 0

    @property
    def is_invertible(self) -> bool:
        """True iff the constant term is nonzero."""
        return self._coeffs[0] != 0

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self._coeffs)

    def truncate(self, order: int) -> TruncatedSeries:
        """Drop coefficients above ``order`` (which must not exceed self.order)."""
        if order < 0:
            raise ValueError("order must be >= 0")
        if order > self.order:
            raise InsufficientOrderError(
                f"cannot extend a series of order {self.order} to order {order}"
            )
        return TruncatedSeries(self._coeffs[: order + 1])

    def _require_same_order(self, other: TruncatedSeries, op: str) -> None:
        if self.order != other.order:
            raise OrderMismatchError(
                f"{op}: orders differ ({self.order} vs {other.order})"
            )

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: TruncatedSeries) -> TruncatedSeries:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._require_same_order(other, "add")
        return TruncatedSeries([a + b for a, b in zip(self._coeffs, other._coeffs)])

    def __sub__(self, other: TruncatedSeries) -> TruncatedSeries:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._require_same_order(other, "subtract")
        return TruncatedSeries([a - b for a, b in zip(self._coeffs, other._coeffs)])

    def __neg__(self) -> TruncatedSeries:
        return TruncatedSeries([-c for c in self._coeffs])

    def __mul__(self, other: TruncatedSeries | Fraction | int) -> TruncatedSeries:
        if isinstance(other, TruncatedSeries):
            self._require_same_order(other, "multiply")
            den, out = _product(
                common_denominator(self._coeffs), common_denominator(other._coeffs)
            )
            return TruncatedSeries([Fraction(c, den) for c in out])
        if isinstance(other, (Fraction, int)):
            return TruncatedSeries([c * other for c in self._coeffs])
        return NotImplemented

    __rmul__ = __mul__

    # -- calculus -----------------------------------------------------------

    def derivative(self) -> TruncatedSeries:
        """Term-wise d/dy; the result's order is one lower."""
        if self.order == 0:
            raise InsufficientOrderError(
                "cannot differentiate a series of order 0"
            )
        return TruncatedSeries(
            [self._coeffs[k] * k for k in range(1, self.order + 1)]
        )

    def reciprocal(self) -> TruncatedSeries:
        """Multiplicative inverse: self * result = 1 modulo y^(order+1).

        The constant term must be nonzero.  Newton step: if b = 1/self
        mod y^(m+1), then b (2 - self b) = 1/self mod y^(2m+2); self is
        scaled to integers once and b stays an integer row.
        """
        c0 = self._coeffs[0]
        if c0 == 0:
            raise NotInvertibleError("series with zero constant term has no reciprocal")
        ds, fixed = common_denominator(self._coeffs)
        den, b = common_denominator([1 / c0])
        while len(b) <= self.order:
            b += [0] * (min(2 * len(b), len(fixed)) - len(b))
            de, e = _product((ds, fixed[: len(b)]), (den, b))
            den, b = _product((den, b), (de, [2 * de - e[0]] + [-c for c in e[1:]]))
        return TruncatedSeries([Fraction(c, den) for c in b])

    def compose(self, inner: TruncatedSeries) -> TruncatedSeries:
        """self(inner(y)) truncated at the shared order.

        ``inner`` must have the same order and a zero constant term, which
        is what makes the truncated composition exact; its linear term may
        be zero too.  Paterson-Stockmeyer: the m ~ sqrt(n) baby powers
        inner^0..inner^(m-1) and the giant step inner^m cost about
        2 sqrt(n) products, not n.  self is scaled to integers once and the
        Horner accumulator stays an integer row.
        """
        if not isinstance(inner, TruncatedSeries):
            raise TypeError("compose expects a TruncatedSeries")
        self._require_same_order(inner, "compose")
        if inner._coeffs[0] != 0:
            msg = "composition requires an inner series with zero constant term"
            raise NotDeltaSeriesError(msg)
        m = max(1, math.isqrt(self.order + 1))
        *baby, giant = power_rows(common_denominator(inner._coeffs), m)
        ds, p = common_denominator(self._coeffs)
        chunks = [p[k : k + m] for k in range(0, len(p), m)]
        acc = reduce_row(*combine_row(ds, chunks[-1], baby[: len(chunks[-1])]))
        for chunk in reversed(chunks[:-1]):
            carried = _product(giant, acc)
            acc = reduce_row(*combine_row(ds, (*chunk, ds), baby + [carried]))
        den, out = acc
        return TruncatedSeries([Fraction(c, den) for c in out])

    def compositional_inverse(self) -> TruncatedSeries:
        """The delta series g with self(g(y)) = y modulo y^(order+1).

        Lagrange inversion: g_m = (1/m) [y^(m-1)] (y/h)^m, reading one
        coefficient off each successive power of y/h.  The defining
        relation h(g) = y is checked before the result is returned.
        """
        if not self.is_delta:
            raise NotDeltaSeriesError("only a delta series has a compositional inverse")
        n = self.order
        y_over_h = common_denominator(TruncatedSeries(self._coeffs[1:]).reciprocal()._coeffs)
        powers = power_rows(y_over_h, n - 1, start=y_over_h)
        inverse = TruncatedSeries(
            [0] + [Fraction(p[m - 1], den * m) for m, (den, p) in enumerate(powers, 1)]
        )
        if self.compose(inverse) != TruncatedSeries.identity(n):
            raise ContractError("compositional inverse failed its defining relation")
        return inverse

    def exp(self) -> TruncatedSeries:
        """exp(self) = sum self^k / k!: the series of e^y composed with
        self, so the constant term must be zero."""
        e = [Fraction(1, math.factorial(k)) for k in range(self.order + 1)]
        return TruncatedSeries(e).compose(self)

    def derivatives_at_zero(self) -> tuple[Fraction, ...]:
        """The vector [f(0), f'(0), ..., f^(order)(0)], i.e. k! * coeffs[k]."""
        return tuple(c * math.factorial(k) for k, c in enumerate(self._coeffs))

    # -- identity -------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TruncatedSeries):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("TruncatedSeries", self._coeffs))

    def __repr__(self) -> str:
        return f"TruncatedSeries({list(self._coeffs)!r})"
