"""Truncated formal power series in y with rational coefficients.

A :class:`TruncatedSeries` of order n stores the n+1 coefficients of
y^0 .. y^n as one reduced integer row ``row = (D, numerators)`` (see
:mod:`sheffermat.rationals`); every operation is exact modulo y^(n+1)
and makes no claim beyond the truncation order.  The constructor coerces
each coefficient by :func:`~sheffermat.rationals.rat`, which rejects
anything that is not a rational, such as a float or a polynomial.

Binary operations require equal orders; mixing orders is a loud
:class:`OrderMismatchError`, never a silent truncation.  Use
:meth:`TruncatedSeries.truncate` for deliberate order reduction.

Beyond the ring operations the module provides the pieces of series
calculus needed downstream: derivative, reciprocal of an invertible
series, composition with a series of zero constant term, and the
exponential of a series with zero constant term, which is the series of
e^y composed with it.  The package has one compositional inversion: h^{-1}
is the g of the associated pair (1, h), read off its array by ``pairs``.

Every operation runs on rows and reduces its result once by the gcd of D
and the numerators; ``coeffs`` builds Fractions on demand, for the edges
only.  The reciprocal is Newton iteration on the product; composition is
Paterson-Stockmeyer (Brent & Kung,
"Fast algorithms for manipulating formal power series", J. ACM 25, 1978, §2)
and the only routine that evaluates one series at another.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from .errors import (
    InsufficientOrderError,
    NotDeltaSeriesError,
    NotInvertibleError,
    OrderMismatchError,
    check_size,
)
from .rationals import Row, combine_row, common_denominator, rat, reduce_row


def _product(a: Row, b: Row) -> Row:
    """Truncated product of two equal-length ``(D, numerators)`` rows, as an
    unreduced row; the sparser factor's zeros are skipped (O(n) for y, 1 - y)."""
    if a[1].count(0) < b[1].count(0):
        a, b = b, a
    (da, pa), (db, pb) = a, b
    out = [0] * len(pa)
    for i, ai in enumerate(pa):
        if ai:
            out[i:] = [o + ai * bj for o, bj in zip(out[i:], pb)]
    return da * db, out


def power_rows(factor: Row, count: int) -> list[Row]:
    """factor^k for k = 0..count as rows."""
    rows = [(1, [1] + [0] * (len(factor[1]) - 1))]
    for _ in range(count):
        rows.append(reduce_row(*_product(rows[-1], factor)))
    return rows


class TruncatedSeries:
    """A truncated power series in y; its ``row`` is not to be modified."""

    __slots__ = ("row",)

    def __init__(
        self, coeffs: Iterable[Fraction | int | str], order: int | None = None
    ):
        den, p = common_denominator([rat(c) for c in coeffs])
        if not p:
            raise ValueError("a truncated series needs at least a constant term")
        if order is not None:
            if order < 0:
                raise ValueError("order must be >= 0")
            if len(p) > order + 1:
                raise ValueError(
                    f"{len(p)} coefficients exceed order {order}; "
                    "truncate explicitly instead"
                )
            p += [0] * (order + 1 - len(p))
        self.row = den, p

    @classmethod
    def _reduced(cls, den: int, numerators: list[int]) -> TruncatedSeries:
        """The series of the integer row (den > 0), reduced by one gcd."""
        s = cls.__new__(cls)
        s.row = reduce_row(den, numerators)
        return s

    # -- constructors ---------------------------------------------------

    @classmethod
    def identity(cls, order: int) -> TruncatedSeries:
        """The series y (the identity delta series) at the given order."""
        if order < 1:
            raise ValueError("the identity series needs order >= 1")
        return cls([0, 1], order)

    # -- structure --------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den, p = self.row
        return tuple([Fraction(c, den) for c in p])

    @property
    def order(self) -> int:
        return len(self.row[1]) - 1

    @property
    def is_delta(self) -> bool:
        """True iff f(0) = 0 and f'(0) != 0."""
        p = self.row[1]
        return len(p) > 1 and p[0] == 0 and p[1] != 0

    @property
    def is_identity(self) -> bool:  # the series y; rows are reduced
        return self.row == (1, [0, 1] + [0] * (self.order - 1))

    @property
    def is_invertible(self) -> bool:
        """True iff the constant term is nonzero."""
        return self.row[1][0] != 0

    def truncate(self, order: int) -> TruncatedSeries:
        """Drop coefficients above ``order`` (which must not exceed self.order)."""
        check_size(order, self.order, "order")
        den, p = self.row
        return TruncatedSeries._reduced(den, p[: order + 1])

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
        (da, pa), (db, pb) = self.row, other.row
        summed = [a * db + b * da for a, b in zip(pa, pb)]
        return TruncatedSeries._reduced(da * db, summed)

    def __neg__(self) -> TruncatedSeries:
        den, p = self.row
        return TruncatedSeries._reduced(den, [-c for c in p])

    def __mul__(self, other: TruncatedSeries | Fraction | int) -> TruncatedSeries:
        if isinstance(other, TruncatedSeries):
            self._require_same_order(other, "multiply")
            return TruncatedSeries._reduced(*_product(self.row, other.row))
        if isinstance(other, (Fraction, int)):
            den, p = self.row
            scaled = [c * other.numerator for c in p]
            return TruncatedSeries._reduced(den * other.denominator, scaled)
        return NotImplemented

    __rmul__ = __mul__

    # -- calculus -----------------------------------------------------------

    def derivative(self) -> TruncatedSeries:
        """Term-wise d/dy; the result's order is one lower."""
        if self.order == 0:
            raise InsufficientOrderError("cannot differentiate a series of order 0")
        den, p = self.row
        return TruncatedSeries._reduced(den, [k * c for k, c in enumerate(p[1:], 1)])

    def reciprocal(self) -> TruncatedSeries:
        """Multiplicative inverse: self * result = 1 modulo y^(order+1).

        The constant term must be nonzero.  Newton step: if b = 1/self
        mod y^(m+1), then b (2 - self b) = 1/self mod y^(2m+2), on the
        rows of self and b.
        """
        ds, fixed = self.row
        c0 = fixed[0]
        if c0 == 0:
            raise NotInvertibleError("series with zero constant term has no reciprocal")
        den, b = (c0, [ds]) if c0 > 0 else (-c0, [-ds])
        while len(b) < len(fixed):
            b += [0] * (min(2 * len(b), len(fixed)) - len(b))
            de, e = reduce_row(*_product((ds, fixed[: len(b)]), (den, b)))
            e = [2 * de - e[0]] + [-c for c in e[1:]]
            den, b = reduce_row(*_product((den, b), (de, e)))
        return TruncatedSeries._reduced(den, b)

    def compose(self, inner: TruncatedSeries) -> TruncatedSeries:
        """self(inner(y)) truncated at the shared order.

        ``inner`` must have the same order and a zero constant term, which
        is what makes the truncated composition exact; its linear term may
        be zero too.  Paterson-Stockmeyer: the m ~ sqrt(n) baby powers
        inner^0..inner^(m-1) and the giant step inner^m cost about
        2 sqrt(n) products, not n.  The Horner accumulator is a row, reduced
        once per chunk.  Composing with y returns self before any product.
        """
        if not isinstance(inner, TruncatedSeries):
            raise TypeError("compose expects a TruncatedSeries")
        self._require_same_order(inner, "compose")
        if inner.is_identity:
            return self
        if inner.row[1][0] != 0:
            msg = "composition requires an inner series with zero constant term"
            raise NotDeltaSeriesError(msg)
        m = max(1, math.isqrt(self.order + 1))
        *baby, giant = power_rows(inner.row, m)
        ds, p = self.row
        chunks = [p[k : k + m] for k in range(0, len(p), m)]
        acc = combine_row(ds, chunks[-1], baby[: len(chunks[-1])])
        for chunk in reversed(chunks[:-1]):
            carried = reduce_row(*_product(giant, reduce_row(*acc)))
            acc = combine_row(ds, (*chunk, ds), baby + [carried])
        return TruncatedSeries._reduced(*acc)

    def compositional_inverse(self) -> TruncatedSeries:
        """g with self(g) = y: the g of the pair (1, self), read off its array and
        a ContractError unless self(g) = y; that pair returns y's g, y, at once."""
        if not self.is_delta:
            raise NotDeltaSeriesError("only a delta series has a compositional inverse")
        from .pairs import ShefferPair  # pairs imports this module

        return ShefferPair.associated(self).g

    def exp(self) -> TruncatedSeries:
        """exp(self) = sum self^k / k!: the series of e^y composed with
        self, so the constant term must be zero."""
        n = self.order
        e = [math.perm(n, n - k) for k in range(n + 1)]  # n!/k!
        return TruncatedSeries._reduced(e[0], e).compose(self)

    # -- identity -------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TruncatedSeries):
            return self.row == other.row
        return NotImplemented

    def __hash__(self) -> int:
        den, p = self.row
        return hash(("TruncatedSeries", den, tuple(p)))

    def __repr__(self) -> str:
        return f"TruncatedSeries({list(self.coeffs)!r})"
