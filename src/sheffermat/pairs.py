"""The (l, h) pair that indexes a Sheffer sequence, and what is read off it.

l must be an invertible series (nonzero constant term) and h a delta
series (h(0) = 0, h'(0) != 0), both truncated at the same order and each
stored as one integer row of rationals.  The pair is validated once at
construction; all code downstream can then assume it is well formed.

The once-per-pair rule: each series derived from the pair (1/l, the arrays,
g = h^{-1}, the identities' (a, b, c) rows, ...) is a cached property, computed
on first use, once, at the pair's order N (the identity rows at N - 1), and
kept; what callers build from them is kept in the pair's one ``kept`` dict, and
no module assigns an attribute on a pair.  All of it is prefix-stable, so a
consumer that wants degree n <= N slices a stored value.  No array needs g:
[d, y] is P[d], read off d's row, and for any other h identity "3.1" is the
array's production-matrix recurrence (Deutsch, Ferrari & Rinaldi, Ann. Comb. 13,
2009); g is read off the Sheffer-Appell array, certified by h(g) = y.  Every
composite is L = l'/l composed with g or h, h'(g) = 1/g', each identity's
(a, b, c) vectors are one reduced integer row (D, a, b, c), and each array is
checked against its leading-coefficient contract once, when built.
"""

from __future__ import annotations

import math
from functools import cached_property

from .errors import (
    ContractError,
    NotDeltaSeriesError,
    NotInvertibleError,
    OrderMismatchError,
    Record,
)
from .polynomials import Poly, derivative_combination
from .rationals import reduce_row
from .series import TruncatedSeries


class ShefferPair(Record):
    l: TruncatedSeries
    h: TruncatedSeries

    def __post_init__(self) -> None:
        if self.l.order != self.h.order:
            raise OrderMismatchError(
                f"l has order {self.l.order} but h has order {self.h.order}"
            )
        if not self.l.is_invertible:
            raise NotInvertibleError("l must have a nonzero constant term")
        if not self.h.is_delta:
            raise NotDeltaSeriesError("h must satisfy h(0) = 0 and h'(0) != 0")

    @property
    def order(self) -> int:
        return self.l.order

    @classmethod
    def appell(cls, l: TruncatedSeries) -> ShefferPair:
        """The Appell pair (l, y)."""
        return cls(l, TruncatedSeries.identity(l.order))

    @classmethod
    def associated(cls, h: TruncatedSeries) -> ShefferPair:
        """The associated pair (1, h); 1 is built as an integer row."""
        return cls(TruncatedSeries._reduced(1, [1] + [0] * h.order), h)

    @cached_property
    def kept(self) -> dict:
        """Kept by identities: R under "factorization", a residual under (label, n)."""
        return {}

    def _low(self, series: TruncatedSeries) -> TruncatedSeries:
        return series.truncate(self.order - 1)

    @cached_property
    def g(self) -> TruncatedSeries:
        """y if h is y, else column 1 over column 0 of the Sheffer-Appell array."""
        if self.h.is_identity:
            return self.h
        rows = [(den * math.factorial(i), p) for i, (den, p) in enumerate(
            q.row for q in self.sheffer_appell_polys)]  # [y^i] is [x^k] sA_i / i!
        lq = math.lcm(*[den for den, _ in rows])
        d, dg = [TruncatedSeries._reduced(lq, [0] * k + [
            lq // den * p[k] for den, p in rows[k:]]) for k in (0, 1)]
        g = dg * d.reciprocal()
        if not self.h.compose(g).is_identity:
            raise ContractError("g read off the Sheffer-Appell array fails h(g) = y")
        return g

    @cached_property
    def reciprocal_l(self) -> TruncatedSeries:
        return self.l.reciprocal()

    def _array(self, power: int) -> tuple[Poly, ...]:
        """The Sheffer (power 1) or Sheffer-Appell (2) array: P[1/l^power] if h is y,
        else degree i + 1 is sum_k (x a_k + z_k) p_i^(k)/k! over D on the "3.1" row
        (D, a, b, c) from 1/l(0)^power, with z = c (power 1) or b + c (power 2)."""
        if self.h.is_identity:
            return pascal_polys(math.prod([self.reciprocal_l] * power))
        den, a, b, c = self.derivative_recurrence
        z = c if power == 1 else [u + v for u, v in zip(b, c)]
        rd, r = self.reciprocal_l.row  # D > 0, so the sign of 1/l(0) is r[0]'s
        polys = [Poly._reduced(rd**power, [r[0] ** power])]
        for i in range(self.order):
            terms = [(a[k], z[k], polys[i], k) for k in range(i + 1)]
            polys.append(derivative_combination(terms, den))
        return tuple(polys)

    def _checked(self, kind: str, polys: tuple[Poly, ...], power: int) -> tuple:
        """Contract: the degree-k leading coefficient is 1 / (l(0)^power h'(0)^k),
        checked on the integer rows by cross-multiplication; a zero polynomial fails."""
        (dl, l), (dh, h) = self.l.row, self.h.row
        left, right = l[0] ** power, dl**power  # the lead is right / left
        for k, (den, p) in enumerate(poly.row for poly in polys):
            if not p or p[-1] * left != den * right:
                msg = f"{kind} degree {k} has the wrong leading coefficient"
                raise ContractError(msg)
            left, right = left * h[1], right * dh
        return polys

    @cached_property
    def sheffer_polys(self) -> tuple[Poly, ...]:
        return self._checked("sheffer", self._array(1), 1)

    @cached_property
    def sheffer_appell_polys(self) -> tuple[Poly, ...]:
        return self._checked("sheffer-appell", self._array(2), 2)

    # (D, a, b, c) derivative vectors, k = 0..N-1, of "2.1", "3.1", "3.2", "3.3".

    @cached_property
    def _lp_over_l(self) -> TruncatedSeries:
        """L = l'/l."""
        return self.l.derivative() * self._low(self.reciprocal_l)

    @cached_property
    def _of_g(self) -> TruncatedSeries:
        """l'(g)/l(g) = L(g)."""
        return self._lp_over_l.compose(self._low(self.g))

    @cached_property
    def _recurrence_series(self) -> tuple[TruncatedSeries, ...]:
        a = self.h.derivative().reciprocal()
        return a, -self._lp_over_l.compose(self._low(self.h)), -self._lp_over_l * a

    @cached_property
    def derivative_recurrence(self) -> tuple:
        """1/h', -l'(h)/l(h), -l'/(h' l)."""
        return _vectors(self._recurrence_series)

    @cached_property
    def differential_equation(self) -> tuple:
        """h times each series of the derivative recurrence."""
        return _vectors(self._low(self.h) * s for s in self._recurrence_series)

    @cached_property
    def mixed_recurrence(self) -> tuple:
        """h'(g) = 1/g', -h'(g) l'/l, -l'(g)/l(g)."""
        hp = self.g.derivative().reciprocal()
        return _vectors((hp, -hp * self._lp_over_l, -self._of_g))

    @cached_property
    def convolution_recurrence(self) -> tuple:
        """1/h'(g) = g', -l'/l, -l'(g)/(h'(g) l(g))."""
        a = self.g.derivative()
        return _vectors((a, -self._lp_over_l, -self._of_g * a))


def pascal_polys(d: TruncatedSeries) -> tuple[Poly, ...]:
    """Degrees 0..order of [d, y], the rows of P[d]: x^k coefficient i!/k! d_{i-k}."""
    den, f = d.row
    return tuple(
        Poly._reduced(den, [math.perm(i, i - k) * f[i - k] for k in range(i + 1)])
        for i in range(len(f))
    )


def _vectors(series) -> tuple:
    """(D, a, b, c): k! [y^k] of each series over one D, reduced as one row."""
    rows = [s.row for s in series]
    den = math.lcm(*[d for d, _ in rows])
    f = [math.factorial(k) for k in range(len(rows[0][1]))]
    flat = [fk * (den // d) * c for d, p in rows for fk, c in zip(f, p)]
    den, flat = reduce_row(den, flat)
    return den, *[flat[t : t + len(f)] for t in range(0, len(flat), len(f))]
