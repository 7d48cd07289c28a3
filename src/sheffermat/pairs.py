"""The (l, h) pair that indexes a Sheffer sequence, and what is read off it.

l must be an invertible series (nonzero constant term) and h a delta
series (h(0) = 0, h'(0) != 0), both truncated at the same order and each
stored as one integer row of rationals.  The pair is validated once at
construction; all code downstream can then assume it is well formed.

The once-per-pair rule: each series derived from the pair (g = h^{-1},
1/l, the sequence arrays, the identities' (a, b, c) rows, ...) is a cached
property of the pair, computed on first use, once, at the pair's order N
(the identity rows at N - 1, the order their extractors need), and kept.
What callers build from these is kept in the pair's one ``kept`` dict; no
module assigns an attribute on a pair.  Products, reciprocals, composition
with a series of zero constant term and compositional inversion are
prefix-stable, so a consumer that wants degree n <= N slices a stored
value and gets exactly what a computation at order n would give.  Every
composite is 1/l or L = l'/l composed with g or with h, and
h'(g) = 1/g' by the inverse-function rule.  Each identity's (a, b, c)
derivative vectors are kept as one integer row (D, a, b, c), reduced by
one gcd, and each sequence array is checked against its
leading-coefficient contract once, when it is built.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

from .errors import (
    ContractError,
    NotDeltaSeriesError,
    NotInvertibleError,
    OrderMismatchError,
    Record,
)
from .polynomials import Poly
from .rationals import reduce_row
from .series import TruncatedSeries, power_rows


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
        """The associated pair (1, h)."""
        return cls(TruncatedSeries([1], h.order), h)

    @cached_property
    def kept(self) -> dict:
        """What callers build from the pair and keep with it: each identity
        label's Fraction (a, b, c) vectors and, under "factorization", the
        largest factorization product built so far (see identities)."""
        return {}

    def _low(self, series: TruncatedSeries) -> TruncatedSeries:
        return series.truncate(self.order - 1)

    @cached_property
    def g(self) -> TruncatedSeries:
        return self.h.compositional_inverse()

    @cached_property
    def reciprocal_l(self) -> TruncatedSeries:
        return self.l.reciprocal()

    @cached_property
    def reciprocal_l_of_g(self) -> TruncatedSeries:
        return self.reciprocal_l.compose(self.g)

    @cached_property
    def reciprocal_l_of_h(self) -> TruncatedSeries:
        return self.reciprocal_l.compose(self.h)

    def _checked(
        self, kind: str, polys: tuple[Poly, ...], lead: Fraction
    ) -> tuple[Poly, ...]:
        """Contract: the degree-k leading coefficient is lead / h'(0)^k."""
        den, h = self.h.row
        slope = Fraction(h[1], den)
        for k, p in enumerate(polys):
            if p.leading_coefficient != lead:
                msg = f"{kind} degree {k} has the wrong leading coefficient"
                raise ContractError(msg)
            lead /= slope
        return polys

    @cached_property
    def sheffer_polys(self) -> tuple[Poly, ...]:
        polys = riordan_polys(self.reciprocal_l_of_g, self.g)
        return self._checked("sheffer", polys, 1 / self.l.constant_term)

    @cached_property
    def sheffer_appell_polys(self) -> tuple[Poly, ...]:
        polys = riordan_polys(self.reciprocal_l_of_g * self.reciprocal_l, self.g)
        return self._checked("sheffer_appell", polys, 1 / self.l.constant_term**2)

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


def riordan_polys(d: TruncatedSeries, g: TruncatedSeries) -> tuple[Poly, ...]:
    """Degrees 0..order of the exponential Riordan array [d, g]: the x^k
    coefficient of degree i is i!/k! [y^i] d g^k.  Degree i is one integer
    row over the lcm of the denominators of the columns d g^0 .. d g^i."""
    columns = power_rows(g.row, d.order, start=d.row)
    polys, lq = [], 1
    for i, (den, _) in enumerate(columns):
        lq = math.lcm(lq, den)
        polys.append(Poly._reduced(lq, [
            math.perm(i, i - k) * (lq // dk) * p[i]
            for k, (dk, p) in enumerate(columns[: i + 1])
        ]))
    return tuple(polys)


def _vectors(series) -> tuple:
    """(D, a, b, c): k! [y^k] of each series over one D, reduced as one row."""
    rows = [s.row for s in series]
    den = math.lcm(*[d for d, _ in rows])
    f = [math.factorial(k) for k in range(len(rows[0][1]))]
    flat = [fk * (den // d) * c for d, p in rows for fk, c in zip(f, p)]
    den, flat = reduce_row(den, flat)
    return den, *[flat[t : t + len(f)] for t in range(0, len(flat), len(f))]
