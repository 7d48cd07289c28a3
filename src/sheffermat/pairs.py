"""The (l, h) pair that indexes a Sheffer sequence.

l must be an invertible series (nonzero constant term) and h a delta
series (h(0) = 0, h'(0) != 0), both truncated at the same order and with
rational coefficients.  The pair is validated once at construction; all
sequence and identity code downstream can then assume it is well formed.

Series derived from the pair (g = h^{-1}, 1/l, the sequence arrays, ...)
live in ``pair.derived``: each is computed on first use, once, at the
pair's order N (the identity vectors at N - 1, the order their extractors
need), and kept.  Products, reciprocals, composition with a series of
zero constant term and compositional inversion are prefix-stable, so a
consumer that wants degree n <= N slices a stored value and gets exactly
what a computation at order n would give.  The identities' (a, b, c)
series are kept as their derivative vectors, and each sequence array is
checked against its leading-coefficient contract once, when it is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import factorial

from .errors import (
    ContractError,
    NotDeltaSeriesError,
    NotInvertibleError,
    OrderMismatchError,
)
from .polynomials import Poly
from .rationals import common_denominator
from .series import TruncatedSeries, power_rows


@dataclass(frozen=True)
class ShefferPair:
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

    @cached_property
    def derived(self) -> DerivedSeries:
        """The pair's derived series, built on first use and kept."""
        return DerivedSeries(self.l, self.h)

    @classmethod
    def appell(cls, l: TruncatedSeries) -> ShefferPair:
        """The Appell pair (l, y)."""
        return cls(l, TruncatedSeries.identity(l.order))

    @classmethod
    def associated(cls, h: TruncatedSeries) -> ShefferPair:
        """The associated pair (1, h)."""
        return cls(TruncatedSeries.constant(Fraction(1), h.order), h)


def riordan_polys(d: TruncatedSeries, g: TruncatedSeries) -> tuple[Poly, ...]:
    """Degrees 0..order of the exponential Riordan array [d, g]: the x^k
    coefficient of degree i is i!/k! [y^i] d g^k."""
    columns = power_rows(
        common_denominator(g.coeffs), d.order, start=common_denominator(d.coeffs)
    )
    return tuple(
        Poly(
            Fraction(factorial(i) // factorial(k) * p[i], den)
            for k, (den, p) in enumerate(columns[: i + 1])
        )
        for i in range(len(columns))
    )


class DerivedSeries:
    """The derived series of one pair, each computed on first use and kept.
    Every composite is 1/l or L = l'/l composed with g = h^{-1} or with h,
    and h'(g) = 1/g' by the inverse-function rule."""

    def __init__(self, l: TruncatedSeries, h: TruncatedSeries):
        self.l, self.h = l, h
        self.factorization_product = None  # see first_factorization_mismatch

    def _low(self, series: TruncatedSeries) -> TruncatedSeries:
        return series.truncate(self.l.order - 1)

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
        for k, p in enumerate(polys):
            if p.leading_coefficient != lead / self.h.coeffs[1] ** k:
                msg = f"{kind} degree {k} has the wrong leading coefficient"
                raise ContractError(msg)
        return polys

    @cached_property
    def sheffer_polys(self) -> tuple[Poly, ...]:
        polys = riordan_polys(self.reciprocal_l_of_g, self.g)
        return self._checked("sheffer", polys, 1 / self.l.constant_term)

    @cached_property
    def sheffer_appell_polys(self) -> tuple[Poly, ...]:
        polys = riordan_polys(self.reciprocal_l_of_g * self.reciprocal_l, self.g)
        return self._checked("sheffer_appell", polys, 1 / self.l.constant_term**2)

    # (a, b, c) derivative vectors, k = 0..N-1, of "2.1", "3.1", "3.2", "3.3".

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
    def derivative_recurrence(self) -> tuple[tuple[Fraction, ...], ...]:
        """1/h', -l'(h)/l(h), -l'/(h' l)."""
        return _vectors(self._recurrence_series)

    @cached_property
    def differential_equation(self) -> tuple[tuple[Fraction, ...], ...]:
        """h times each series of the derivative recurrence."""
        return _vectors(self._low(self.h) * s for s in self._recurrence_series)

    @cached_property
    def mixed_recurrence(self) -> tuple[tuple[Fraction, ...], ...]:
        """h'(g) = 1/g', -h'(g) l'/l, -l'(g)/l(g)."""
        hp = self.g.derivative().reciprocal()
        return _vectors((hp, -hp * self._lp_over_l, -self._of_g))

    @cached_property
    def convolution_recurrence(self) -> tuple[tuple[Fraction, ...], ...]:
        """1/h'(g) = g', -l'/l, -l'(g)/(h'(g) l(g))."""
        a = self.g.derivative()
        return _vectors((a, -self._lp_over_l, -self._of_g * a))


def _vectors(series) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(s.derivatives_at_zero() for s in series)
