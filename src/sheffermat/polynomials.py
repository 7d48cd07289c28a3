"""Univariate polynomials in x with exact rational coefficients.

The coefficients are stored densely in ascending degree and kept canonical:
no trailing zero coefficient, the zero polynomial is the empty tuple.
The degree of the zero polynomial is ``-inf`` (a sentinel that compares
correctly against every integer degree) rather than -1.

Polynomials are immutable and hashable; all arithmetic is exact.

:func:`derivative_combination` forms every sum
sum_t (beta_t + alpha_t x) q_t^(k_t)(x)/k_t! in the package: the four
identity residuals and the five printed recurrences of the worked-example
audit.  It and the product of two polynomials build integer rows and
leave the sum to :func:`sheffermat.rationals.combine`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

from .rationals import combine, common_denominator, format_rational, rat

Scalar = Union[Fraction, int]


def _canonical(coeffs: Iterable[Fraction]) -> tuple[Fraction, ...]:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


class Poly:
    """A polynomial in x over the rationals, in canonical dense form."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Fraction | int | str] = ()):
        self._coeffs = _canonical(rat(c) for c in coeffs)

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls) -> Poly:
        return cls(())

    @classmethod
    def one(cls) -> Poly:
        return cls((Fraction(1),))

    @classmethod
    def x(cls) -> Poly:
        return cls((Fraction(0), Fraction(1)))

    @classmethod
    def constant(cls, value: Scalar) -> Poly:
        return cls((rat(value),))

    @classmethod
    def monomial(cls, degree: int, coefficient: Scalar = 1) -> Poly:
        if degree < 0:
            raise ValueError("monomial degree must be >= 0")
        return cls([Fraction(0)] * degree + [rat(coefficient)])

    # -- structure ---------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def degree(self) -> int | float:
        """Degree of the polynomial; ``-inf`` for the zero polynomial."""
        return len(self._coeffs) - 1 if self._coeffs else -math.inf

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def leading_coefficient(self) -> Fraction:
        if not self._coeffs:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self._coeffs[-1]

    def coeff(self, k: int) -> Fraction:
        """The coefficient of x**k (zero beyond the stored length)."""
        if 0 <= k < len(self._coeffs):
            return self._coeffs[k]
        return Fraction(0)

    def __len__(self) -> int:
        return len(self._coeffs)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self._coeffs)

    # -- ring arithmetic ----------------------------------------------

    def __add__(self, other: Poly | Scalar) -> Poly:
        if isinstance(other, Poly):
            n = max(len(self._coeffs), len(other._coeffs))
            return Poly(self.coeff(k) + other.coeff(k) for k in range(n))
        if isinstance(other, (Fraction, int)):
            return self + Poly.constant(other)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self) -> Poly:
        return Poly(-c for c in self._coeffs)

    def __sub__(self, other: Poly | Scalar) -> Poly:
        if isinstance(other, Poly):
            return self + (-other)
        if isinstance(other, (Fraction, int)):
            return self + Poly.constant(-rat(other))
        return NotImplemented

    def __rsub__(self, other: Scalar) -> Poly:
        if isinstance(other, (Fraction, int)):
            return Poly.constant(other) - self
        return NotImplemented

    def __mul__(self, other: Poly | Scalar) -> Poly:
        if isinstance(other, Poly):
            den, row = common_denominator(other._coeffs)
            shifted = [(den, [0] * i + row) for i in range(len(self._coeffs))]
            return Poly(combine(self._coeffs, shifted))
        if isinstance(other, (Fraction, int)):
            return Poly(c * other for c in self._coeffs)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> Poly:
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.one()
        for _ in range(exponent):
            result = result * self
        return result

    # -- calculus and evaluation ---------------------------------------

    def derivative(self, k: int = 1) -> Poly:
        """k-th derivative with respect to x (k >= 0)."""
        if k < 0:
            raise ValueError("derivative count must be >= 0")
        coeffs = self._coeffs
        for _ in range(k):
            coeffs = tuple(coeffs[i] * i for i in range(1, len(coeffs)))
        return Poly(coeffs)

    def __call__(self, value: Scalar) -> Fraction:
        """Evaluate at a rational point by Horner's rule."""
        v = rat(value)
        acc = Fraction(0)
        for c in reversed(self._coeffs):
            acc = acc * v + c
        return acc

    # -- identity ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self._coeffs == other._coeffs
        if isinstance(other, (Fraction, int)):
            return self == Poly.constant(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("Poly", self._coeffs))

    # -- text and wire form --------------------------------------------

    def to_strings(self) -> list[str]:
        """The coefficients as exact strings, ascending degree (JSON form)."""
        return [format_rational(c) for c in self._coeffs]

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for k in range(len(self._coeffs) - 1, -1, -1):
            c = self._coeffs[k]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if k == 0:
                body = format_rational(mag)
            else:
                xpow = "x" if k == 1 else f"x^{k}"
                body = xpow if mag == 1 else f"{format_rational(mag)}*{xpow}"
            if not parts:
                parts.append(body if sign == "+" else f"-{body}")
            else:
                parts.append(f"{sign} {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Poly({[format_rational(c) for c in self._coeffs]})"


def derivative_combination(terms: Sequence[tuple[Scalar, Scalar, Poly, int]]) -> Poly:
    """sum of (beta + alpha x) q^(k)(x)/k! over the terms (alpha, beta, q, k).

    The x^j coefficient of q^(k)/k! is C(j+k, k) q_{j+k}; the alpha x part
    is that row shifted up one place (an empty row when alpha is zero, as
    combine never reads a zero-weight row).  Each distinct q is scaled to
    integers once, and the rows are summed by
    :func:`~sheffermat.rationals.combine`.
    """
    terms = [term for term in terms if term[0] or term[1]]
    polys = {id(q): q for _, _, q, _ in terms}
    scaled = {key: common_denominator(q.coeffs) for key, q in polys.items()}
    weights, rows = [], []
    for alpha, beta, q, k in terms:
        den, p = scaled[id(q)]
        row = [math.comb(m, k) * c for m, c in enumerate(p[k:], k)] if k else p
        weights += [beta, alpha]
        rows += [(den, row), (den, [0, *row] if alpha else [])]
    return Poly(combine(weights, rows))
