"""Univariate polynomials in x with exact rational coefficients.

The coefficients are stored densely in ascending degree and kept canonical:
no trailing zero coefficient, the zero polynomial is the empty tuple.
The degree of the zero polynomial is ``-inf`` (a sentinel that compares
correctly against every integer degree) rather than -1.

Polynomials are immutable and hashable by their coefficients alone (a
constant like the scalar it equals); all arithmetic is exact.  ``Poly.row``
keeps the integer row of the coefficients.

:func:`derivative_combination` forms every sum
sum_t (beta_t + alpha_t x) q_t^(k_t)(x)/k_t! in the package: the four
identity residuals and the five printed recurrences of the worked-example
audit.  It and the product of two polynomials read integer rows and
leave the sum to :func:`sheffermat.rationals.combine`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence, Union

from .rationals import combine, common_denominator, format_rational, rat

Scalar = Union[Fraction, int]


def _canonical(coeffs: Iterable[Fraction]) -> tuple[Fraction, ...]:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


class Poly:
    """A polynomial in x over the rationals, in canonical dense form."""

    __slots__ = ("_coeffs", "_row")

    def __init__(self, coeffs: Iterable[Fraction | int | str] = ()):
        self._coeffs = _canonical(rat(c) for c in coeffs)
        self._row: tuple[int, list[int]] | None = None

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
    def row(self) -> tuple[int, list[int]]:
        """``common_denominator(self.coeffs)``, computed on first use and kept."""
        if self._row is None:
            self._row = common_denominator(self._coeffs)
        return self._row

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
            den, row = other.row
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
        # A constant equals its scalar, so it hashes like it too.
        if len(self._coeffs) <= 1:
            return hash(self.coeff(0))
        return hash(("Poly", self._coeffs))

    # -- text and wire form --------------------------------------------

    def to_strings(self) -> list[str]:
        """The coefficients as exact strings, ascending degree (JSON form)."""
        return [format_rational(c) for c in self._coeffs]

    def render(
        self, scalar: Callable[[Fraction], str], power: Callable[[int], str], times: str
    ) -> str:
        """The nonzero terms by descending power ("0" if none): ``scalar``
        writes |c|, ``power`` writes x^k (k >= 1), ``times`` joins the two on an
        x-term, where |c| = 1 is dropped.  ``str`` gives "-x^2 + 3*x - 1/2"."""
        parts: list[str] = []
        for k in range(len(self._coeffs) - 1, -1, -1):
            c = self._coeffs[k]
            if c == 0:
                continue
            body = scalar(abs(c)) if k == 0 else power(k)
            if k and abs(c) != 1:
                body = f"{scalar(abs(c))}{times}{body}"
            sign = "-" if c < 0 else "+"
            parts.append(f"{sign} {body}" if parts else body if c > 0 else f"-{body}")
        return " ".join(parts) or "0"

    def __str__(self) -> str:
        return self.render(format_rational, lambda k: "x" if k == 1 else f"x^{k}", "*")

    def __repr__(self) -> str:
        return f"Poly({[format_rational(c) for c in self._coeffs]})"


def derivative_combination(terms: Sequence[tuple[Scalar, Scalar, Poly, int]]) -> Poly:
    """sum of (beta + alpha x) q^(k)(x)/k! over the terms (alpha, beta, q, k).

    The x^j coefficient of q^(k)/k! is C(j+k, k) q_{j+k}; the alpha x part
    is that row shifted up one place (an empty row when alpha is zero, as
    combine never reads a zero-weight row).  Each q is read as its kept
    ``q.row``, scaled once for every call, and the rows are summed by
    :func:`~sheffermat.rationals.combine`.
    """
    weights, rows = [], []
    for alpha, beta, q, k in (term for term in terms if term[0] or term[1]):
        den, p = q.row
        row = [math.comb(m, k) * c for m, c in enumerate(p[k:], k)] if k else p
        weights += [beta, alpha]
        rows += [(den, row), (den, [0, *row] if alpha else [])]
    return Poly(combine(weights, rows))
