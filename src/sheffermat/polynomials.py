"""Univariate polynomials in x with exact rational coefficients.

The coefficients are stored densely in ascending degree and kept canonical:
no trailing zero coefficient, the zero polynomial is the empty tuple.
The degree of the zero polynomial is ``-inf`` (a sentinel that compares
correctly against every integer degree) rather than -1.

Polynomials are immutable and hashable; all arithmetic is exact.

:func:`derivative_combination` is the integer kernel behind every sum
sum_t (beta_t + alpha_t x) q_t^(k_t)(x)/k_t! in the package: the four
identity residuals and the binomial convolution of sequences.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

from .rationals import common_denominator, format_rational, rat

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
            if self.is_zero or other.is_zero:
                return Poly.zero()
            out = [Fraction(0)] * (len(self._coeffs) + len(other._coeffs) - 1)
            for i, a in enumerate(self._coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other._coeffs):
                    out[i + j] += a * b
            return Poly(out)
        if isinstance(other, (Fraction, int)):
            return Poly(c * other for c in self._coeffs)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> Poly:
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
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

    The x^j coefficient of q^(k)/k! is C(j+k, k) q_{j+k}.  Each distinct q
    is scaled once to integer numerators over the lcm of its denominators,
    all weights share one common denominator, the sum runs on integers, and
    each output coefficient is reduced once.
    """
    terms = [term for term in terms if term[0] or term[1]]
    polys = {id(q): q for _, _, q, _ in terms}
    rows = {key: common_denominator(q.coeffs) for key, q in polys.items()}
    lq = math.lcm(*(den for den, _ in rows.values()))
    dw, w = common_denominator([v for term in terms for v in term[:2]])
    out = [0] * max((len(q) - k + 1 for _, _, q, k in terms), default=0)
    for i, (_, _, q, k) in enumerate(terms):
        den, p = rows[id(q)]
        row = [math.comb(m, k) * c for m, c in enumerate(p[k:], k)] if k else p
        for shift, weight in zip((1, 0), w[2 * i : 2 * i + 2]):
            if weight:
                weight *= lq // den
                end = shift + len(row)
                out[shift:end] = [o + weight * c for o, c in zip(out[shift:end], row)]
    return Poly(Fraction(c, lq * dw) for c in out)
