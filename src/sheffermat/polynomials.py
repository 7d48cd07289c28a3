"""Univariate polynomials in x with exact rational coefficients.

A polynomial is stored as one reduced integer row ``Poly.row`` =
``(D, numerators)`` in ascending degree (see :mod:`sheffermat.rationals`)
with no trailing zero; the zero polynomial is ``(1, [])``.  The form is
canonical, so ``==`` compares rows.  The degree of the zero polynomial is
``-inf`` (a sentinel that compares correctly against every integer degree)
rather than -1.  ``coeffs`` and ``coeff`` build Fractions on demand.

Polynomials are immutable and hashable (a constant like the scalar it
equals); their arithmetic is an exact scalar product and ``derivative``.

:func:`derivative_combination` forms every sum
sum_t (beta_t + alpha_t x) q_t^(k_t)(x)/k_t! in the package: the four
identity residuals and the five printed recurrences of the worked-example
audit.  It sums integer rows with :func:`sheffermat.rationals.combine_row`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, Sequence, Union

from .rationals import combine_row, common_denominator, format_rational, format_row
from .rationals import rat, reduce_row

Scalar = Union[Fraction, int]
Term = tuple[Scalar, Scalar, "Poly", int]  # (alpha, beta, q, k)


class Poly:
    """A polynomial in x over the rationals; ``row`` is not to be modified."""

    __slots__ = ("row",)

    def __init__(self, coeffs: Iterable[Fraction | int | str] = ()):
        self.row = Poly._reduced(*common_denominator([rat(c) for c in coeffs])).row

    @classmethod
    def _reduced(cls, den: int, numerators: list[int]) -> Poly:
        """The polynomial of the integer row (den > 0), which it takes over:
        trailing zeros stripped and reduced by one gcd."""
        while numerators and not numerators[-1]:
            numerators.pop()
        p = cls.__new__(cls)
        p.row = reduce_row(den, numerators)
        return p

    # -- structure ---------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den, p = self.row
        return tuple([Fraction(c, den) for c in p])

    @property
    def degree(self) -> int | float:
        """Degree of the polynomial; ``-inf`` for the zero polynomial."""
        return len(self.row[1]) - 1 if self.row[1] else -math.inf

    @property
    def is_zero(self) -> bool:
        return not self.row[1]

    def coeff(self, k: int) -> Fraction:
        """The coefficient of x**k (zero beyond the stored length)."""
        den, p = self.row
        return Fraction(p[k], den) if 0 <= k < len(p) else Fraction(0)

    def __len__(self) -> int:
        return len(self.row[1])

    # -- scalar product, derivatives -----------------------------------

    def __mul__(self, other: Scalar) -> Poly:
        if not isinstance(other, (Fraction, int)):
            return NotImplemented
        den, p = self.row
        return Poly._reduced(den * other.denominator, [c * other.numerator for c in p])

    __rmul__ = __mul__

    def derivative(self, k: int = 1) -> Poly:
        """k-th derivative with respect to x (k >= 0)."""
        if k < 0:
            raise ValueError("derivative count must be >= 0")
        den, p = self.row
        return Poly._reduced(den, [math.perm(i, k) * c for i, c in enumerate(p[k:], k)])

    # -- identity ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self.row == other.row
        if isinstance(other, (Fraction, int)):
            return self.row == Poly((other,)).row
        return NotImplemented

    def __hash__(self) -> int:
        # A constant equals its scalar, so it hashes like it too.
        den, p = self.row
        if len(p) <= 1:
            return hash(self.coeff(0))
        return hash(("Poly", den, tuple(p)))

    # -- text and wire form --------------------------------------------

    def to_strings(self) -> list[str]:
        """The coefficients as exact strings, ascending degree (JSON form)."""
        return format_row(*self.row)

    def render(
        self, scalar: Callable[[Fraction], str], power: Callable[[int], str], times: str
    ) -> str:
        """The nonzero terms by descending power ("0" if none): ``scalar``
        writes |c|, ``power`` writes x^k (k >= 1), ``times`` joins the two on an
        x-term, where |c| = 1 is dropped.  ``str`` gives "-x^2 + 3*x - 1/2"."""
        parts: list[str] = []
        coeffs = self.coeffs
        for k in range(len(coeffs) - 1, -1, -1):
            c = coeffs[k]
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
        return f"Poly({self.to_strings()})"


def derivative_combination(terms: Sequence[Term], dw: int = 1) -> Poly:
    """sum of (beta + alpha x) q^(k)(x)/(k! dw) over the terms (alpha, beta, q, k).

    The x^j coefficient of q^(k)/k! is C(j+k, k) q_{j+k}; the alpha x part
    is that row shifted up one place (an empty row when alpha is zero, as
    combine_row never reads a zero-weight row).  A weight's denominator
    joins the denominator of its ``q.row``, and the rows are summed by
    :func:`~sheffermat.rationals.combine_row` over dw, the weights' common
    denominator, and reduced once.
    """
    weights, rows = [], []
    for alpha, beta, q, k in (term for term in terms if term[0] or term[1]):
        den, p = q.row
        row = [math.comb(m, k) * c for m, c in enumerate(p[k:], k)] if k else p
        weights += [beta.numerator, alpha.numerator]
        rows += [(den * beta.denominator, row)]
        rows += [(den * alpha.denominator, [0, *row] if alpha else [])]
    return Poly._reduced(*combine_row(dw, weights, rows))
