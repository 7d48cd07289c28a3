"""Exact rational scalars, their text form, and exact linear combinations.

The scalar field everywhere in this package is the arbitrary-precision
rational numbers: one scalar is a :class:`fractions.Fraction`, and the
coefficients of a ``Poly`` or ``TruncatedSeries`` and each row of a
``Matrix`` are one integer row ``(D, numerators)``, the rationals
numerators[k] / D, kept reduced (gcd(D, *numerators) = 1, D > 0).  A
constructor scales its entries once (:func:`common_denominator`); every
kernel, with no exception, builds each stored row once and reduces it by
one gcd (:func:`reduce_row`); so is an identity's ``CoeffTriple``, whose
row (D, a, b, c) holds three vectors.  Fractions are built only at the edges.
The wire format, written from a row by :func:`format_row`, is ``"p/q"``, or
``"p"`` when the denominator is 1, with a bit-exact round trip.

:func:`combine_row` is the one exact row-combination loop of the package:
matrix products, the derivative combinations behind the identity
residuals and the audit's printed recurrences, and series composition all
run through it; its caller reduces the sum once.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Sequence

Rational = Fraction
Row = tuple[int, list[int]]  # (D, numerators): the rationals numerators[k] / D

_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def rat(value: int | str | Fraction) -> Fraction:
    """Coerce an int, ``"p/q"`` string, or Fraction to a Fraction.

    Anything else (a float, None, a polynomial) raises TypeError.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"not a rational: {value!r}")


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"`` or ``"p"`` into an exact Fraction.

    Raises ValueError for anything else (floats, spaces, empty strings,
    zero denominators).
    """
    m = _RATIONAL_RE.fullmatch(text)
    if m is None:
        raise ValueError(f"not a rational literal: {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) is not None else 1
    if den == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(num, den)


def common_denominator(values: Sequence[Fraction]) -> Row:
    """(D, [v * D for v in values]) with D the lcm of the denominators."""
    den = math.lcm(*(v.denominator for v in values))
    return den, [v.numerator * (den // v.denominator) for v in values]


def reduce_row(den: int, numerators: list[int]) -> Row:
    """The row ``(D, numerators)`` divided by gcd(D, *numerators), for D > 0."""
    g = math.gcd(den, *numerators)
    return (den, numerators) if g == 1 else (den // g, [c // g for c in numerators])


def combine_row(dw: int, weights: Sequence[int], rows: Sequence[Row]) -> Row:
    """sum_t (weights[t] / dw) * rows[t] as one unreduced row; a short row
    counts as zero-padded, the result is as long as the longest row, and a
    zero weight's row is never read."""
    live = [(w, row) for w, row in zip(weights, rows, strict=True) if w]
    lq = math.lcm(*[den for _, (den, _) in live])
    out = [0] * max([len(p) for _, p in rows], default=0)
    for weight, (den, p) in live:
        weight *= lq // den
        out[: len(p)] = [o + weight * c for o, c in zip(out, p)]
    return lq * dw, out


def format_rational(value: Fraction) -> str:
    """Render a Fraction as ``"p/q"``, or ``"p"`` when the denominator is 1."""
    return format_row(value.denominator, [value.numerator])[0]


def format_row(den: int, numerators: Sequence[int]) -> list[str]:
    """:func:`format_rational` of each numerators[k] / den, no Fraction built."""
    if den == 1:
        return [str(c) for c in numerators]
    out = []
    for c in numerators:
        g = math.gcd(c, den)
        out.append(str(c // g) if g == den else f"{c // g}/{den // g}")
    return out
