"""Exact rational scalars, their text form, and exact linear combinations.

The scalar field everywhere in this package is the arbitrary-precision
rational numbers, represented by :class:`fractions.Fraction` (always
reduced, denominator positive, zero is ``0/1``).  This module fixes the
wire format: ``"p/q"``, or just ``"p"`` when the denominator is 1, with
a bit-exact round trip.

:func:`combine` is the one exact row-combination routine of the package:
matrix products, the derivative combinations behind the identity
residuals and the audit's printed recurrences, polynomial products and
series composition all run through it.  A row is scaled to
integers once (:func:`common_denominator`; a polynomial keeps its row as
``Poly.row``), the sum runs on integers, and each output entry is reduced once.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Sequence

Rational = Fraction

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


def common_denominator(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """(D, [v * D for v in values]) with D the lcm of the denominators."""
    den = math.lcm(*(v.denominator for v in values))
    return den, [v.numerator * (den // v.denominator) for v in values]


def combine(
    weights: Sequence[Fraction | int], rows: Sequence[tuple[int, list[int]]]
) -> list[Fraction]:
    """sum_t weights[t] * rows[t], each row a ``(D, numerators)`` pair from
    :func:`common_denominator`; a short row counts as zero-padded, and the
    result is as long as the longest row.

    Zero weights are skipped before any row is touched, the weights share
    one common denominator, the sum runs on integers, and each output entry
    is reduced once.
    """
    live = [(w, row) for w, row in zip(weights, rows, strict=True) if w]
    lq = math.lcm(*(den for _, (den, _) in live))
    dw, scaled = common_denominator([w for w, _ in live])
    out = [0] * max((len(p) for _, p in rows), default=0)
    for weight, (_, (den, p)) in zip(scaled, live):
        weight *= lq // den
        out[: len(p)] = [o + weight * c for o, c in zip(out, p)]
    den = lq * dw
    return [Fraction(c, den) for c in out]


def format_rational(value: Fraction) -> str:
    """Render a Fraction as ``"p/q"``, or ``"p"`` when the denominator is 1."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
