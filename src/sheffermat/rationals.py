"""Exact rational scalars and their text form.

The scalar field everywhere in this package is the arbitrary-precision
rational numbers, represented by :class:`fractions.Fraction` (always
reduced, denominator positive, zero is ``0/1``).  This module fixes the
wire format: ``"p/q"``, or just ``"p"`` when the denominator is 1, with
a bit-exact round trip.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Sequence

Rational = Fraction

_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")


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
    m = _RATIONAL_RE.match(text)
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


def format_rational(value: Fraction) -> str:
    """Render a Fraction as ``"p/q"``, or ``"p"`` when the denominator is 1."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
