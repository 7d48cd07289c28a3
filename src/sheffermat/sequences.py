"""Polynomial sequences of a pair (l, h), read off exponential Riordan arrays.

For a pair (l, h) with compositional inverse g = h^{-1}, three sequence
kinds have exponential generating functions

* Sheffer:        e^{x g(y)} / l(g(y))
* Appell:         e^{x y} / l(y)
* Sheffer-Appell: e^{x g(y)} / (l(g(y)) l(y))

each of the form d(y) e^{x g(y)}: the exponential Riordan array [d, g],
whose degree-i polynomial has x^k coefficient i!/k! [y^i] d g^k.  The
Sheffer and Sheffer-Appell arrays are built once per pair at its full
order (``pair.derived``, see :mod:`sheffermat.pairs`) and sliced here, so
a lower degree reproduces the same polynomials; their leading-coefficient
contract is checked there, once per array.  The Appell array needs only
1/l: its x^k coefficient of degree i is C(i, k) (1/l)^(i-k)(0).

The binomial convolution reads each input polynomial's kept ``Poly.row``
and forms every degree with :func:`sheffermat.rationals.combine`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import InsufficientOrderError, NotInvertibleError
from .pairs import ShefferPair
from .polynomials import Poly
from .rationals import Rational, combine
from .series import TruncatedSeries

KINDS = ("sheffer", "appell", "sheffer_appell")


@dataclass(frozen=True)
class PolySequence:
    """A finite run polys[0..n] of a polynomial sequence, index = degree."""

    kind: str
    polys: tuple[Poly, ...]

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        for k, p in enumerate(self.polys):
            if p.degree != k:
                raise ValueError(f"polys[{k}] must have degree {k}, got {p!r}")

    @property
    def top_degree(self) -> int:
        return len(self.polys) - 1

    def __len__(self) -> int:
        return len(self.polys)

    def __getitem__(self, k: int) -> Poly:
        return self.polys[k]

    def __iter__(self):
        return iter(self.polys)


def _require_degree(pair_order: int, n: int) -> None:
    if n < 0:
        raise ValueError("degree must be >= 0")
    if pair_order < n:
        raise InsufficientOrderError(
            f"degree {n} needs truncation order >= {n}, got {pair_order}"
        )


def sheffer_appell_sequence(pair: ShefferPair, n: int) -> PolySequence:
    """Degrees 0..n of the Sheffer-Appell sequence of (l, h)."""
    _require_degree(pair.order, n)
    return PolySequence("sheffer_appell", pair.derived.sheffer_appell_polys[: n + 1])


def sheffer_sequence(pair: ShefferPair, n: int) -> PolySequence:
    """Degrees 0..n of the Sheffer sequence of (l, h)."""
    _require_degree(pair.order, n)
    return PolySequence("sheffer", pair.derived.sheffer_polys[: n + 1])


def appell_sequence(l: TruncatedSeries, n: int) -> PolySequence:
    """Degrees 0..n of the Appell sequence with generating function e^{xy}/l:
    the x^k coefficient of degree i is C(i, k) (1/l)^(i-k)(0)."""
    if not l.is_invertible:
        raise NotInvertibleError("l must have a nonzero constant term")
    _require_degree(l.order, n)
    dv = l.truncate(n).reciprocal().derivatives_at_zero()
    polys = tuple(
        Poly(math.comb(i, k) * dv[i - k] for k in range(i + 1)) for i in range(n + 1)
    )
    return PolySequence("appell", polys)


def discrete_convolution(
    kernel: Sequence[Rational], s: PolySequence
) -> PolySequence:
    """Binomial convolution result_n = sum_k C(n, k) * kernel[k] * s[n-k].

    With kernel = the derivative vector of 1/l and s the Sheffer sequence
    of (l, h), this reproduces the Sheffer-Appell sequence of the pair.
    """
    top = s.top_degree
    if len(kernel) < top + 1:
        raise ValueError(
            f"kernel has {len(kernel)} entries but degree {top} needs {top + 1}"
        )
    rows = [p.row for p in s]
    polys = tuple(
        Poly(combine([math.comb(n, k) * kernel[k] for k in range(n + 1)], rows[n::-1]))
        for n in range(top + 1)
    )
    return PolySequence(s.kind, polys)


def appell_kernel(l: TruncatedSeries) -> tuple[Rational, ...]:
    """Derivative vector of 1/l at 0, the kernel pairing with sheffer_sequence."""
    if not l.is_invertible:
        raise NotInvertibleError("l must have a nonzero constant term")
    return l.reciprocal().derivatives_at_zero()
