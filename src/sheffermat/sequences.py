"""Polynomial sequences of a pair (l, h), read off exponential Riordan arrays.

For a pair (l, h) with compositional inverse g = h^{-1}, three sequence
kinds have exponential generating functions

* Sheffer:        e^{x g(y)} / l(g(y))
* Appell:         e^{x y} / l(y)
* Sheffer-Appell: e^{x g(y)} / (l(g(y)) l(y))

each of the form d(y) e^{x g(y)}: the exponential Riordan array [d, g].
The Sheffer and Sheffer-Appell arrays are cached properties of the pair,
built with no inverse of h (see :mod:`sheffermat.pairs`) and sliced here; the
Appell array [1/l, y] is P[1/l], read off 1/l by :func:`~.pairs.pascal_polys`.
"""

from __future__ import annotations

from .errors import Record, check_size
from .pairs import ShefferPair, pascal_polys
from .polynomials import Poly
from .series import TruncatedSeries

KINDS = ("sheffer", "appell", "sheffer-appell")


class PolySequence(Record):
    """A finite run polys[0..n] of a polynomial sequence, index = degree."""

    kind: str
    polys: tuple[Poly, ...]

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        for k, p in enumerate(self.polys):
            if p.degree != k:
                raise ValueError(f"polys[{k}] must have degree {k}, got {p!r}")

    def __len__(self) -> int:
        return len(self.polys)

    def __getitem__(self, k: int) -> Poly:
        return self.polys[k]

    def __iter__(self):
        return iter(self.polys)


def sheffer_appell_sequence(pair: ShefferPair, n: int) -> PolySequence:
    """Degrees 0..n of the Sheffer-Appell sequence of (l, h)."""
    check_size(n, pair.order, "degree")
    return PolySequence("sheffer-appell", pair.sheffer_appell_polys[: n + 1])


def sheffer_sequence(pair: ShefferPair, n: int) -> PolySequence:
    """Degrees 0..n of the Sheffer sequence of (l, h)."""
    check_size(n, pair.order, "degree")
    return PolySequence("sheffer", pair.sheffer_polys[: n + 1])


def appell_sequence(l: TruncatedSeries, n: int) -> PolySequence:
    """Degrees 0..n of the Appell sequence e^{xy}/l: the array [1/l, y] at order n."""
    check_size(n, l.order, "degree")
    return PolySequence("appell", pascal_polys(l.truncate(n).reciprocal()))
