"""Polynomial sequences of a pair (l, h), read off exponential Riordan arrays.

For a pair (l, h) with compositional inverse g = h^{-1}, three sequence
kinds have exponential generating functions

* Sheffer:        e^{x g(y)} / l(g(y))
* Appell:         e^{x y} / l(y)
* Sheffer-Appell: e^{x g(y)} / (l(g(y)) l(y))

each of the form d(y) e^{x g(y)}: the exponential Riordan array [d, g],
whose degree-i polynomial has x^k coefficient i!/k! [y^i] d g^k.  The
Sheffer and Sheffer-Appell arrays are cached properties of the pair (see
:mod:`sheffermat.pairs`), sliced here.  The Appell array is the rows of
the Pascal matrix P[1/l]: degree i has x^k coefficient i!/k! f_{i-k},
read straight off the row f of 1/l, one gcd per row.
"""

from __future__ import annotations

import math

from .errors import Record, check_size
from .pairs import ShefferPair
from .polynomials import Poly
from .series import TruncatedSeries

KINDS = ("sheffer", "appell", "sheffer_appell")


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
    return PolySequence("sheffer_appell", pair.sheffer_appell_polys[: n + 1])


def sheffer_sequence(pair: ShefferPair, n: int) -> PolySequence:
    """Degrees 0..n of the Sheffer sequence of (l, h)."""
    check_size(n, pair.order, "degree")
    return PolySequence("sheffer", pair.sheffer_polys[: n + 1])


def appell_sequence(l: TruncatedSeries, n: int) -> PolySequence:
    """Degrees 0..n of the Appell sequence e^{xy}/l: degree i is row i of P[1/l]
    to its diagonal, x^(i-k) with coefficient i!/(i-k)! f_k, f = 1/l to order n."""
    check_size(n, l.order, "degree")
    den, f = l.truncate(n).reciprocal().row
    rows = ([math.perm(i, k) * f[k] for k in range(i, -1, -1)] for i in range(n + 1))
    return PolySequence("appell", tuple(Poly._reduced(den, p) for p in rows))
