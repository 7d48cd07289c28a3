"""Random non-Appell pairs (l, h) at served sizes against plain-Fraction references.

With g = h^{-1}, the exponential Riordan array [d, g] has the inverse
[1/d(h), h] (Shapiro, Getu, Woan & Woodson, "The Riordan group", Discrete
Appl. Math. 34 (1991) 229-239).  So the Sheffer-Appell array
[1/(l(g) l), g] times [l l(h), h], and the Sheffer array [1/l(g), g] times
[l, h], are the identity matrix.  Both inverses are built here in plain
Fractions from the powers of h and a schoolbook l(h): no g, no production
matrix and no Lagrange inversion, so the check does not share the engine's
way of building its arrays.  The engine's g, read off its Sheffer-Appell
array, and the (a, b, c) rows of the four identities are compared with
``plain_fractions.derived_rows``, built one Fraction at a time by the
formulas the engine replaced: g by Lagrange reversion, l, l' and h' each
composed by schoolbook composition and the compositions inverted, with no
kernel and no formula of the engine.
"""

import random
from fractions import Fraction

from hypothesis import given, settings

from sheffermat import (
    COEFF_EXTRACTORS,
    LABELS,
    ShefferPair,
    TruncatedSeries,
    sheffer_appell_sequence,
    sheffer_sequence,
)

import plain_fractions as plain

# l(0) may be negative
nonzero = plain.digit.filter(bool)


def check_pair(l: list[Fraction], h: list[Fraction]) -> None:
    n = len(l) - 1
    pair = ShefferPair(TruncatedSeries(l), TruncatedSeries(h))
    identity = [[Fraction(int(i == k)) for k in range(n + 1)] for i in range(n + 1)]
    l_l_of_h = plain.truncated_product(l, plain.composition(l, h))
    for sequence, d in ((sheffer_appell_sequence(pair, n), l_l_of_h),
                        (sheffer_sequence(pair, n), l)):
        array = [[*p.coeffs] + [Fraction(0)] * (n - i) for i, p in enumerate(sequence)]
        inverse = plain.riordan_matrix(d, h)
        assert plain.matmul(array, inverse) == identity, sequence.kind
    want = plain.derived_rows(l, h)
    assert list(pair.g.coeffs) == want["g"]
    for label in LABELS:
        t = COEFF_EXTRACTORS[label](pair, n - 1)
        assert [list(t.a), list(t.b), list(t.c)] == want[label], label


@settings(max_examples=10, deadline=None)
@given(plain.dense_pairs(nonzero))
def test_arrays_times_the_riordan_inverse_give_the_identity(lh):
    check_pair(*lh)


def test_a_seeded_pair_at_order_60():
    """l(0) < 0, so the arrays' degree-0 rows carry a sign."""
    rng = random.Random(60)
    tail = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(119)]
    l = [Fraction(-5, 7)] + tail[:60]
    h = [Fraction(0), Fraction(-7, 3)] + tail[60:]
    check_pair(l, h)
