"""Random non-Appell pairs (l, h) at served sizes against plain-Fraction references.

``plain_fractions.check_pair`` compares the engine's g, the (a, b, c) rows of
the four identities and both arrays with references built one Fraction at a
time, with no kernel and no formula of the engine: g by Lagrange reversion,
the rows by the formulas the engine replaced (l, l' and h' each composed by
schoolbook composition and the compositions inverted), and each array
[d, g] one column d g^k at a time.  The engine builds its arrays by the
production-matrix recurrence on the "3.1" row, so these references share
nothing with it.
"""

import random
from fractions import Fraction

from hypothesis import given, settings

import plain_fractions as plain


@settings(max_examples=10, deadline=None)
@given(plain.pairs(20, 40))
def test_random_pairs_match_the_plain_references(lh):
    plain.check_pair(*lh)


def test_a_seeded_pair_at_order_60():
    """l(0) < 0, so the arrays' degree-0 rows carry a sign."""
    rng = random.Random(60)
    tail = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(119)]
    l = [Fraction(-5, 7)] + tail[:60]
    h = [Fraction(0), Fraction(-7, 3)] + tail[60:]
    plain.check_pair(l, h)
