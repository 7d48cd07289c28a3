"""The factorization's kept product R on random non-Appell pairs at served sizes.

R = W[1, g, ..., g^n] Omega^{-1} P[1/l] P[1/l(h)] is compared with the same
four factors built one Fraction at a time and multiplied as a schoolbook
product: g by Lagrange reversion and 1/l(h) by schoolbook composition, at the
pair's full order, with no kernel of the engine.  The four factors are lower
triangular and their entries do not depend on the size, so the size-d
reference is the leading (d+1) x (d+1) block of the full one; the engine
builds its factors at the size d it multiplies, so the comparison at d < n
checks its truncated composition too.
"""

import math
import random
from fractions import Fraction

from hypothesis import given, settings

from sheffermat import identities

import plain_fractions as plain


def schoolbook_factor(l: list[Fraction], h: list[Fraction]) -> list[list[Fraction]]:
    """W[1, g, ..., g^n] Omega^{-1} P[1/l] P[1/l(h)], each factor a full matrix
    of Fractions: W's column j is i! [y^i] g^j, one power of g at a time."""
    n = len(l) - 1
    g, reciprocal_l = plain.reversion(h), plain.reciprocal(l)
    columns, power = [], [Fraction(1)] + [Fraction(0)] * n
    for _ in range(n + 1):
        columns.append(power)
        power = plain.truncated_product(power, g)
    w = [[math.factorial(i) * col[i] for col in columns] for i in range(n + 1)]
    omega_inv = [[Fraction(int(i == j), math.factorial(i)) for j in range(n + 1)]
                 for i in range(n + 1)]

    def pascal(f):
        return [row + [Fraction(0)] * (n - i) for i, row in enumerate(plain.pascal_rows(f))]

    factors = [omega_inv, pascal(reciprocal_l), pascal(plain.composition(reciprocal_l, h))]
    product = w
    for factor in factors:
        product = plain.matmul(product, factor)
    return product


def check_pair(l: list[Fraction], h: list[Fraction]) -> None:
    n = len(l) - 1
    want = schoolbook_factor(l, h)
    pair = plain.sheffer_pair(l, h)
    for d in sorted({0, 1, n // 2, n}):
        assert identities.first_factorization_mismatch(pair, d) == d + 1
        kept = pair.kept["factorization"]
        assert kept.rows == kept.cols == d + 1
        assert [list(kept.row(i)) for i in range(d + 1)] == [
            row[: d + 1] for row in want[: d + 1]
        ], d


@settings(max_examples=10, deadline=None)
@given(plain.pairs(20, 40))
def test_kept_product_is_the_schoolbook_product_of_its_factors(lh):
    check_pair(*lh)


def test_a_seeded_pair_at_order_40():
    """l(0) < 0."""
    rng = random.Random(40)
    tail = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(79)]
    l = [Fraction(-3, 8)] + tail[:40]
    h = [Fraction(0), Fraction(5, 2)] + tail[40:]
    check_pair(l, h)
