"""Random Appell pairs (l, y) at served sizes against schoolbook Fractions.

For h = y the pair's derived series are all read off l: g = y, l(g) = l,
so the Sheffer array is the rows of the Pascal matrix P[1/l] and the
Sheffer-Appell array those of P[1/l^2], and every identity row is fixed by
L = l'/l: "3.1", "3.2" and "3.3" have a = e_0 and b = c = -dv(L), "2.1"
has a = e_1 and b = c = -dv(y L).  The expected values come from the
coefficient-at-a-time recurrences of ``plain_fractions``.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from sheffermat import (
    COEFF_EXTRACTORS,
    ShefferPair,
    TruncatedSeries,
    sheffer_appell_sequence,
    sheffer_sequence,
)

import plain_fractions as plain

# p/q with 1 <= |p| <= 9 and 1 <= q <= 9: every coefficient of l is nonzero
digit = st.builds(
    Fraction, st.integers(-9, 9).filter(bool), st.integers(min_value=1, max_value=9)
)
dense_l = st.integers(min_value=20, max_value=40).flatmap(
    lambda n: st.lists(digit, min_size=n + 1, max_size=n + 1)
)


@settings(max_examples=60, deadline=None)
@given(dense_l)
def test_appell_pair_arrays_and_rows_match_schoolbook(l):
    n = len(l) - 1
    pair = ShefferPair.appell(TruncatedSeries(l))
    r = plain.reciprocal(l)
    arrays = (
        (sheffer_sequence(pair, n), r),
        (sheffer_appell_sequence(pair, n), plain.truncated_product(r, r)),
    )
    for sequence, d in arrays:
        assert [list(p.coeffs) for p in sequence] == plain.pascal_rows(d), sequence.kind

    lp_over_l = plain.truncated_product(plain.derivative(l), r[:n])
    minus_dv = [-v for v in plain.derivative_vector(lp_over_l)]
    minus_dv_y = [-v for v in plain.derivative_vector([Fraction(0)] + lp_over_l[:-1])]
    e = [[Fraction(int(i == k)) for i in range(n)] for k in (0, 1)]
    want = {
        "2.1": (e[1], minus_dv_y, minus_dv_y),
        "3.1": (e[0], minus_dv, minus_dv),
        "3.2": (e[0], minus_dv, minus_dv),
        "3.3": (e[0], minus_dv, minus_dv),
    }
    for label, extract in COEFF_EXTRACTORS.items():
        t = extract(pair, n - 1)
        assert (list(t.a), list(t.b), list(t.c)) == want[label], label
