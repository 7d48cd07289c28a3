"""Random Appell pairs (l, y) at served sizes against plain-Fraction references.

For h = y the engine reads both arrays off the Pascal matrices P[1/l] and
P[1/l^2] and takes g = y with no read-off; ``plain_fractions.check_pair``
builds them, g and the (a, b, c) rows by the general formulas, as for any h.
"""

from hypothesis import given, settings

import plain_fractions as plain


@settings(max_examples=60, deadline=None)
@given(plain.pairs(20, 40, appell=True))
def test_appell_pair_arrays_and_rows_match_schoolbook(lh):
    plain.check_pair(*lh)
