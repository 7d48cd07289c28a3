"""
Verifying recurrences as exact zero residuals
=============================================

"""

# Each identity ships as a residual: move every term to one side, expand
# exactly, and demand the zero polynomial.  No tolerances anywhere.
from sheffermat import (
    COEFF_EXTRACTORS,
    LABELS,
    factorization_check,
    make_pair,
    residual_checks,
)

pair = make_pair("laguerre", 10, {"lambda": 2})

# --- the four identities -----------------------------------------------------
# "2.1"  differential equation   sum_k (x a_k + b_k + c_k) sA_n^(k)/k! = n sA_n
# "3.1"  derivative recurrence   sA_{n+1} = sum_k (x a_k + b_k + c_k) sA_n^(k)/k!
# "3.2"  mixed recurrence        couples sA_{n+1}, sA_n, and lower terms
# "3.3"  convolution recurrence  binomial-weighted sum over sA_{n-k}
# The Laguerre h = y/(y - 1) is not y, so its arrays are built from the "3.1"
# row and the "3.1" residual is zero by construction; residual_checks answers
# "3.1" there from the matrix factorization, which can fail.
for label in LABELS:
    checks = residual_checks(pair, 8, label)
    status = "all zero" if all(r.passed for r in checks) else "NONZERO"
    print(f"identity {label}: residuals n=0..8 {status}")
print()

# --- where the coefficients come from ----------------------------------------
# The (a, b, c) vectors are derivative-at-zero extractions from composite
# series of the pair.  For the derivative recurrence of the Laguerre pair
# they stabilize after k = 2.
triple = COEFF_EXTRACTORS["3.1"](pair, 6)
print("Laguerre lambda=2, derivative-recurrence coefficients k=0..6:")
for name, vec in (("a", triple.a), ("b", triple.b), ("c", triple.c)):
    print(f"  {name} =", [str(v) for v in vec])
print()

# --- matrix form ---------------------------------------------------------------
# The triangular matrix of scaled x-derivatives of the sequence factors
# into catalog matrices of the pair; checked entrywise, exactly.
ok = all(factorization_check(pair, n) for n in range(6))
print(f"derivative-matrix factorization n=0..5: {'exact' if ok else 'BROKEN'}")
print()

# --- associated specialization ------------------------------------------------
# With l = 1 the b and c vectors vanish and the same recurrences hold for
# the associated sequence of h alone.
from sheffermat import associated_residual

touchard = make_pair("log-assoc", 10)
ok = all(
    associated_residual(touchard, n, which).is_zero
    for which in LABELS
    for n in range(9)
)
print(f"associated-pair (1, e^y - 1) specializations n=0..8: {'all zero' if ok else 'NONZERO'}")
