"""
Pascal and Wronskian matrix calculus on truncated series
========================================================

"""

import math
from fractions import Fraction

from sheffermat import (
    Matrix,
    TruncatedSeries,
    omega,
    omega_inverse,
    pascal_matrix,
    wronskian_powers_matrix,
    wronskian_vector,
)

# --- the two matrix constructions -------------------------------------------
# P_n[f] is lower triangular with entry (i, j) = C(i, j) f^(i-j)(0);
# W_n[f] is the column of derivatives f(0), f'(0), ..., f^(n)(0).
geometric = TruncatedSeries([1, 1, 1, 1, 1])  # 1/(1-y) to order 4

pascal = pascal_matrix(geometric, 3)
print("P_3[1/(1-y)]  (entries C(i,j) * (i-j)!):")
for i in range(pascal.rows):
    print(" ", [str(v) for v in pascal.row(i)])
print()

print("W_3[1/(1-y)] transposed:", wronskian_vector(geometric, 3).column_entries(0))
print()

# --- product rules -----------------------------------------------------------
# Pascal matrices turn series multiplication into matrix multiplication:
#   P[f g] = P[f] P[g]        W[f g] = P[f] W[g]
# and the factors commute because series multiplication does.
exponential = TruncatedSeries([Fraction(1, math.factorial(k)) for k in range(5)])
product = exponential * geometric
assert pascal_matrix(product, 4) == pascal_matrix(exponential, 4) @ pascal_matrix(
    geometric, 4
)
assert wronskian_vector(product, 4) == pascal_matrix(
    exponential, 4
) @ wronskian_vector(geometric, 4)
print("checked: P[fg] = P[f]P[g] and W[fg] = P[f]W[g] for f = e^y, g = 1/(1-y)")
print()

# --- composition -------------------------------------------------------------
# Composition f(h) with a delta series h factors through the matrix of
# powers W[1, h, h^2, ...] and the diagonal Omega = diag(0!, 1!, ...):
#   W[f o h] = W[1, h, ..., h^n] Omega^{-1} W[f]
h = TruncatedSeries([0, -1, -1, -1, -1])  # y/(y-1)
lhs = wronskian_vector(geometric.compose(h), 4)
rhs = wronskian_powers_matrix(h, 4) @ omega_inverse(4) @ wronskian_vector(
    geometric, 4
)
assert lhs == rhs
print("checked: W[f o h] = W[1, h, ..., h^4] Omega^{-1} W[f]")
print("         for f = 1/(1-y), h = y/(y-1);  f o h = 1 - y exactly")
print()

# --- the exponential e^{xy} ---------------------------------------------------
# The derivative vector of e^{xy} at y = 0 is the column of pure powers of
# x, which is what lets matrix identities talk about polynomial sequences.
# Each entry is a polynomial of degree <= n in x, so the identity can be
# checked over the rationals: at x = t the series is e^{ty}.
t = Fraction(3, 2)
powers = wronskian_vector((TruncatedSeries.identity(5) * t).exp(), 5)
assert powers == Matrix.column([t**k for k in range(6)])
print("W_5[e^{ty}] at t = 3/2:", [str(p) for p in powers.column_entries(0)])

# Rational matrices multiply it directly: Omega_5 scales the k-th entry by k!.
scaled = omega(5) @ powers
for k, entry in enumerate(scaled.column_entries(0)):
    assert entry == powers.column_entries(0)[k] * math.factorial(k)
print("checked: Omega_5 scales the k-th entry of W_5[e^{ty}] by k!")
