"""Recurrence and differential identities for Sheffer-Appell sequences.

Each identity comes with two operations:

* a coefficient extractor returning the exact (a, b, c) vectors, defined
  as derivative vectors at 0 of specific composite series of the pair;
* a residual: the identity with all terms moved to one side, returned as
  an exact polynomial in x.  The contract is that every residual is the
  zero polynomial for every valid pair.

The four identities carry the short labels "2.1", "3.1", "3.2" and "3.3",
matching the CLI's --theorem flag:

==========  ==========================================================
"2.1"       differential equation:
            sum_k (x a_k + b_k + c_k) sA_n^(k)(x)/k!  =  n sA_n(x)
"3.1"       derivative recurrence:
            sA_{n+1}(x) = sum_k (x a_k + b_k + c_k) sA_n^(k)(x)/k!
"3.2"       mixed recurrence:
            sA_{n+1} a_0 = x sA_n + sum_k C(n,k) sA_{n-k} (b_k + c_k)
                           - sum_{k>=1} C(n,k) sA_{n+1-k} a_k
"3.3"       convolution recurrence:
            sA_{n+1} = sum_k C(n,k) (x a_k + b_k + c_k) sA_{n-k}
==========  ==========================================================

The (a, b, c) vectors are one integer row (D, a, b, c) of the pair (see
:mod:`sheffermat.pairs`); an extractor slices them, as Fractions kept with the
pair, to k = 0..n.  A residual builds no Fraction: it sums (beta + alpha x) q^(k)/k!,
each q an sA_m and each weight an integer over D, by :func:`derivative_combination`.

There is also the matrix factorization: the lower triangular matrix of
scaled x-derivatives sA_i^(j)(x)/j! equals
W[1, g, ..., g^n] Omega^{-1} P[1/l] P[1/l(h)] P[e^{xy}] with g = h^{-1},
all evaluated at y = 0.  It is checked over the rationals, without the
fixed polynomial factor P[e^{xy}], and one size-n product, kept with the
pair, answers it for every size 0..n (see :func:`first_factorization_mismatch`).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ContractError, Record, check_size
from .matrices import omega_inverse, pascal_matrix, wronskian_powers_matrix
from .pairs import ShefferPair
from .polynomials import Poly, derivative_combination
from .rationals import Rational, format_rational
from .sequences import sheffer_appell_sequence

LABELS = ("2.1", "3.1", "3.2", "3.3")
# label -> the name of the pair's cached (D, a, b, c) row of that identity
_ROWS = dict(zip(LABELS, ("differential_equation", "derivative_recurrence",
                          "mixed_recurrence", "convolution_recurrence")))


class CoeffTriple(Record):
    """The exact (a, b, c) vectors of one identity, k = 0..n."""

    label: str
    a: tuple[Rational, ...]
    b: tuple[Rational, ...]
    c: tuple[Rational, ...]

    def __post_init__(self) -> None:
        if self.label not in LABELS:
            raise ValueError(f"label must be one of {LABELS}, got {self.label!r}")
        if not (len(self.a) == len(self.b) == len(self.c)):
            raise ValueError("a, b, c must have equal length")

    def to_json(self) -> dict:
        return {
            "theorem": self.label,
            "a": [format_rational(v) for v in self.a],
            "b": [format_rational(v) for v in self.b],
            "c": [format_rational(v) for v in self.c],
        }


def _vectors(pair: ShefferPair, n: int, label: str) -> tuple:
    """The pair's (D, a, b, c) row; every extractor and residual checks n here."""
    check_size(n, pair.order - 1, "degree")
    return getattr(pair, _ROWS[label])


def _triple(label: str, pair: ShefferPair, n: int) -> CoeffTriple:
    """The (a, b, c) of ``label`` to k = 0..n, as Fractions built once per pair."""
    den, *vectors = _vectors(pair, n, label)
    kept = pair.kept
    if label not in kept:
        kept[label] = [tuple([Fraction(c, den) for c in v]) for v in vectors]
    return CoeffTriple(label, *(v[: n + 1] for v in kept[label]))


def differential_equation_coeffs(pair: ShefferPair, n: int) -> CoeffTriple:
    """Label "2.1": a = dv(h/h'), b = dv(-h l'(h)/l(h)), c = dv(-h l'/(h' l))."""
    return _triple("2.1", pair, n)


def derivative_recurrence_coeffs(pair: ShefferPair, n: int) -> CoeffTriple:
    """Label "3.1": a = dv(1/h'), b = dv(-l'(h)/l(h)), c = dv(-l'/(h' l))."""
    return _triple("3.1", pair, n)


def mixed_recurrence_coeffs(pair: ShefferPair, n: int) -> CoeffTriple:
    """Label "3.2": a = dv(h'(g)), b = dv(-h'(g) l'/l), c = dv(-l'(g)/l(g))
    with g = h^{-1}."""
    return _triple("3.2", pair, n)


def convolution_recurrence_coeffs(pair: ShefferPair, n: int) -> CoeffTriple:
    """Label "3.3": a = dv(1/h'(g)), b = dv(-l'/l),
    c = dv(-l'(g)/(h'(g) l(g))) with g = h^{-1}."""
    return _triple("3.3", pair, n)


COEFF_EXTRACTORS = {
    "2.1": differential_equation_coeffs,
    "3.1": derivative_recurrence_coeffs,
    "3.2": mixed_recurrence_coeffs,
    "3.3": convolution_recurrence_coeffs,
}


def differential_equation_residual(pair: ShefferPair, n: int) -> Poly:
    """Residual of identity "2.1" at degree n; zero for every valid pair."""
    den, a, b, c = _vectors(pair, n, "2.1")
    s = sheffer_appell_sequence(pair, n)
    terms = [(a[k], b[k] + c[k], s[n], k) for k in range(n + 1)]
    return derivative_combination(terms + [(0, -n * den, s[n], 0)], den)


def derivative_recurrence_residual(pair: ShefferPair, n: int) -> Poly:
    """Residual of identity "3.1" at degree n; zero for every valid pair."""
    den, a, b, c = _vectors(pair, n, "3.1")
    s = sheffer_appell_sequence(pair, n + 1)
    terms = [(-a[k], -b[k] - c[k], s[n], k) for k in range(n + 1)]
    return derivative_combination([(0, den, s[n + 1], 0)] + terms, den)


def mixed_recurrence_residual(pair: ShefferPair, n: int) -> Poly:
    """Residual of identity "3.2" at degree n; zero for every valid pair."""
    den, a, b, c = _vectors(pair, n, "3.2")
    s = sheffer_appell_sequence(pair, n + 1)
    terms = [(0, a[0], s[n + 1], 0), (-den, 0, s[n], 0)]
    for k in range(n + 1):
        terms.append((0, -math.comb(n, k) * (b[k] + c[k]), s[n - k], 0))
    for k in range(1, n + 1):
        terms.append((0, math.comb(n, k) * a[k], s[n + 1 - k], 0))
    return derivative_combination(terms, den)


def convolution_recurrence_residual(pair: ShefferPair, n: int) -> Poly:
    """Residual of identity "3.3" at degree n; zero for every valid pair."""
    den, a, b, c = _vectors(pair, n, "3.3")
    s = sheffer_appell_sequence(pair, n + 1)
    terms = [
        (-math.comb(n, k) * a[k], -math.comb(n, k) * (b[k] + c[k]), s[n - k], 0)
        for k in range(n + 1)
    ]
    return derivative_combination([(0, den, s[n + 1], 0)] + terms, den)


RESIDUALS = {
    "2.1": differential_equation_residual,
    "3.1": derivative_recurrence_residual,
    "3.2": mixed_recurrence_residual,
    "3.3": convolution_recurrence_residual,
}


def first_factorization_mismatch(pair: ShefferPair, n: int) -> int:
    """The first row i <= n where the size-n factorization differs, else n + 1.

    By the prefix argument of :func:`factorization_check`, the size-d
    factorization holds exactly when d is below the returned row.  R is kept
    in ``pair.kept``, rebuilt only for an n above any size built so far and
    otherwise sliced; the sequence is read on every call, and each
    ``Poly.row``, zero-padded, is compared with the integer row of R.
    """
    s = sheffer_appell_sequence(pair, n)
    rhs = pair.kept.get("factorization")
    if rhs is None or rhs.rows <= n:
        rhs = pair.kept["factorization"] = (
            wronskian_powers_matrix(pair.g, n)
            @ omega_inverse(n)
            @ pascal_matrix(pair.reciprocal_l, n)
            @ pascal_matrix(pair.reciprocal_l_of_h, n)
        )
    for i, p in enumerate(s):
        den, row = rhs.integer_row(i)
        if (den, row[: n + 1]) != (p.row[0], p.row[1] + [0] * (n + 1 - len(p))):
            return i
    return n + 1


def factorization_check(pair: ShefferPair, n: int) -> bool:
    """Entrywise-exact matrix factorization of the scaled derivative matrix.

    In  [sA_i^(j)/j!] = R P[e^{xy}]  with  R = W[1, g, ..., g^n] Omega^{-1}
    P[1/l] P[1/l(h)]  (at y = 0, g = h^{-1}), column j of either side is
    the j-th scaled x-derivative of its column 0, and column 0 of the
    right side is R (1, x, x^2, ...)^T.  So the identity holds iff row i
    of the rational matrix R is the coefficient row of sA_i.

    Prefix argument: the four factors of R are lower triangular with
    entries that do not depend on n, so the leading (d+1) x (d+1) block of
    the size-n R is the size-d R, and row i of the left side depends only
    on sA_i.  So one size-n comparison decides every size d <= n, and the
    size-n R is the leading block of any larger R a pair has kept.
    """
    return first_factorization_mismatch(pair, n) > n


def associated_residual(pair: ShefferPair, n: int, which: str) -> Poly:
    """Residual of the l = 1 specialization of one of the four identities.

    The "3.2" specialization coincides with "3.1" and is checked as that
    same derivative recurrence.  Requires l to be the constant series 1;
    b and c then vanish identically, which is checked.
    """
    if which not in LABELS:
        raise ValueError(f"which must be one of {LABELS}, got {which!r}")
    if pair.l.row != (1, [1] + [0] * pair.order):
        raise ValueError("associated-sequence identities require l = 1")
    effective = "3.1" if which == "3.2" else which
    triple = COEFF_EXTRACTORS[effective](pair, n)
    if any(v != 0 for v in triple.b + triple.c):
        raise ContractError(f"identity {effective} has nonzero b or c with l = 1")
    return RESIDUALS[effective](pair, n)
