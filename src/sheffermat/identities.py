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
:mod:`sheffermat.pairs`); an extractor slices it into a row-backed CoeffTriple
and a residual sums (beta + alpha x) q^(k)/k!, neither building a Fraction:
each q an sA_m and each weight an integer over D, by :func:`derivative_combination`.
"3.3" and "3.2" (at a = e_0) share one convolution form, :func:`convolution_terms`.

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
from .polynomials import Poly, Term, derivative_combination
from .rationals import Rational, common_denominator, format_row, rat
from .sequences import PolySequence, sheffer_appell_sequence

LABELS = ("2.1", "3.1", "3.2", "3.3")
# label -> the name of the pair's cached (D, a, b, c) row of that identity
_ROWS = dict(zip(LABELS, ("differential_equation", "derivative_recurrence",
                          "mixed_recurrence", "convolution_recurrence")))


class CoeffTriple(Record):
    """The exact (a, b, c) vectors of one identity, k = 0..n, as one integer row
    (D, a, b, c) of three equal-length tuples, kept reduced (see :mod:`.rationals`)
    so that == and hash go by value; ``a``, ``b``, ``c`` build Fractions when read."""

    label: str
    row: tuple[int, tuple[int, ...], tuple[int, ...], tuple[int, ...]]

    def __post_init__(self) -> None:
        if self.label not in LABELS:
            raise ValueError(f"label must be one of {LABELS}, got {self.label!r}")
        den, a, b, c = self.row
        if not len(a) == len(b) == len(c) or den < 1:
            raise ValueError("a, b, c must have equal length over one D > 0")
        g = math.gcd(den, *a, *b, *c)  # the field is set once, here, to its reduced row
        vectors = [tuple([v // g for v in x]) if g > 1 else tuple(x) for x in (a, b, c)]
        self.__dict__["row"] = (den // g, *vectors)

    @classmethod
    def from_rationals(cls, label: str, a, b, c) -> CoeffTriple:
        """The triple of three vectors of ints, Fractions or "p/q" strings."""
        den, p = common_denominator([rat(v) for v in (*a, *b, *c)])
        i, j = len(a), len(a) + len(b)
        return cls(label, (den, p[:i], p[i:j], p[j:]))

    def _fractions(self, i: int) -> tuple[Rational, ...]:
        return tuple([Fraction(v, self.row[0]) for v in self.row[i]])

    a = property(lambda self: self._fractions(1))
    b = property(lambda self: self._fractions(2))
    c = property(lambda self: self._fractions(3))

    def to_json(self) -> dict:
        den, *vectors = self.row
        strings = [format_row(den, v) for v in vectors]
        return {"theorem": self.label, **dict(zip("abc", strings))}


def _vectors(pair: ShefferPair, n: int, label: str) -> tuple:
    """The pair's (D, a, b, c) row; every extractor and residual checks n here."""
    check_size(n, pair.order - 1, "degree")
    return getattr(pair, _ROWS[label])


def _triple(label: str, pair: ShefferPair, n: int) -> CoeffTriple:
    """The (a, b, c) of ``label`` to k = 0..n: the pair's row, sliced."""
    den, *vectors = _vectors(pair, n, label)
    return CoeffTriple(label, (den, *[v[: n + 1] for v in vectors]))


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


def convolution_terms(s: PolySequence, n: int, a, b, c) -> list[Term]:
    """The terms of -sum_{k=0..n} C(n,k) (x a_k + b_k + c_k) s_{n-k}: the convolution
    form of "3.3", of "3.2" at a = e_0, and of every identity of an Appell pair."""
    weights = [-math.comb(n, k) for k in range(n + 1)]
    return [(w * a[k], w * (b[k] + c[k]), s[n - k], 0) for k, w in enumerate(weights)]


def _residual(pair: ShefferPair, n: int, label: str) -> Poly:
    """The residual of ``label`` at degree n, kept in ``pair.kept`` under (label, n)."""
    if (label, n) not in pair.kept:
        den, a, b, c = _vectors(pair, n, label)
        s = sheffer_appell_sequence(pair, n + 1)
        if label == "2.1":
            terms = [(a[k], b[k] + c[k], s[n], k) for k in range(n + 1)]
            terms.append((0, -n * den, s[n], 0))
        elif label == "3.1":
            terms = [(-a[k], -b[k] - c[k], s[n], k) for k in range(n + 1)]
            terms.append((0, den, s[n + 1], 0))
        elif label == "3.2":  # x sA_n is the convolution form at a = e_0, over D
            terms = [(0, math.comb(n, k) * a[k], s[n + 1 - k], 0) for k in range(n + 1)]
            terms += convolution_terms(s, n, [den] + [0] * n, b, c)
        else:
            terms = [(0, den, s[n + 1], 0)] + convolution_terms(s, n, a, b, c)
        pair.kept[label, n] = derivative_combination(terms, den)
    return pair.kept[label, n]


def differential_equation_residual(pair: ShefferPair, n: int) -> Poly:
    """Residual of identity "2.1" at degree n; zero for every valid pair."""
    return _residual(pair, n, "2.1")


def derivative_recurrence_residual(pair: ShefferPair, n: int) -> Poly:
    """Residual of identity "3.1" at degree n; zero for every valid pair."""
    return _residual(pair, n, "3.1")


def mixed_recurrence_residual(pair: ShefferPair, n: int) -> Poly:
    """Residual of identity "3.2" at degree n; zero for every valid pair."""
    return _residual(pair, n, "3.2")


def convolution_recurrence_residual(pair: ShefferPair, n: int) -> Poly:
    """Residual of identity "3.3" at degree n; zero for every valid pair."""
    return _residual(pair, n, "3.3")


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
    ``Poly.row``, zero-padded, is compared with the integer row of R.  R is
    (W Omega^{-1}) (P[1/l] P[1/l(h)]) with 1/l(h) composed at order n (h(0) = 0).
    """
    s = sheffer_appell_sequence(pair, n)
    rhs = pair.kept.get("factorization")
    if rhs is None or rhs.rows <= n:
        rl = pair.reciprocal_l.truncate(n)
        rhs = pair.kept["factorization"] = (
            wronskian_powers_matrix(pair.g, n) @ omega_inverse(n)
        ) @ (pascal_matrix(rl, n) @ pascal_matrix(rl.compose(pair.h.truncate(n)), n))
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
    b and c then vanish identically, which is checked.  For h != y, "3.1"
    also needs rows 0..n + 1 of the factorization (its residual cannot fail).
    """
    if which not in LABELS:
        raise ValueError(f"which must be one of {LABELS}, got {which!r}")
    if pair.l.row != (1, [1] + [0] * pair.order):
        raise ValueError("associated-sequence identities require l = 1")
    effective = "3.1" if which == "3.2" else which
    _, _, b, c = COEFF_EXTRACTORS[effective](pair, n).row
    if any(b) or any(c):
        raise ContractError(f"identity {effective} has nonzero b or c with l = 1")
    if effective == "3.1" and not pair.h.is_identity:
        bad = first_factorization_mismatch(pair, n + 1)
        if bad <= n + 1:
            raise ContractError(f"identity 3.1: factorization differs at row {bad}")
    return RESIDUALS[effective](pair, n)
