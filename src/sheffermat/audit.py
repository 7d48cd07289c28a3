"""Audit of five published worked-example recurrences against the engine.

Several worked examples in the literature on Sheffer-Appell recurrences
print explicit coefficient tables (and recurrences with those numbers
substituted) for the Laguerre pair ((1-y)^(-lambda-1), y/(y-1)) and the
Miller-Lee pair ((1-y)^(m+1), y).  Some of those printed tables disagree
with the series expansions that define them, so this module evaluates
each printed identity *literally* — printed numbers, engine-generated
polynomials — and reports PASS or FAIL per degree, alongside the
engine-derived coefficient vectors for comparison.

The audit is one table, :data:`PRINTED_IDENTITIES`.  A printed table is
``table(value, n)``, the lists (a, b, c) for the family's parameter value
(lambda or m); a printed recurrence ``terms(s, d, value, printed)`` lists,
on the family's sequence s at degree d, the terms (alpha, beta, sA_m, 0)
that :func:`sheffermat.polynomials.derivative_combination` sums.  Each entry
holds both tables as a :class:`~sheffermat.identities.CoeffTriple` of the
same label, the printed one sliced to k = 0..d like the derived one, so the
two compare with ==; its status is PASS iff its residual is zero.  Ground
truth is always the derivative-vector extraction; a FAIL here records that
the printed identity does not hold as displayed, not an engine defect.
Miller-Lee is an Appell pair: its printed recurrences are the convolution
form of "3.3" over their tables (:func:`~sheffermat.identities.convolution_terms`).
The Laguerre ones stay as displayed: over its table the differential one is
that form with its sides swapped and no k = 0 term x sA_d, and the
derivative one flips the sign of its sum over k >= 3.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import Record
from .families import make_pair
from .identities import COEFF_EXTRACTORS, CoeffTriple, convolution_terms
from .polynomials import Poly, derivative_combination
from .rationals import Rational, format_rational, rat
from .sequences import PolySequence, sheffer_appell_sequence

PASS = "PASS"
FAIL = "FAIL"


class AuditEntry(Record):
    identity: str
    parameters: tuple[tuple[str, str], ...]
    n: int
    residual: Poly
    derived: CoeffTriple
    printed: CoeffTriple

    @property
    def status(self) -> str:
        return PASS if self.residual.is_zero else FAIL

    def to_json(self) -> dict:
        derived, printed = self.derived.to_json(), self.printed.to_json()
        return {
            "identity-id": self.identity,
            "parameters": dict(self.parameters),
            "n": self.n,
            "status": self.status,
            "residual": self.residual.to_strings(),
            "derived-coeffs": {k: derived[k] for k in "abc"},
            "printed-coeffs": {k: printed[k] for k in "abc"},
        }


class AuditReport(Record):
    entries: tuple[AuditEntry, ...]

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def identities(self) -> tuple[str, ...]:
        seen = dict.fromkeys(e.identity for e in self.entries)
        return tuple(seen)

    def statuses(self, identity: str) -> tuple[str, ...]:
        return tuple(e.status for e in self.entries if e.identity == identity)

    def to_json(self) -> list[dict]:
        return [e.to_json() for e in self.entries]


# -- printed coefficient tables, transcribed verbatim, as lists (a, b, c) ----


def _laguerre_differential_printed(lam: Fraction, n: int) -> tuple:
    # a_k = (1)_k, b_k = (lam+1)((2)_k - (1)_k), c_k = (lam+1)((3)_k - (4)_k)
    # with (j)_k = (j + k - 1)!/(j - 1)! = perm(j + k - 1, k).
    a = [math.factorial(k) for k in range(n + 1)]
    b = [(lam + 1) * (math.factorial(k + 1) - a[k]) for k in range(n + 1)]
    c = [(lam + 1) * (math.perm(k + 2, k) - math.perm(k + 3, k)) for k in range(n + 1)]
    return a, b, c


def _laguerre_derivative_printed(lam: Fraction, n: int) -> tuple:
    a = [-1, 2, -2] + [0] * (n - 2)
    b = [-(lam + 1) * math.factorial(k) for k in range(n + 1)]
    c = [-(lam + 1), lam + 1] + [0] * (n - 1)
    return a[: n + 1], b, c[: n + 1]


def _miller_lee_differential_printed(m: Fraction, n: int) -> tuple:
    # The table gives a_k only for k >= 1 (1 at k = 1, else 0); a_0 is
    # recorded as 0, the only value consistent with the displayed identity.
    a = [0, 1] + [0] * (n - 1)
    b = [0] + [(m + 1) * math.factorial(k) for k in range(1, n + 1)]
    c = [0] + [-(m + 1) * math.factorial(k) for k in range(1, n + 1)]
    return a[: n + 1], b, c


def _miller_lee_derivative_printed(m: Fraction, n: int) -> tuple:
    a = [1] + [0] * n
    b = [(m + 1) * math.factorial(k) for k in range(n + 1)]
    c = [-(m + 1) * math.factorial(k) for k in range(n + 1)]
    return a, b, c


def _miller_lee_mixed_printed(m: Fraction, n: int) -> tuple:
    # The source writes lambda for this family's parameter; it is read as m.
    bc = [-(m + 1) * math.factorial(k) for k in range(n + 1)]
    return [1] + [0] * n, bc, bc


# -- the printed recurrences, evaluated literally -------------------------


def _laguerre_differential_terms(
    s: PolySequence, d: int, lam: Fraction, printed: tuple
) -> list:
    # sum_{k=1}^{d} C(d,k) k! (x - k(k-1)(k+4)(lam+1)/6) sA_{d-k} = d sA_d
    terms = [(0, -d, s[d], 0)]
    for k in range(1, d + 1):
        w = math.perm(d, k)
        terms.append((w, -w * (lam + 1) * k * (k - 1) * (k + 4) / 6, s[d - k], 0))
    return terms


def _laguerre_derivative_terms(
    s: PolySequence, d: int, lam: Fraction, printed: tuple
) -> list:
    # sA_{d+1} + (x + 2 lam + 2) sA_d = 2 x d sA_{d-1}
    #   - 2 (x + lam + 1) C(d,2) sA_{d-2} + (lam+1) sum_{k=3}^{d} C(d,k) k! sA_{d-k}
    # Below d = 2 the sA_{d-1}, sA_{d-2} terms weigh zero and are dropped unread.
    w = d * (d - 1)
    terms = [(0, 1, s[d + 1], 0), (1, 2 * lam + 2, s[d], 0)]
    terms += [(-2 * d, 0, s[d - 1], 0), (w, w * (lam + 1), s[d - 2], 0)]
    terms += [(0, -(lam + 1) * math.perm(d, k), s[d - k], 0) for k in range(3, d + 1)]
    return terms


def _miller_lee_differential_terms(
    s: PolySequence, d: int, m: Fraction, printed: tuple
) -> list:
    # d sA_d - d x sA_{d-1} = sum_{k=1}^{d} C(d,k) sA_{d-k} (b_k + c_k), a = e_1
    return [(0, d, s[d], 0)] + convolution_terms(s, d, *printed)


def _miller_lee_recurrence_terms(
    s: PolySequence, d: int, m: Fraction, printed: tuple
) -> list:
    # sA_{d+1} = sum_k C(d,k) (x a_k + b_k + c_k) sA_{d-k}: the derivative and mixed
    # recurrences over their tables, a = e_0 and, for the mixed one, b = c.
    return [(0, 1, s[d + 1], 0)] + convolution_terms(s, d, *printed)


# Identity id -> (family, label of its extractor in COEFF_EXTRACTORS,
# printed table, printed recurrence), in report order.
PRINTED_IDENTITIES = {
    "laguerre-differential-recurrence": (
        "laguerre", "2.1",
        _laguerre_differential_printed, _laguerre_differential_terms,
    ),
    "laguerre-derivative-recurrence": (
        "laguerre", "3.1",
        _laguerre_derivative_printed, _laguerre_derivative_terms,
    ),
    "miller-lee-differential-recurrence": (
        "miller-lee", "2.1",
        _miller_lee_differential_printed, _miller_lee_differential_terms,
    ),
    "miller-lee-derivative-recurrence": (
        "miller-lee", "3.1",
        _miller_lee_derivative_printed, _miller_lee_recurrence_terms,
    ),
    "miller-lee-mixed-recurrence": (
        "miller-lee", "3.2", _miller_lee_mixed_printed, _miller_lee_recurrence_terms
    ),
}


def run_worked_example_audit(
    n: int, lam: Rational | int = 0, m: Rational | int = 0
) -> AuditReport:
    """Evaluate all five printed identities for degrees 0..n.

    One entry per identity per degree; status PASS means the printed
    identity holds exactly at that degree with the engine's polynomials.
    Each printed table is one CoeffTriple, sliced per degree.
    """
    if n < 3:
        raise ValueError("the audit needs n >= 3 to exercise every printed term")
    families = {}
    for family, name, value in (("laguerre", "lambda", lam), ("miller-lee", "m", m)):
        value = rat(value)
        pair = make_pair(family, n + 1, {name: value})
        s = sheffer_appell_sequence(pair, n + 1)
        families[family] = (pair, s, value, ((name, format_rational(value)),))
    entries = []
    for identity, (family, label, printed_table, terms) in PRINTED_IDENTITIES.items():
        pair, s, value, params = families[family]
        table = printed_table(value, n)
        den, *vectors = CoeffTriple.from_rationals(label, *table).row
        for d in range(n + 1):
            residual = derivative_combination(terms(s, d, value, table))
            derived = COEFF_EXTRACTORS[label](pair, d)
            printed = CoeffTriple(label, (den, *[v[: d + 1] for v in vectors]))
            entries.append(AuditEntry(identity, params, d, residual, derived, printed))
    return AuditReport(tuple(entries))
