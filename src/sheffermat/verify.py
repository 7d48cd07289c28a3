"""Verification drivers: residual sweeps, the factorization sweep, and a
seeded randomized property suite for the Pascal/Wronskian matrix identities.

A residual sweep checks one identity label, or all four in ``LABELS`` order,
at degrees 0..n of one pair, whose derived series every degree slices.

The four matrix properties are one table, ``_PROPERTIES``: each names its
check, its smallest degree and the draws of its arguments, and one seeded
driver in :func:`property_suite` draws and checks every instance.

Everything returns lists of CheckResult so callers (the CLI, tests) can
aggregate pass/fail and print diagnostics uniformly.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .errors import Record, check_size
from .identities import LABELS, RESIDUALS, first_factorization_mismatch
from .matrices import (
    Matrix,
    pascal_matrix,
    check_property_composition,
    check_property_product_pascal,
    check_property_product_wronskian,
    wronskian_vector,
)
from .pairs import ShefferPair
from .series import TruncatedSeries

DEFAULT_SEED = 1729
DEFAULT_CASES = 200


class CheckResult(Record):
    name: str
    passed: bool
    detail: str = ""


def residual_checks(
    pair: ShefferPair, n: int, label: str | None = None
) -> list[CheckResult]:
    """One identity's residuals (None: all four) at each degree 0..n.

    For h != y both arrays are built from the "3.1" row, so its residual is
    zero whatever the row holds.  "3.1" is the arrays' production relation, so
    there it holds at d iff rows 0..d + 1 of the size-(n + 1) factorization do.
    """
    check_size(n, pair.order - 1, "degree")
    if label is not None and label not in LABELS:
        raise ValueError(f"unknown identity label {label!r}")
    results = []
    for label in LABELS if label is None else (label,):
        bad = None
        if label == "3.1" and not pair.h.is_identity:
            bad = first_factorization_mismatch(pair, n + 1)
        for d in range(n + 1):
            if bad is None:
                r = RESIDUALS[label](pair, d)
                passed, why = r.is_zero, f"residual = {r}"
            else:
                passed, why = d + 1 < bad, f"factorization differs at row {bad}"
            results.append(
                CheckResult(f"residual[{label}] n={d}", passed, "" if passed else why)
            )
    return results


def lemma_checks(pair: ShefferPair, n: int) -> list[CheckResult]:
    """Entrywise matrix factorization check at sizes 0..n.

    The four right-hand factors are lower triangular with entries that do
    not depend on the size, and row i of the left side depends only on
    sA_i.  So the size-d check passes iff d is below the first row where
    the size-n sides differ, and one size-n product decides every size.
    """
    bad = first_factorization_mismatch(pair, n)
    return [CheckResult(f"factorization n={d}", d < bad) for d in range(n + 1)]


# -- randomized matrix property suite -------------------------------------


def _scalar(rng: random.Random, _order: int = 0) -> Fraction:
    return Fraction(rng.randint(-5, 5), rng.randint(1, 4))


def _series(rng: random.Random, order: int) -> TruncatedSeries:
    pq = [(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(order + 1)]
    den = math.lcm(*[q for _, q in pq])
    return TruncatedSeries._reduced(den, [p * (den // q) for p, q in pq])


def _delta_series(rng: random.Random, order: int) -> TruncatedSeries:
    p, q = rng.choice([v for v in range(-5, 6) if v != 0]), rng.randint(1, 4)
    den, rest = _series(rng, order - 2).row  # 0 and the slope p/q come first
    return TruncatedSeries._reduced(den * q, [0, p * den] + [c * q for c in rest])


def _linearity(
    f: TruncatedSeries, g: TruncatedSeries, alpha: Fraction, beta: Fraction, n: int
) -> bool:
    """P[alpha*f + beta*g] = alpha*P[f] + beta*P[g], and the same for W."""
    combined = f * alpha + g * beta
    return all(
        op(combined, n) == op(f, n) * alpha + op(g, n) * beta
        for op in (pascal_matrix, wronskian_vector)
    )


# name -> (check, smallest degree, draws).  A case draws n from that degree
# to 8, then each argument of check(*args, n) in order as draw(rng, n).
_PROPERTIES = {
    "property-linearity": (_linearity, 0, (_series, _series, _scalar, _scalar)),
    "property-pascal-product": (check_property_product_pascal, 0, (_series, _series)),
    "property-wronskian-product": (
        check_property_product_wronskian, 0, (_series, _series)
    ),
    "property-composition": (check_property_composition, 1, (_series, _delta_series)),
}


def _fixed_exponential_case() -> bool:
    """W_5[e^{xy}] = (1, x, ..., x^5)^T, checked over the rationals.

    Every entry of either side is a polynomial of degree <= 5 in x, so the
    identity holds iff it holds at six distinct rationals x = t, where the
    left side is W_5[e^{ty}], the Wronskian of a rational series.
    """
    return all(
        wronskian_vector((TruncatedSeries.identity(5) * t).exp(), 5)
        == Matrix.column([t**k for k in range(6)])
        for t in map(Fraction, range(-2, 4))
    )


def property_suite(
    cases: int = DEFAULT_CASES, seed: int = DEFAULT_SEED
) -> list[CheckResult]:
    """Randomized checks of the four matrix properties plus one fixed case.

    Each property gets `cases` independent random instances with degrees
    up to 8 and small rational coefficients; the RNG is seeded so runs
    are reproducible.
    """
    if cases < 1:
        raise ValueError("cases must be >= 1")
    rng = random.Random(seed)
    results = []
    for name, (check, low, draws) in _PROPERTIES.items():
        for i in range(cases):
            n = rng.randint(low, 8)
            if not check(*[draw(rng, n) for draw in draws], n):
                results.append(CheckResult(name, False, f"case {i} of {cases} failed"))
                break
        else:
            results.append(CheckResult(name, True))
    results.append(
        CheckResult("fixed-exponential-wronskian", _fixed_exponential_case())
    )
    return results
