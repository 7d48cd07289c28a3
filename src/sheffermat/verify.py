"""Verification drivers: residual sweeps, the factorization sweep, and a
seeded randomized property suite for the Pascal/Wronskian matrix identities.

A sweep over degrees 0..n reuses one pair, whose derived series every
degree slices (see :mod:`sheffermat.pairs`).

Everything returns lists of CheckResult so callers (the CLI, tests) can
aggregate pass/fail and print diagnostics uniformly.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

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
    pair: ShefferPair, n: int, labels: Sequence[str] | None = None
) -> list[CheckResult]:
    """The selected identity residuals (None: all four) at each degree 0..n."""
    check_size(n, pair.order - 1, "degree")
    if isinstance(labels, str):
        raise TypeError(f"labels must be a tuple of labels such as ({labels!r},)")
    chosen = LABELS if labels is None else tuple(labels)
    if not chosen or len(set(chosen)) < len(chosen):
        raise ValueError(f"labels must name distinct identities, not {chosen!r}")
    for label in chosen:
        if label not in LABELS:
            raise ValueError(f"unknown identity label {label!r}")
    results = []
    for label in chosen:
        residual_fn = RESIDUALS[label]
        for d in range(n + 1):
            r = residual_fn(pair, d)
            results.append(
                CheckResult(
                    f"residual[{label}] n={d}",
                    r.is_zero,
                    "" if r.is_zero else f"residual = {r}",
                )
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


def _scalar(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-5, 5), rng.randint(1, 4))


def _random_series(rng: random.Random, order: int) -> TruncatedSeries:
    return TruncatedSeries([_scalar(rng) for _ in range(order + 1)])


def _random_delta_series(rng: random.Random, order: int) -> TruncatedSeries:
    slope = Fraction(rng.choice([v for v in range(-5, 6) if v != 0]), rng.randint(1, 4))
    return TruncatedSeries([0, slope] + [_scalar(rng) for _ in range(order - 1)])


def _linearity_case(rng: random.Random) -> bool:
    n = rng.randint(0, 8)
    f = _random_series(rng, n)
    g = _random_series(rng, n)
    alpha, beta = _scalar(rng), _scalar(rng)
    combined = f * alpha + g * beta
    pascal_ok = (
        pascal_matrix(combined, n)
        == pascal_matrix(f, n) * alpha + pascal_matrix(g, n) * beta
    )
    wronskian_ok = (
        wronskian_vector(combined, n)
        == wronskian_vector(f, n) * alpha + wronskian_vector(g, n) * beta
    )
    return pascal_ok and wronskian_ok


def _pascal_product_case(rng: random.Random) -> bool:
    n = rng.randint(0, 8)
    return check_property_product_pascal(
        _random_series(rng, n), _random_series(rng, n), n
    )


def _wronskian_product_case(rng: random.Random) -> bool:
    n = rng.randint(0, 8)
    return check_property_product_wronskian(
        _random_series(rng, n), _random_series(rng, n), n
    )


def _composition_case(rng: random.Random) -> bool:
    n = rng.randint(1, 8)
    return check_property_composition(
        _random_series(rng, n), _random_delta_series(rng, n), n
    )


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
    suite = (
        ("property-linearity", _linearity_case),
        ("property-pascal-product", _pascal_product_case),
        ("property-wronskian-product", _wronskian_product_case),
        ("property-composition", _composition_case),
    )
    results = []
    for name, case in suite:
        failed_at = next((i for i in range(cases) if not case(rng)), None)
        results.append(
            CheckResult(
                name,
                failed_at is None,
                "" if failed_at is None else f"case {failed_at} of {cases} failed",
            )
        )
    results.append(
        CheckResult("fixed-exponential-wronskian", _fixed_exponential_case())
    )
    return results
