"""Catalog of named (l, h) pairs with exact closed-form coefficients.

Each family builds its series directly from a coefficient recurrence or
closed form (e.g. the binomial recurrence for (1 - y)^alpha) rather than
by repeated series division, so coefficients stay small and exact at any
order.  Parameters are rational-valued and passed by name; the CLI spells
them as repeatable ``--param name=value`` flags.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Mapping

from .errors import ParameterError, Record, UnknownFamilyError
from .pairs import ShefferPair
from .rationals import Rational, rat
from .series import TruncatedSeries

Params = Mapping[str, Rational]


def binomial_series(alpha: Rational, order: int) -> TruncatedSeries:
    """(1 - y)**alpha via the recurrence c_{k+1} = c_k * (k - alpha) / (k + 1)."""
    coeffs = [Fraction(1)]
    for k in range(order):
        coeffs.append(coeffs[-1] * (k - alpha) / (k + 1))
    return TruncatedSeries(coeffs, order)  # refuses an order below 0


def _exponential_series(order: int) -> TruncatedSeries:
    return TruncatedSeries(
        [Fraction(1, math.factorial(k)) for k in range(order + 1)]
    )


def _monomial(order: int, params: Params) -> ShefferPair:
    return ShefferPair.associated(TruncatedSeries.identity(order))


def _laguerre(order: int, params: Params) -> ShefferPair:
    lam = params["lambda"]
    l = binomial_series(-(lam + 1), order)
    # y/(y - 1) = -y - y^2 - y^3 - ...
    # h is an involution (g = h) and l(g) l = 1: Sheffer-Appell is free of lambda
    h = TruncatedSeries([Fraction(0)] + [Fraction(-1)] * order)
    return ShefferPair(l, h)


def _miller_lee(order: int, params: Params) -> ShefferPair:
    return ShefferPair.appell(binomial_series(params["m"] + 1, order))


def _hermite(order: int, params: Params) -> ShefferPair:
    # exp(y^2 / 2): even coefficients 1 / (2^j j!), odd ones zero.
    coeffs = [
        Fraction(1, 2 ** (k // 2) * math.factorial(k // 2)) if k % 2 == 0 else Fraction(0)
        for k in range(order + 1)
    ]
    return ShefferPair.appell(TruncatedSeries(coeffs))


def _bernoulli(order: int, params: Params) -> ShefferPair:
    # (e^y - 1)/y has coefficients 1/(k+1)!.
    l = TruncatedSeries([Fraction(1, math.factorial(k + 1)) for k in range(order + 1)])
    return ShefferPair.appell(l)


def _euler(order: int, params: Params) -> ShefferPair:
    # (e^y + 1)/2.
    coeffs = [Fraction(1)] + [Fraction(1, 2 * math.factorial(k)) for k in range(1, order + 1)]
    return ShefferPair.appell(TruncatedSeries(coeffs))


def _exp_shift(order: int, params: Params) -> ShefferPair:
    return ShefferPair.appell(_exponential_series(order))


def _log_assoc(order: int, params: Params) -> ShefferPair:
    # e^y - 1, whose compositional inverse is log(1 + y).
    h = TruncatedSeries(
        [Fraction(0)] + [Fraction(1, math.factorial(k)) for k in range(1, order + 1)]
    )
    return ShefferPair.associated(h)


class FamilySpec(Record):
    name: str
    description: str
    params: tuple[str, ...]
    build: Callable[[int, Params], ShefferPair]

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "params": [{"name": p, "type": "rational"} for p in self.params],
            "description": self.description,
        }


FAMILIES: dict[str, FamilySpec] = {
    spec.name: spec
    for spec in (
        FamilySpec(
            "monomial",
            "identity pair (1, y); every sequence kind reduces to x^n",
            (),
            _monomial,
        ),
        FamilySpec(
            "laguerre",
            "((1-y)^(-lambda-1), y/(y-1)); Sheffer sequence is n!-scaled "
            "generalized Laguerre",
            ("lambda",),
            _laguerre,
        ),
        FamilySpec(
            "miller-lee",
            "((1-y)^(m+1), y); Miller-Lee type Appell polynomials",
            ("m",),
            _miller_lee,
        ),
        FamilySpec(
            "hermite",
            "(exp(y^2/2), y); probabilists' Hermite polynomials",
            (),
            _hermite,
        ),
        FamilySpec(
            "bernoulli",
            "((e^y-1)/y, y); Bernoulli polynomials",
            (),
            _bernoulli,
        ),
        FamilySpec(
            "euler",
            "((e^y+1)/2, y); Euler polynomials",
            (),
            _euler,
        ),
        FamilySpec(
            "exp-shift",
            "(e^y, y); Appell sequence of shifted powers",
            (),
            _exp_shift,
        ),
        FamilySpec(
            "log-assoc",
            "(1, e^y-1); associated sequence of exponential (Touchard) "
            "polynomials",
            (),
            _log_assoc,
        ),
    )
}


def list_families() -> list[FamilySpec]:
    return [FAMILIES[name] for name in sorted(FAMILIES)]


def make_pair(
    name: str,
    order: int,
    params: Mapping[str, Rational | int | str] | None = None,
) -> ShefferPair:
    """Build a catalog pair at the given truncation order, at least 1 (h is a
    delta series, so it needs the y term).

    Parameter values may be ints, Fractions, or strings like "-1/3";
    unknown families or parameter names raise, as do missing parameters.
    """
    if order < 1:
        raise ValueError(f"pair order must be >= 1, got {order}")
    try:
        spec = FAMILIES[name]
    except KeyError:
        known = ", ".join(FAMILIES)
        raise UnknownFamilyError(f"unknown family {name!r} (known: {known})") from None
    given = dict(params or {})
    unexpected = sorted(str(k) for k in given if k not in spec.params)
    if unexpected:
        raise ParameterError(
            f"family {name!r} does not take parameter(s) {', '.join(unexpected)}"
        )
    missing = [p for p in spec.params if p not in given]
    if missing:
        raise ParameterError(
            f"family {name!r} requires parameter(s) {', '.join(missing)}"
        )
    values: dict[str, Rational] = {}
    for key, raw in given.items():
        try:
            values[key] = rat(raw)
        except (TypeError, ValueError) as exc:
            raise ParameterError(f"parameter {key}={raw!r}: {exc}") from exc
    return spec.build(order, values)
