"""Exact Sheffer-Appell polynomial sequences over the rationals.

The package builds polynomial sequences from truncated formal power
series pairs (l, h), extracts the coefficient vectors of their
differential and recurrence identities, verifies those identities with
exact residuals, and checks the Pascal/Wronskian matrix factorization
behind them.  All arithmetic is exact over the rationals, on integer
rows; nothing is floating point.
"""

from types import ModuleType as _ModuleType

from .audit import (
    FAIL,
    PASS,
    AuditEntry,
    AuditReport,
    run_worked_example_audit,
)
from .errors import (
    ContractError,
    InsufficientOrderError,
    NotDeltaSeriesError,
    NotInvertibleError,
    OrderMismatchError,
    ParameterError,
    ShefferMatError,
    UnknownFamilyError,
)
from .families import (
    FAMILIES,
    FamilySpec,
    binomial_series,
    list_families,
    make_pair,
)
from .identities import (
    COEFF_EXTRACTORS,
    LABELS,
    RESIDUALS,
    CoeffTriple,
    associated_residual,
    convolution_recurrence_coeffs,
    convolution_recurrence_residual,
    derivative_recurrence_coeffs,
    derivative_recurrence_residual,
    differential_equation_coeffs,
    differential_equation_residual,
    factorization_check,
    mixed_recurrence_coeffs,
    mixed_recurrence_residual,
)
from .matrices import (
    Matrix,
    check_property_composition,
    check_property_product_pascal,
    check_property_product_wronskian,
    omega,
    omega_inverse,
    pascal_matrix,
    wronskian_powers_matrix,
    wronskian_vector,
)
from .pairs import ShefferPair
from .polynomials import Poly
from .rationals import Rational, format_rational, parse_rational, rat
from .sequences import (
    KINDS,
    PolySequence,
    appell_sequence,
    sheffer_appell_sequence,
    sheffer_sequence,
)
from .series import TruncatedSeries
from .verify import CheckResult, lemma_checks, property_suite, residual_checks

__version__ = "0.1.0"

__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
