"""Exception types shared across the package."""


class ShefferMatError(Exception):
    """Base class for all library errors."""


class OrderMismatchError(ShefferMatError, ValueError):
    """Two truncated series with different orders were combined."""


class NotInvertibleError(ShefferMatError, ValueError):
    """A series with zero constant term was used where 1/f is required."""


class NotDeltaSeriesError(ShefferMatError, ValueError):
    """A composition or exp met an inner series with nonzero constant term,
    or compositional inversion (or another operation that needs a delta
    series, f(0)=0 and f'(0)!=0) met a series that is not one."""


class InsufficientOrderError(ShefferMatError, ValueError):
    """A computation asked for more coefficients than the input carries."""


class UnknownFamilyError(ShefferMatError, KeyError):
    """Requested a sequence family that is not in the catalog."""


class ParameterError(ShefferMatError, ValueError):
    """A family parameter is missing, unknown, or has an invalid value."""


class ContractError(ShefferMatError):
    """An internal consistency check failed: a computed result broke a
    relation it must satisfy.  Raised explicitly, so it survives python -O."""
