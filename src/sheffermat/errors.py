"""Shared exception types, the size rule, and the value-record base."""


class ShefferMatError(Exception):
    """Base class for all library errors."""


class OrderMismatchError(ShefferMatError, ValueError):
    """Two truncated series with different orders were combined."""


class NotInvertibleError(ShefferMatError, ValueError):
    """A series with zero constant term was used where 1/f is required."""


class NotDeltaSeriesError(ShefferMatError, ValueError):
    """A composition or exp met an inner series with nonzero constant term,
    or a pair or the one compositional inversion (the g of the pair (1, h))
    met an h that is not a delta series, h(0)=0 and h'(0)!=0."""


class InsufficientOrderError(ShefferMatError, ValueError):
    """A computation asked for more coefficients than the input carries."""


def check_size(n: int, most: int, what: str) -> None:
    """The one size rule: a degree, matrix size or order n must lie in
    0..most, where ``most`` is the largest the input's order carries."""
    if n < 0:
        raise ValueError(f"{what} must be >= 0")
    if n > most:
        raise InsufficientOrderError(f"{what} {n} is above {most}, the most allowed")


class UnknownFamilyError(ShefferMatError, KeyError):
    """Requested a sequence family that is not in the catalog."""


class ParameterError(ShefferMatError, ValueError):
    """A family parameter is missing, unknown, or has an invalid value."""


class ContractError(ShefferMatError):
    """An internal consistency check failed: a computed result broke a
    relation it must satisfy.  Raised explicitly, so it survives python -O."""


class Record:
    """Base of a frozen value record, in place of ``@dataclass(frozen=True)``.
    Its fields are the subclass's own annotations, in order; a class attribute
    is a default.  ``__init__`` takes them by position or keyword and calls
    ``__post_init__``; ``==``, ``hash`` and ``repr`` go by value."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields if f in cls.__dict__}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        values = dict(zip(fields, args))
        for key in kwargs:
            if key not in fields or key in values:
                raise TypeError(f"{type(self).__name__}() got a bad argument {key!r}")
        values.update(kwargs)
        if len(values) < len(fields):
            values = {**self._defaults, **values}
        if len(values) < len(fields) or len(args) > len(fields):
            raise TypeError(f"{type(self).__name__}() takes the fields {fields}")
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple([self.__dict__[f] for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
