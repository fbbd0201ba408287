"""Exception types shared across the package, and its immutable-record base."""

__all__ = [
    "QVirialError",
    "MixedBackendError",
    "UnsupportedBackendError",
    "NonzeroConstantTermError",
    "ZeroLinearCoefficientError",
    "UnsupportedOrderError",
    "UnboundVariableError",
    "DescriptorError",
]


class QVirialError(Exception):
    """Base class for all package-specific errors."""


class MixedBackendError(QVirialError, TypeError):
    """Two scalars (or series) from different coefficient backends were combined."""


class UnsupportedBackendError(QVirialError):
    """The requested value cannot be represented on the chosen backend.

    Typical case: a structure function that raises q to a non-integer rational
    power is asked for an exact (surd-ring) evaluation.
    """


class NonzeroConstantTermError(QVirialError, ValueError):
    """A series operation that needs a vanishing constant term got one that isn't zero."""


class ZeroLinearCoefficientError(QVirialError, ValueError):
    """Series reversion needs an invertible rational linear coefficient."""


class UnsupportedOrderError(QVirialError, ValueError):
    """A closed-form coefficient was requested beyond the orders that have closed forms."""


class UnboundVariableError(QVirialError, ValueError):
    """A polynomial in eps was asked for as one number (e.g. rendered decimally)."""


class DescriptorError(QVirialError, ValueError):
    """A structure-function descriptor string does not parse or validate."""


class Frozen:
    """Immutable value record: a subclass names its fields in __slots__ and sets
    them once, in __init__, by `_set`.  Records of one class are equal when
    their field tuples are, and then hash alike."""

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def replace(self, **changes):
        """A copy with `changes` applied, coerced and validated by __init__ again."""
        return type(self)(**dict(zip(self.__slots__, self._values()), **changes))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):  # copy and pickle rebuild through __init__, never __setattr__
        return type(self), self._values()
