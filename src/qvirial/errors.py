"""Exception types shared across the package."""


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
