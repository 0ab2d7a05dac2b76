"""Exception types shared across the package."""


class LatwavError(Exception):
    """Base class for all package-specific errors."""


class NotDyadicError(LatwavError):
    """Matrix determinant is not +/-2."""


class NotExpansiveError(LatwavError):
    """Matrix has an eigenvalue of modulus <= 1."""


class DimensionMismatchError(LatwavError):
    """Operands have incompatible dimensions."""


class NotSubsetError(LatwavError):
    """A sub-support is not contained in its parent support."""


class OutOfDomainError(LatwavError):
    """An encoding was evaluated outside its declared window."""


class DimensionTooSmallError(LatwavError):
    """The flattening map requires dimension >= 2."""


class DomainMismatchError(LatwavError):
    """Isomorphism witness domains do not match the system."""


class IsomorphismError(LatwavError):
    """A transfer's witness does not carry the source system onto the target."""


class NotOneDimensionalError(LatwavError):
    """A one-dimensional filter was required."""


class LevelBudgetExceededError(LatwavError):
    """Cascade refinement would exceed the configured cell budget."""


class InputFormatError(LatwavError):
    """Malformed or inconsistent input file."""
