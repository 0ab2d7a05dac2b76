"""Exception types shared across the package, and ``shown``, the one rule
for a value in their messages."""


def shown(value) -> str:
    """``repr(value)``, or for an integer too long to print its digit count
    and sign, found with integers only."""
    try:
        return repr(value)
    except ValueError:  # an int past sys.get_int_max_str_digits(), or a value holding one
        if not isinstance(value, int):
            return f"<{type(value).__name__} too long to print>"
        digits = (abs(value).bit_length() - 1) * 30102 // 100000 + 1  # log10(2) > 0.30102
        while abs(value) >= 10 ** digits:
            digits += 1
        return f"<{digits}-digit {'negative ' if value < 0 else ''}integer>"


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
