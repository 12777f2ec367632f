"""Shared exception types."""


class SteintorusError(Exception):
    pass


class ValidationError(SteintorusError, ValueError):
    """An object violates its structural invariants, or inputs are incompatible."""


class FamilyMismatchError(ValidationError):
    """Operands belong to different families or ranks."""


class UsageError(SteintorusError):
    """Malformed command-line input or environment setting."""


class BudgetExceededError(SteintorusError):
    """An enumeration would exceed the configured element budget."""


class NotRealizableError(ValidationError):
    """A compact sign vector is not the sign vector of any affine face."""


class NotInSpanError(SteintorusError):
    """A group-ring element is not constant on descent classes.

    Carries a witness: two group elements in the same class with different
    coefficients.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness
