"""Exception types shared across the package."""

__all__ = ["DataValidationError", "NumericalError"]


class DataValidationError(ValueError):
    """Malformed user input: bad CSV cells, schema violations, invalid shapes."""


class NumericalError(RuntimeError):
    """A computation left the representable/meaningful range (underflow,
    non-finite likelihood, vanishing conditioning denominators)."""
