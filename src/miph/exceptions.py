"""Exception types shared across the package."""

import numpy as np

__all__ = ["DataValidationError", "NumericalError", "SingularMatrixError"]


class DataValidationError(ValueError):
    """Malformed user input: bad CSV cells, schema violations, invalid shapes."""


class NumericalError(RuntimeError):
    """A computation left the representable/meaningful range (underflow,
    non-finite likelihood, vanishing conditioning denominators)."""


class SingularMatrixError(np.linalg.LinAlgError):
    """Linear system is singular to working precision."""
