"""Exception types shared across the package."""


class ShapeMismatch(ValueError):
    """An element does not conform to the ambient group it is used with."""


class MatrixClassError(ValueError):
    """A matrix violates the constraint-matrix class invariants."""

    def __init__(self, reason: str, row: int, col: int):
        super().__init__(f"{reason} at ({row}, {col})")
        self.reason = reason
        self.row = row
        self.col = col


class NotSumFullError(ValueError):
    """Not sum-full: witness_index is the least index whose element has no representation."""

    def __init__(self, witness_index: int):
        super().__init__(f"input set is not sum-full: element {witness_index} has no representation")
        self.witness_index = witness_index


class BudgetExceeded(RuntimeError):
    """A size or time guard was hit before the search finished."""


class InternalVerificationError(RuntimeError):
    """An internal consistency check failed; indicates a bug, never valid-input behaviour."""
