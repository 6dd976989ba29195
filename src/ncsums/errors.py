"""Exception taxonomy shared by the library and the CLI.

CLI exit-code mapping: InputError (and subclasses) -> 2,
CapacityError/BudgetExceededError -> 3 (and MemoryError, reported as
CapacityError), ToleranceError -> 4.
"""


class NcsumsError(Exception):
    """Base class for package errors."""


class InputError(NcsumsError, ValueError):
    """Invalid argument, precondition violation, or malformed spec file."""


class DegenerateObservableError(InputError):
    """The observable is almost surely constant (zero variance)."""


class CapacityError(NcsumsError):
    """A hard size limit was hit (table cells, 128-bit integer range, float64 sums)."""


class BudgetExceededError(CapacityError):
    """Exact evaluation would exceed the lookup budget; use the MC fallback.

    ``completed`` counts the fiber lengths 1..completed that were evaluated
    before the budget ran out.
    """

    def __init__(self, message: str, completed: int = 0):
        super().__init__(message)
        self.completed = completed


class ToleranceError(NcsumsError):
    """The requested certified tolerance cannot be reached within budget.

    ``achievable_tol`` carries the smallest tolerance the caller could
    certify with the same budget, when that is known.
    """

    def __init__(self, message: str, achievable_tol: float | None = None):
        super().__init__(message)
        self.achievable_tol = achievable_tol
