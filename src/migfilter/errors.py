"""Exception hierarchy shared by the whole package.

Every error maps to a process exit code for the command-line tools:
data problems exit 1, model problems exit 2, numerical failures exit 3.
"""


class MigfilterError(Exception):
    """Base class for all package errors.

    ``time_index`` is the step at which a recursion failed (None when the
    error is not tied to one step)."""

    exit_code = 3

    def __init__(self, message, time_index=None):
        super().__init__(message)
        self.time_index = time_index


class DataError(MigfilterError):
    """Malformed, inconsistent or infeasible input data."""

    exit_code = 1


class ModelError(MigfilterError):
    """Invalid model parameters or a model/data mismatch."""

    exit_code = 2


class ImpossibleObservationError(ModelError):
    """An observed outcome has zero probability under every hidden state."""


class NumericalError(MigfilterError):
    """A numerical routine failed to produce a usable result."""
