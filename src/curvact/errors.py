"""Exception types shared across the package."""


class CurvactError(Exception):
    """Base class for package-specific failures."""


class UnsupportedActivationError(CurvactError):
    """Raised when an operation needs a derivative the activation lacks."""


class TrainingDivergedError(CurvactError):
    """Raised when a training run produces non-finite loss or parameters."""

    def __init__(self, epoch: int, message: str | None = None):
        self.epoch = epoch
        super().__init__(message or f"training diverged at epoch {epoch}")


class NonFiniteError(CurvactError, ValueError):
    """Raised by a forward pass when a hidden pre-activation is not finite.

    members flags whose pass went non-finite: one entry per member of a
    network stack, a 0-d array for a single network.
    """

    def __init__(self, members):
        self.members = members
        super().__init__("activation input must be finite")


class ResultsFormatError(CurvactError):
    """Raised when a results file is missing required columns or malformed."""
