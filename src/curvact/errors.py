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


class ResultsFormatError(CurvactError):
    """Raised when a results file is missing required columns or malformed."""
