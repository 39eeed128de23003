"""Exception types shared across the package."""


class InvalidArgumentError(ValueError):
    """Raised when an operation receives arguments outside its contract."""


class NumericOverflowError(FloatingPointError):
    """Raised when an evaluation produces non-finite values."""


class BlowUpError(RuntimeError):
    """Raised when a simulated state becomes non-finite; names the step."""

    def __init__(self, step: int, message: str = ""):
        self.step = step
        super().__init__(message or f"non-finite state at step {step}")
