"""Package-wide exception types."""


class ConvergenceError(RuntimeError):
    """An iterative procedure (inverse iteration, zero finding) failed to
    converge within its budget, or its result could not be certified."""


class AccuracyWindowError(ValueError):
    """Arguments fall outside the window in which the implementation
    guarantees its stated accuracy."""
