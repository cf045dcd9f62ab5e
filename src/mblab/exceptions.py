"""Package-wide exception types, and the one rule for each kind of size
or tolerance argument."""

import operator


class ConvergenceError(RuntimeError):
    """An iterative procedure (inverse iteration, zero finding) failed to
    converge within its budget, or its result could not be certified."""


class AccuracyWindowError(ValueError):
    """Arguments fall outside the window in which the implementation
    guarantees its stated accuracy."""


def check_size(value, least, what):
    """`value` as an int >= `least`: TypeError for a bool or any other
    non-integer (2.5, np.float64(3.0)), ValueError below `least`.  `what`
    leads both messages, as in "n must be" -> "n must be >= 1, got 0"."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise TypeError(f"{what} >= {least} as an integer, got {value!r}")
    value = operator.index(value)
    if value < least:
        raise ValueError(f"{what} >= {least}, got {value}")
    return value


_TOL_MIN, _TOL_MAX = 1e-14, 1e-6
# The relative tolerance of every solve that is given none.
DEFAULT_TOL = 1e-12


def check_tol(tol):
    """The solver's tolerance rule: ValueError unless tol lies in
    [1e-14, 1e-6]."""
    if not (_TOL_MIN <= tol <= _TOL_MAX):
        raise ValueError(f"tol must lie in [{_TOL_MIN}, {_TOL_MAX}], got {tol}")
