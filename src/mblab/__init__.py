"""Sharp constants of weighted-L2 derivative inequalities for the Jacobi
weight (1-x)^alpha (1+x)^beta on (-1, 1).

The largest possible ratio ||Q'|| / ||Q|| over polynomials of degree at
most n is the reciprocal square root of the smallest generalized
eigenvalue of a banded pencil built from monic-Jacobi norms.  This
package assembles the pencil, solves it with a certified banded
eigensolver, exposes the extremal polynomial, and verifies the large-n
law M_n ~ n^2 / (2 j_nu*) together with the Bessel-shaped limit of the
extremal eigenvector.
"""

from .continuum import (
    ProfileBranch,
    ProfileComparison,
    convergence_study,
    ode_residual,
    profile_compare,
    profile_y,
    root_condition_min_l,
)
from .discrete import (
    ParticularSolution,
    bundle_matching_defect,
    particular_v,
    particular_x_sequence,
    residual_support,
    y_bundle,
)
from .eigensolver import (
    SharpConstantReport,
    Solution,
    extremal_polynomial,
    sharp_constant,
    smallest_eigenpair,
    solve,
)
from .exceptions import AccuracyWindowError, ConvergenceError
from .jacobi import (
    JacobiWeightParams,
    gauss_jacobi_quadrature,
    log_norm_sequence,
    monic_eval_table,
    norm_ratio,
    norm_sequence,
    raising_coefficient,
    recurrence_coefficients,
)
from .pencil import ScaledPencil, scaled_pencil
from .special import (
    bessel_j,
    bessel_j_derivative,
    log_gamma,
    smallest_positive_zero,
)
from .verification import CheckResult, run_verification

__version__ = "0.1.0"
