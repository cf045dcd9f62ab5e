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
    ode_residual_of,
    predicted_constant,
    profile_compare,
    profile_y,
    root_condition_min_l,
)
from .discrete import (
    ParticularSolution,
    bundle_matching_defect,
    particular_v,
    particular_x,
    particular_x_sequence,
    residual_support,
    scale_v_to_x,
    scale_x_to_v,
    y_bundle,
)
from .eigensolver import (
    EigenResult,
    SharpConstantReport,
    extremal_polynomial,
    sharp_constant,
    smallest_eigenpair,
)
from .exceptions import AccuracyWindowError, ConvergenceError
from .jacobi import (
    JacobiWeightParams,
    gauss_jacobi_quadrature,
    log_norm_sequence,
    monic_eval,
    monic_eval_table,
    norm_ratio,
    norm_sequence,
    raising_coefficient,
    recurrence_coefficients,
)
from .pencil import (
    BandedPencil,
    ScaledPencil,
    apply_operator,
    build_pencil,
    scaled_pencil,
    symmetrized_bands,
)
from .special import (
    BesselOrder,
    bessel_j,
    bessel_j_derivative,
    log_gamma,
    smallest_positive_zero,
)
from .verification import CheckResult, run_verification

__version__ = "0.1.0"
