# Two closed-form sequences solve the discrete system at zero spectral
# parameter with vanishing left boundary data.  In rescaled coordinates
# they are plain gamma ratios:
#
#     x_k^(1) = (k+alpha)!/k!        (sign-constant, grows like k^alpha)
#     x_k^(2) = (-1)^k (k+beta)!/k!  (alternating,   grows like k^beta)
#
# Applying the operator to either one wipes out everything except the
# last two components, and the rescaled bundle Y_k / k^b converges to a
# fixed 4-vector at rate 1/k.  Both facts are checked numerically here.

import numpy as np

from mblab import (
    JacobiWeightParams,
    bundle_matching_defect,
    particular_x_sequence,
    residual_support,
    scaled_pencil,
    y_bundle,
)
from mblab.discrete import ParticularSolution

params = JacobiWeightParams(1.5, 0.5)
# The check runs on the factor H of B = H^T H, so n can lie far past
# n ~ 480, where the raw norms d_k leave double range.
n = 2000
pencil = scaled_pencil(params, n)

# Each row of B w is measured against the magnitudes it cancels: the head
# rows cancel to rounding, the two tail rows keep about a third.
print(f"weight exponents ({params.alpha:g}, {params.beta:g}), size n = {n}")
for j in (1, 2):
    ok, tail = residual_support(pencil, particular_x_sequence(params, j, n))
    print(
        f"  branch {j}: support confined to the last two components: {ok}, "
        f"relative tail residuals = ({tail[0]:.3f}, {tail[1]:.3f})"
    )

# A random vector is the negative control: applying the operator spreads
# mass everywhere, so the support test must reject it.
rng = np.random.default_rng(1)
fake = ParticularSolution(branch=1, exponent=0.0, variable="x", values=rng.standard_normal(n))
print(f"  random vector:  support confined: {residual_support(pencil, fake)[0]}")

# Bundle convergence: Y_k^(1) / k^alpha -> (2, 0, 4 alpha, 0).
xs = particular_x_sequence(params, 1, 204).values
print("\nY_k / k^alpha for branch 1 (limit is [2, 0, 6, 0] here):")
for k in (25, 50, 100, 200):
    print(f"  k = {k:>4}:", np.round(y_bundle(xs, k) / k**params.alpha, 4))

print("\ndefect * k stays bounded (1/k decay):")
for k in (25, 50, 100, 200):
    print(f"  k = {k:>4}: k * defect = {k * bundle_matching_defect(params, 1, k):.4f}")
