# Gauss-Jacobi quadrature serves as the package's independent integral
# oracle: an m-point rule built by Golub-Welsch from the monic three-term
# recurrence integrates any polynomial of degree <= 2m-1 exactly against
# the weight (1-x)^alpha (1+x)^beta.  Here it cross-examines the rest of
# the package with plain integrals.

import numpy as np

from mblab import (
    JacobiWeightParams,
    extremal_polynomial,
    gauss_jacobi_quadrature,
    monic_eval_table,
    norm_sequence,
)

params = JacobiWeightParams(1.0, 0.5)
nodes, weights = gauss_jacobi_quadrature(params, 16)
print(f"16-point rule for exponents ({params.alpha:g}, {params.beta:g})")
print(f"  total weight  = {weights.sum():.15f}")
print(f"  nodes inside (-1, 1): {bool(np.all(np.abs(nodes) < 1))}")

# Orthogonality: the integral of P_k * P_j vanishes off the diagonal.
table = monic_eval_table(params, 8, nodes)
gram = (table * weights) @ table.T
off = np.max(np.abs(gram - np.diag(np.diag(gram))))
print(f"  largest off-diagonal inner product of P_0..P_8: {off:.2e}")

# The diagonal reproduces the stored squared norms up to one global
# constant (the package keeps norms in a convention that drops a fixed
# power of two):
d = norm_sequence(params, 8)
ratio = np.diag(gram) / d[:9]
print(f"  integral norm / stored norm, k = 0..8: {ratio[0]:.6f} "
      f"(spread {np.max(np.abs(ratio / ratio[0] - 1)):.2e})")

# Finally the headline cross-check: evaluate the extremal polynomial on
# the nodes and recompute ||Q'|| / ||Q|| by quadrature.  It must equal
# the eigenvalue route's M_n.
n = 30
u, v, m_n = extremal_polynomial(params, n)
nodes, weights = gauss_jacobi_quadrature(params, n + 2)
table = monic_eval_table(params, n, nodes)
qprime = v @ table[:n]
q = u @ table[1:]
quad_ratio = np.sqrt(float(weights @ qprime**2) / float(weights @ q**2))
print(f"\nn = {n}: quadrature ratio = {quad_ratio:.12f}")
print(f"        eigenvalue  M_n   = {m_n:.12f}")
print(f"        relative gap      = {abs(quad_ratio - m_n) / m_n:.2e}")
