# How large can ||Q'|| get relative to ||Q||, over polynomials of degree
# at most n, in L2((-1,1), (1-x)^alpha (1+x)^beta)?  The sharp ratio M_n
# is the reciprocal square root of the smallest generalized eigenvalue
# of a banded pencil built from monic-Jacobi norms.  This script walks
# through the small cases where M_n is known in closed form.

import math

from mblab import JacobiWeightParams, extremal_polynomial, sharp_constant

legendre = JacobiWeightParams(0.0, 0.0)

# Degree 1, flat weight: among Q = a + b x the ratio ||Q'||/||Q|| is
# maximized by Q = x, giving sqrt(3).
report = sharp_constant(legendre, 1)
print(f"M_1 (flat weight)      = {report.m_n:.15f}   (sqrt(3)  = {math.sqrt(3):.15f})")

# Degree 2: the extremal polynomial is x^2 - 1/3 and M_2 = sqrt(15).
report = sharp_constant(legendre, 2)
print(f"M_2 (flat weight)      = {report.m_n:.15f}   (sqrt(15) = {math.sqrt(15):.15f})")

# Weight (1-x)(1+x): M_1 = sqrt(5).
report = sharp_constant(JacobiWeightParams(1.0, 1.0), 1)
print(f"M_1 (weight 1 - x^2)   = {report.m_n:.15f}   (sqrt(5)  = {math.sqrt(5):.15f})")

# The solver brackets lambda by an inertia count and a compensated
# Rayleigh bound.  The residual ||B w - lambda w|| of the unit eigenvector
# w of B = H^T H is reported alongside; it is an absolute number, not a
# certificate.
report = sharp_constant(legendre, 40)
print(f"\nM_40 = {report.m_n:.12f}, eigenpair residual = {report.residual:.2e}")

# The eigenvector doubles as the extremal polynomial: v holds the
# coefficients of Q' in the monic basis, u those of Q one degree up.
u, v, m_n = extremal_polynomial(legendre, 2)
print("\ndegree-2 extremal coefficients")
print("  Q   =", " + ".join(f"{c:+.3f} P_{k + 1}" for k, c in enumerate(u)))
print("  Q'  =", " + ".join(f"{c:+.3f} P_{k}" for k, c in enumerate(v)))
print("  so Q is proportional to x^2 - 1/3, and Q' to x.")
