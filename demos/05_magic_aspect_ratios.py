"""Magic aspect ratios: where the azimuthal potential term vanishes.

For azimuthal number nu, the effective potential of the torus equation
loses its theta dependence at alpha = 1/(2 nu) (laplacian route) or
alpha = 1/sqrt(1 + 4 nu^2) (hermitian route).  At a laplacian magic ratio
the potential vanishes entirely, so the constant function is an exact
eigenstate with beta = 0.
"""

import numpy as np

from curvedq import TorusProblem, magic_alpha, solve_spectrum, surface_operator, torus_metric_patch

print("magic aspect ratios:")
print("   nu   laplacian 1/(2 nu)   hermitian 1/sqrt(1+4 nu^2)")
for nu in range(1, 6):
    print(f"   {nu}    {magic_alpha(nu, 'laplacian'):<18.6f}  {magic_alpha(nu, 'hermitian'):.6f}")

print("\nat laplacian magic ratios the potential c0 vanishes and the constant is the ground state:")
theta = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
for nu in (1, 2, 3):
    alpha = magic_alpha(nu, "laplacian")
    c0 = surface_operator(torus_metric_patch(1.0 / alpha, 1.0), "laplacian", nu).c0(theta)
    ground = solve_spectrum(TorusProblem(alpha, nu, "laplacian")).entries[0]
    print(
        f"  nu={nu}, alpha={alpha:.4f}:  max|c0| = {np.max(np.abs(c0)):.2e},  beta = {ground.beta:+.2e},"
        f"  leading coefficients {np.round(ground.coeffs[:3], 6) + 0.0}"
    )
print("  (the constant 0.398942 is 1/sqrt(2 pi), the normalized flat state)")
