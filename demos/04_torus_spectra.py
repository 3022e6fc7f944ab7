"""Low-lying spectra of a particle on a torus, both formulations.

The dimensionless eigenvalue is beta = 2 E a^2.  The two formulations
differ by the curvature potential: with it (laplacian route) the ground
state is bound below zero; without it (hermitian route) the nu = 0
problem maps exactly onto a free ring, so its spectrum is 0, 1, 1, 4, ...
for every aspect ratio and the ground state is (1 + alpha cos)^(-1/2).
"""

import numpy as np

from curvedq import TorusProblem, solve_spectrum, table_states


def fixed4(x):
    """x to 4 decimals, printing a rounding-level negative as +0.0000."""
    return f"{round(float(x), 4) + 0.0:+.4f}"


for alpha_text, alpha in (("1/3", 1.0 / 3.0), ("1/2", 0.5), ("2/3", 2.0 / 3.0)):
    print(f"alpha = {alpha_text}")
    for formulation in ("laplacian", "hermitian"):
        print(f"  {formulation}:")
        for st in table_states(alpha, formulation):
            lead = "  ".join(fixed4(c) for c in st.coeffs[:3])
            print(
                f"    beta={fixed4(st.beta)}  nu={st.nu}  {st.parity:4s}  "
                f"{st.basis} coefficients: {lead}"
            )
    print()

# The exact hermitian nu = 0 ladder at a fat aspect ratio.
result = solve_spectrum(TorusProblem(0.8, 0, "hermitian"))
betas = np.array([e.beta for e in result.entries[:7]])
print("hermitian nu=0, alpha=0.8, lowest betas (exact values are n^2):")
print(" ", np.array2string(betas, precision=10, suppress_small=True))
