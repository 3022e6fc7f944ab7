"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.

The reference spectra used in criteria 1-3 are tabulated values for
alpha = 1/3, 1/2, 2/3.  Three wave-function entries of the alpha = 1/3
table are corrected before comparison (noted inline): two cos-coefficient
signs and one constant term disagree with the exact closed-form ground
state and with two independent converged computations, which agree with
each other to 1e-4.
"""

import math

import numpy as np

import curvedq as cq

from _helpers import random_shape_source, reduced_weak_form

TOL_BETA = 5e-3
TOL_COEFF = 0.01


def _report(num, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num:02d} [{status}] {description}"
    if detail and not ok:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _match_up_to_global_sign(coeffs, listed):
    """Worst per-coefficient deviation over the best global sign choice."""
    devs = []
    for sign in (1.0, -1.0):
        devs.append(max(abs(sign * coeffs[idx] - val) for idx, val in listed.items()))
    return min(devs)


# beta, nu, {harmonic index: coefficient}.  The nu=0 ground state of the
# second block is exactly the expansion of (1 + alpha cos)^{-1/2}; its cos
# coefficient is negative relative to the constant term (sign corrected
# here).  Both nu=2 cos coefficients take the sign of the repulsive
# azimuthal potential (sign corrected), and the nu=2 constant term of the
# first block is the converged value 0.3884 (Galerkin and finite
# differences agree to 1e-4).
TABLE1 = {
    "laplacian": [
        (-0.2834, 0, {0: 0.4082, 1: -0.0776}),
        (-0.1528, 1, {0: 0.4049, 1: -0.0421}),
        (+0.1968, 2, {0: 0.3884, 1: +0.0525}),
    ],
    "hermitian": [
        (0.0, 0, {0: 0.4075, 1: -0.0686}),
        (+0.1267, 1, {0: 0.4038, 1: -0.0335}),
        (+0.4735, 2, {0: 0.3869, 1: +0.0593}),
    ],
}

TABLE2_BETAS = {
    "laplacian": [(-0.3511, 0), (0.0, 1), (+0.6288, 2)],
    "hermitian": [(0.0, 0), (+0.3192, 1), (+0.9212, 2)],
}

TABLE3_BETAS = {
    "laplacian": [(-0.5947, 0), (+0.2024, 1), (+0.4377, 0)],
    "hermitian": [(0.0, 0), (+0.5397, 1), (+1.0, 0)],
}


def test_criterion_01_table1_reproduction():
    problems = []
    for formulation, rows in TABLE1.items():
        states = cq.table_states(1.0 / 3.0, formulation)
        for state, (beta_ref, nu_ref, listed) in zip(states, rows):
            if abs(state.beta - beta_ref) > TOL_BETA:
                problems.append(f"{formulation} nu={nu_ref}: beta {state.beta:+.4f} vs {beta_ref:+.4f}")
            if state.nu != nu_ref:
                problems.append(f"{formulation}: expected nu={nu_ref}, got {state.nu}")
            dev = _match_up_to_global_sign(state.coeffs, listed)
            if dev > TOL_COEFF:
                problems.append(f"{formulation} nu={nu_ref}: coefficient deviation {dev:.4f}")
    _report(1, "alpha=1/3 spectra and wave functions", not problems, "; ".join(problems))


def test_criterion_02_table2_reproduction():
    problems = []
    for formulation, rows in TABLE2_BETAS.items():
        states = cq.table_states(0.5, formulation)
        for state, (beta_ref, nu_ref) in zip(states, rows):
            if abs(state.beta - beta_ref) > TOL_BETA or state.nu != nu_ref:
                problems.append(f"{formulation}: beta {state.beta:+.4f} vs {beta_ref:+.4f} (nu {nu_ref})")
    ground = cq.solve_spectrum(cq.TorusProblem(0.5, 1, "laplacian")).entries[0]
    unit = ground.coeffs / np.linalg.norm(ground.coeffs)
    e0 = np.zeros_like(unit)
    e0[0] = 1.0
    if np.max(np.abs(unit - e0)) > 1e-10:
        problems.append("nu=1 state is not the constant vector")
    _report(2, "alpha=1/2 spectra; magic nu=1 state exactly constant", not problems, "; ".join(problems))


def test_criterion_03_table3_reproduction():
    problems = []
    third_parity = None
    for formulation, rows in TABLE3_BETAS.items():
        states = cq.table_states(2.0 / 3.0, formulation)
        for state, (beta_ref, nu_ref) in zip(states, rows):
            if abs(state.beta - beta_ref) > TOL_BETA or state.nu != nu_ref:
                problems.append(f"{formulation}: beta {state.beta:+.4f} vs {beta_ref:+.4f} (nu {nu_ref})")
        if formulation == "hermitian":
            third_parity = states[2].parity
    if third_parity != "odd":
        problems.append(f"third hermitian state has parity {third_parity}")
    _report(3, "alpha=2/3 spectra; third hermitian state odd", not problems, "; ".join(problems))


def test_criterion_04_curvature_term_cancellation():
    rng = np.random.default_rng(2026)
    worst_match = 0.0
    worst_cancel = 0.0
    for i in range(100):
        shape = cq.parse_shape(random_shape_source(rng, i))
        patch = cq.graph_metric_patch(shape, (0.3, 1.7))
        sample = cq.curvature_sample(patch, float(rng.uniform(0.4, 1.6)))
        h, k = sample.h, sample.k
        c0 = cq.normal_momentum_sq_coeffs(h, k, 0.0)[2]
        worst_match = max(worst_match, abs(c0 - (k - h * h)))
        worst_cancel = max(worst_cancel, abs(c0 + cq.rescaling_potential(h, k, 0.0)))
    ok = worst_match <= 1e-12 and worst_cancel <= 1e-12
    _report(4, "normal-kinetic zero-order term cancels the rescaling term (100 random shapes)",
            ok, f"match {worst_match:.2e}, cancel {worst_cancel:.2e}")


def test_criterion_05_exact_zero_modes():
    problems = []
    for alpha in (0.1, 1.0 / 3.0, 0.5, 2.0 / 3.0, 0.9):
        problem = cq.TorusProblem(alpha, 0, "hermitian", n_max=32, n_quad=144)
        ground = cq.solve_spectrum(problem).entries[0]
        if abs(ground.beta) > 1e-9:
            problems.append(f"alpha={alpha:.3f}: beta0 = {ground.beta:.2e}")
        theta = np.arange(8192) * 2.0 * math.pi / 8192
        u = 1.0 + alpha * np.cos(theta)
        psi = u**-0.5
        psi /= math.sqrt(float(np.sum(psi * psi * u)) * 2.0 * math.pi / 8192)
        ref = [float(np.sum(psi)) / 8192]
        ref += [float(np.sum(psi * np.cos(n * theta))) * 2.0 / 8192 for n in range(1, 33)]
        dev = float(np.max(np.abs(ground.coeffs - np.array(ref))))
        if dev > 1e-6:
            problems.append(f"alpha={alpha:.3f}: coefficient deviation {dev:.2e}")
    _report(5, "hermitian nu=0 zero mode equals (1+a cos)^(-1/2) expansion", not problems,
            "; ".join(problems))


def test_criterion_06_magic_aspect_ratios():
    problems = []
    for nu in range(1, 6):
        if cq.magic_alpha(nu, "laplacian") != 1.0 / (2.0 * nu):
            problems.append(f"laplacian nu={nu}")
        if cq.magic_alpha(nu, "hermitian") != 1.0 / math.sqrt(1.0 + 4.0 * nu * nu):
            problems.append(f"hermitian nu={nu}")
        alpha = cq.magic_alpha(nu, "laplacian")
        h, _ = cq.assemble(cq.TorusProblem(alpha, nu, "laplacian"), "even")
        residual = float(np.linalg.norm(h[:, 0]))
        if residual > 1e-12:
            problems.append(f"nu={nu}: constant-vector residual {residual:.2e}")
    _report(6, "magic aspect ratios exact; constant vector an exact eigenvector", not problems,
            "; ".join(problems))


def test_criterion_07_two_assembly_routes_agree():
    worst = 0.0
    for alpha in (1.0 / 3.0, 0.5, 2.0 / 3.0):
        for formulation in ("laplacian", "hermitian"):
            for nu in (0, 1, 2):
                problem = cq.TorusProblem(alpha, nu, formulation)
                for parity in ("even", "odd"):
                    h1, s1 = reduced_weak_form(alpha, nu, formulation, parity, 24, 128)
                    h2, s2 = cq.assemble(problem, parity)
                    worst = max(worst, float(np.max(np.abs(h1 - h2))), float(np.max(np.abs(s1 - s2))))
    _report(7, "reduced-equation and operator-pipeline matrices agree entrywise",
            worst <= 1e-10, f"max deviation {worst:.2e}")


def test_criterion_08_umbilic_and_flat_limits():
    problems = []
    hemisphere = cq.graph_metric_patch(cq.parse_shape("sqrt(4-rho^2)"), (0.0, 1.99))
    worst_vc = max(
        abs(cq.curvature_sample(hemisphere, float(r)).vc) for r in np.linspace(0.0, 1.99, 200)
    )
    if worst_vc > 1e-12:
        problems.append(f"hemisphere V_C up to {worst_vc:.2e}")
    herm = [e.beta for e in cq.solve_spectrum(cq.TorusProblem(1e-4, 0, "hermitian")).entries[:5]]
    lap = [e.beta for e in cq.solve_spectrum(cq.TorusProblem(1e-4, 0, "laplacian")).entries[:5]]
    for got, ref in zip(herm, (0.0, 1.0, 1.0, 4.0, 4.0)):
        if abs(got - ref) > 1e-3:
            problems.append(f"hermitian flat limit: {got:.5f} vs {ref}")
    for got, ref in zip(lap, (-0.25, 0.75, 0.75, 3.75, 3.75)):
        if abs(got - ref) > 1e-3:
            problems.append(f"laplacian flat limit: {got:.5f} vs {ref}")
    _report(8, "hemisphere is umbilic; alpha -> 0 gives the free ring (shifted by -1/4)",
            not problems, "; ".join(problems))


def test_criterion_09_hermiticity_on_the_torus():
    patch = cq.torus_metric_patch(3.0, 1.0)
    p_theta, p_phi, _ = cq.hermitian_momenta(patch)
    basis = [cq.parse_shape(s) for s in (
        "1", "cos(rho)", "sin(rho)", "cos(2*rho)", "sin(2*rho)", "cos(3*rho)", "sin(3*rho)",
    )]
    worst = max(
        cq.hermiticity_residual(p_theta, patch, f, g, n_points=256) for f in basis for g in basis
    )
    worst_phi = cq.hermiticity_residual(p_phi, patch, basis[1], basis[2], n_points=256)
    naive = cq.MomentumOp("theta", lambda w: 0.0)
    control = cq.hermiticity_residual(naive, patch, basis[0], basis[2], n_points=256)
    ok = worst <= 1e-10 and worst_phi <= 1e-10 and control >= 0.1
    _report(9, "constructed momenta Hermitian over trig basis; drift-stripped control fails",
            ok, f"worst {worst:.2e}, phi {worst_phi:.2e}, control {control:.3f}")


def test_criterion_10_basis_size_convergence():
    worst = 0.0
    configs = [(a, f) for a in (1.0 / 3.0, 0.5, 2.0 / 3.0) for f in ("laplacian", "hermitian")]
    for alpha, formulation in configs:
        for n_lo, n_hi in ((16, 20), (24, 28)):
            lo = cq.table_states(alpha, formulation, n_max=n_lo, n_quad=128)
            hi = cq.table_states(alpha, formulation, n_max=n_hi, n_quad=128)
            for a, b in zip(lo, hi):
                worst = max(worst, abs(a.beta - b.beta))
    _report(10, "reported eigenvalues stable to 1e-8 under n_max -> n_max + 4",
            worst <= 1e-8, f"max shift {worst:.2e}")
