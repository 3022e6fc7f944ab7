import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from curvedq.cli import selfadjointness_defect
from curvedq.geometry import torus_metric_patch
from curvedq.operators import FORMULATIONS, surface_operator
from curvedq.torus import (
    PARITIES,
    TorusProblem,
    assemble,
    fourier_block,
    jacobi_eigh,
    listing_key,
    magic_alpha,
    overlap_analytic,
    solve_spectrum,
    solve_triangular,
    table_states,
)

from _helpers import half_density_potential, reduced_torus_operator, reduced_weak_form


def _torus_coeffs(alpha, nu, formulation):
    return surface_operator(torus_metric_patch(1.0 / alpha, 1.0), formulation, nu)


def test_problem_validation():
    with pytest.raises(ValueError):
        TorusProblem(2.0, 0, "laplacian")
    with pytest.raises(ValueError):
        TorusProblem(0.5, 0, "dirac")
    with pytest.raises(ValueError):
        TorusProblem(0.5, 0, "laplacian", n_max=24, n_quad=32)
    with pytest.raises(ValueError, match="n_max must be at least 2"):
        TorusProblem(0.5, 0, "laplacian", n_max=1)
    assert TorusProblem(0.5, -3, "laplacian").nu == 3


def test_fourier_block_refuses_an_unknown_parity():
    with pytest.raises(ValueError, match="parity must be 'even' or 'odd', got 'both'"):
        fourier_block("both", 3, np.zeros(4))


def test_alpha_whose_major_radius_overflows_is_refused():
    assert 1.0 / 1e-320 == math.inf
    with pytest.raises(ValueError, match="finite"):
        torus_metric_patch(math.inf, 1.0)
    for formulation in FORMULATIONS:
        with pytest.raises(ValueError, match="finite"):
            solve_spectrum(TorusProblem(1e-320, 0, formulation))


def test_problem_rejects_non_integer_nu():
    for nu in (1.7, -0.5, float("nan"), float("inf"), "x", True, np.True_, np.False_):
        with pytest.raises(ValueError, match="nu"):
            TorusProblem(0.5, nu, "laplacian")
    assert TorusProblem(0.5, 2.0, "laplacian").nu == 2
    assert TorusProblem(0.5, -2.0, "hermitian").nu == 2
    assert TorusProblem(0.5, np.int64(-1), "hermitian").nu == 1


def test_problem_rejects_fractional_sizes():
    # 130.5 trapezoid nodes would weigh 2 pi/130.5 each and miss 2 pi in sum
    for kwargs in ({"n_quad": 130.5}, {"n_max": 24.5}, {"n_max": True}, {"n_quad": "128"}):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            TorusProblem(0.5, 0, "laplacian", **kwargs)
    problem = TorusProblem(0.5, 0, "laplacian", 24.0, 130.0)
    assert (problem.n_max, problem.n_quad) == (24, 130) and type(problem.n_max) is int
    assert len(solve_spectrum(problem).entries) == 49


def test_weight_function():
    # u = alpha a1 a2 on the torus patch of unit minor radius
    op = _torus_coeffs(0.25, 0, "laplacian")
    assert 0.25 * op.weight(0.0) == 1.25
    assert 0.25 * op.weight(math.pi) == 0.75


def test_magic_radius_kills_laplacian_potential():
    w, _ = reduced_torus_operator(0.5, 1, "laplacian")
    theta = np.linspace(0.0, 2.0 * math.pi, 40)
    assert np.max(np.abs(w(theta))) == 0.0


def test_hermitian_magic_radius_leaves_constant_quarter():
    alpha = 1.0 / math.sqrt(5.0)
    op = _torus_coeffs(alpha, 1, "hermitian")
    theta = np.linspace(0.0, 2.0 * math.pi, 40)
    assert np.max(np.abs(2.0 * op.c0(theta) - 0.25)) <= 1e-15


def test_small_alpha_hermitian_potential_vanishes():
    op = _torus_coeffs(1e-9, 0, "hermitian")
    theta = np.linspace(0.0, 2.0 * math.pi, 20)
    assert np.max(np.abs(2.0 * op.c0(theta))) <= 1e-8


def test_torus_operators_are_sturm_liouville_self_adjoint():
    # (c2 weight)' = c1 weight is what lets assemble drop c1 from the weak form
    grid = np.linspace(0.0, 2.0 * math.pi, 37)
    for alpha in (0.05, 1.0 / 3.0, 0.5, 0.9, 0.99):
        patch = torus_metric_patch(1.0 / alpha, 1.0)
        for formulation in FORMULATIONS:
            for nu in (0, 1, 2):
                coeffs = surface_operator(patch, formulation, nu)
                assert selfadjointness_defect(patch, coeffs, grid) <= 1e-14, (alpha, formulation, nu)


def test_overlap_entries_alpha_one_third():
    s = overlap_analytic(1.0 / 3.0, "even", 4)
    assert s[0, 0] == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert s[0, 1] == pytest.approx(math.pi / 3.0, rel=1e-15)
    assert s[1, 1] == pytest.approx(math.pi, rel=1e-15)
    assert s[1, 2] == pytest.approx(math.pi / 6.0, rel=1e-15)
    assert s[0, 2] == 0.0


def test_quadrature_overlap_matches_analytic():
    # the half-density block has the flat Gram matrix diag(2 pi, pi, ...); the
    # u-weighted overlap that maps states back to psi is the closed form
    for alpha in (1.0 / 3.0, 0.5, 2.0 / 3.0):
        problem = TorusProblem(alpha, 0, "laplacian")
        theta = np.arange(problem.n_quad) * 2.0 * math.pi / problem.n_quad
        u = 1.0 + alpha * np.cos(theta)
        for parity in ("even", "odd"):
            _, s = assemble(problem, parity)
            flat = math.pi * np.eye(len(s))
            if parity == "even":
                flat[0, 0] = 2.0 * math.pi
            assert np.max(np.abs(s - flat)) <= 1e-13 * 2.0 * math.pi
            phi, _ = fourier_block(parity, problem.n_max, theta)
            s_u = (phi * (u * 2.0 * math.pi / problem.n_quad)) @ phi.T
            ref = overlap_analytic(alpha, parity, problem.n_max)
            assert np.max(np.abs(s_u - ref)) <= 1e-13 * 2.0 * math.pi


def test_vanishing_potential_zeroes_constant_row():
    h, _ = reduced_weak_form(0.5, 1, "laplacian", "even", 24, 128)
    assert np.max(np.abs(h[0, :])) == 0.0
    assert np.max(np.abs(h[:, 0])) == 0.0


def test_magic_ratio_ground_state_is_constant_for_each_nu():
    # the half-density block has no vanishing row (v = u^(1/2) is not a
    # trig polynomial), so the check is on the solved state
    for nu in range(1, 6):
        ground = solve_spectrum(TorusProblem(magic_alpha(nu, "laplacian"), nu, "laplacian")).entries[0]
        assert abs(ground.beta) <= 1e-12, nu
        e0 = np.zeros_like(ground.coeffs)
        e0[0] = 1.0 / math.sqrt(2.0 * math.pi)
        assert np.max(np.abs(ground.coeffs - e0)) <= 1e-12, nu


def test_jacobi_against_scipy_oracle():
    rng = np.random.default_rng(12)
    for n in (3, 8, 17, 25):
        m = rng.normal(size=(n, n))
        a = 0.5 * (m + m.T)
        vals, vecs = jacobi_eigh(a)
        ref_vals, _ = np.linalg.eigh(a)
        assert np.max(np.abs(vals - ref_vals)) <= 1e-11 * max(1.0, np.max(np.abs(ref_vals)))
        recon = vecs @ np.diag(vals) @ vecs.T
        assert np.max(np.abs(recon - a)) <= 1e-11
        assert np.max(np.abs(vecs.T @ vecs - np.eye(n))) <= 1e-12


def test_solve_triangular_matches_scipy():
    rng = np.random.default_rng(14)
    for n in (1, 2, 25):
        full = rng.normal(size=(n, n)) + n * np.eye(n)
        for lower in (True, False):
            tri = np.tril(full) if lower else np.triu(full)
            for b in (rng.normal(size=n), rng.normal(size=(n, 3))):
                # only the named triangle is read, as in scipy
                x = solve_triangular(full, b, lower=lower)
                ref = scipy.linalg.solve_triangular(tri, b, lower=lower)
                assert x.shape == ref.shape
                assert np.max(np.abs(x - ref)) <= 1e-13
                assert np.max(np.abs(tri @ x - b)) <= 1e-12


def test_jacobi_reaches_offdiagonal_target():
    rng = np.random.default_rng(13)
    m = rng.normal(size=(29, 29)) * 100.0
    a = 0.5 * (m + m.T)
    vals, vecs = jacobi_eigh(a, tol=1e-12)
    d = vecs.T @ a @ vecs
    off = math.sqrt(float(np.sum(np.triu(d, 1) ** 2) * 2.0))
    assert off <= 1e-9  # reconstruction roundoff dominates; diagonalization itself hit 1e-12


def test_solve_spectrum_matches_jacobi_oracle():
    # each flat half-density block diagonalized by cyclic Jacobi, its states
    # mapped to psi = u^(-1/2) v with scipy and orthonormalized by Loewdin
    cases = (
        (1.0 / 3.0, 0, "laplacian"),
        (0.5, 1, "laplacian"),  # magic ratio
        (magic_alpha(2, "hermitian"), 2, "hermitian"),
        (0.9, 3, "hermitian"),
        (0.9, 0, "laplacian"),
    )
    for alpha, nu, form in cases:
        problem = TorusProblem(alpha, nu, form)
        result = solve_spectrum(problem)
        theta = np.arange(problem.n_quad) * 2.0 * math.pi / problem.n_quad
        root_u = np.sqrt(1.0 + alpha * np.cos(theta))
        for parity in ("even", "odd"):
            h, s = assemble(problem, parity)
            scale = 1.0 / np.sqrt(np.diag(s))
            vals, vecs = jacobi_eigh(scale[:, None] * h * scale)
            phi, _ = fourier_block(parity, problem.n_max, theta)
            project = (phi * (root_u * 2.0 * math.pi / problem.n_quad)) @ phi.T
            s_u = overlap_analytic(alpha, parity, problem.n_max)
            coeffs = scipy.linalg.solve(s_u, project @ (scale[:, None] * vecs), assume_a="pos")
            coeffs = coeffs @ scipy.linalg.inv(scipy.linalg.sqrtm(coeffs.T @ s_u @ coeffs).real)
            entries = [e for e in result.entries if e.parity == parity]
            assert len(entries) == len(vals)
            for j, entry in enumerate(entries):
                assert abs(entry.beta - vals[j]) <= 1e-10 * max(1.0, abs(vals[j]))
                c = coeffs[:, j]
                c = c if c[np.argmax(np.abs(c))] > 0.0 else -c
                assert np.max(np.abs(entry.coeffs - c)) <= 1e-9


def test_psi_form_galerkin_agrees_on_the_low_spectrum():
    # the psi-form weak form under u dtheta, solved by scipy's generalized
    # eigensolver, converges to the same low states
    for alpha in (1.0 / 3.0, 0.5, 2.0 / 3.0):
        for nu in range(4):
            for formulation in FORMULATIONS:
                psi_form = []
                for parity in PARITIES:
                    h, s = reduced_weak_form(alpha, nu, formulation, parity, 24, 128)
                    psi_form.extend(scipy.linalg.eigh(h, s, eigvals_only=True))
                betas = [e.beta for e in solve_spectrum(TorusProblem(alpha, nu, formulation)).entries]
                assert np.max(np.abs(np.array(betas[:8]) - sorted(psi_form)[:8])) <= 1e-10


def test_hermitian_nu0_ladder_is_exact_near_the_horn_torus():
    # in half-density form the hermitian nu = 0 block is -v'' = beta v exactly,
    # however strongly u = 1 + alpha cos(theta) varies
    for alpha in (0.99, 0.999999):
        result = solve_spectrum(TorusProblem(alpha, 0, "hermitian", n_max=24))
        betas = [e.beta for e in result.entries[:7]]
        assert betas == pytest.approx([0.0, 1.0, 1.0, 4.0, 4.0, 9.0, 9.0], abs=1e-10)


def test_lowest_state_alpha_one_third_laplacian():
    result = solve_spectrum(TorusProblem(1.0 / 3.0, 0, "laplacian"))
    ground = result.entries[0]
    assert ground.beta == pytest.approx(-0.2834, abs=5e-3)
    assert ground.parity == "even"
    assert ground.coeffs[0] == pytest.approx(0.4082, abs=0.01)
    assert ground.coeffs[1] == pytest.approx(-0.0776, abs=0.01)


def test_magic_state_is_exactly_constant():
    result = solve_spectrum(TorusProblem(0.5, 1, "laplacian"))
    ground = result.entries[0]
    assert abs(ground.beta) <= 1e-12
    unit = ground.coeffs / np.linalg.norm(ground.coeffs)
    ref = np.zeros_like(unit)
    ref[0] = 1.0
    assert np.max(np.abs(unit - ref)) <= 1e-10
    assert ground.coeffs[0] == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-12)


def test_hermitian_zero_mode_matches_inverse_sqrt_weight():
    for alpha in (0.2, 1.0 / 3.0, 0.5):
        problem = TorusProblem(alpha, 0, "hermitian")
        result = solve_spectrum(problem)
        ground = result.entries[0]
        assert abs(ground.beta) <= 1e-9
        # independent quadrature oracle for the normalized expansion of u^(-1/2)
        theta = np.arange(4096) * 2.0 * math.pi / 4096
        u = 1.0 + alpha * np.cos(theta)
        psi = u**-0.5
        psi /= math.sqrt(float(np.sum(psi * psi * u)) * 2.0 * math.pi / 4096)
        ref = [float(np.sum(psi)) / 4096]
        ref += [float(np.sum(psi * np.cos(n * theta))) * 2.0 / 4096 for n in range(1, problem.n_max + 1)]
        ref = np.array(ref)
        assert np.max(np.abs(ground.coeffs - ref)) <= 1e-6


def test_hermitian_nu0_spectrum_is_free_ring_for_any_alpha():
    # psi = u^(-1/2) v maps the problem onto -v'' = beta v, so beta = n^2 exactly
    for alpha in (0.3, 2.0 / 3.0):
        result = solve_spectrum(TorusProblem(alpha, 0, "hermitian"))
        betas = [e.beta for e in result.entries[:5]]
        assert betas == pytest.approx([0.0, 1.0, 1.0, 4.0, 4.0], abs=1e-9)


def test_second_excited_hermitian_state_alpha_two_thirds():
    # odd member of the beta = 1 pair: psi proportional to u^(-1/2) sin(theta)
    result = solve_spectrum(TorusProblem(2.0 / 3.0, 0, "hermitian"))
    odd = [e for e in result.entries if e.parity == "odd"][0]
    assert odd.beta == pytest.approx(1.0, abs=1e-9)
    theta = np.arange(4096) * 2.0 * math.pi / 4096
    u = 1.0 + (2.0 / 3.0) * np.cos(theta)
    psi = np.sin(theta) * u**-0.5
    psi /= math.sqrt(float(np.sum(psi * psi * u)) * 2.0 * math.pi / 4096)
    ref = np.array([float(np.sum(psi * np.sin(n * theta))) * 2.0 / 4096 for n in range(1, 25)])
    assert np.max(np.abs(odd.coeffs - ref)) <= 1e-8
    assert odd.coeffs[0] == pytest.approx(0.5888, abs=0.01)
    # the sin(2 theta) coefficient is negative relative to the leading one
    assert -0.13 < odd.coeffs[1] < -0.09


def test_normalization_and_ordering_invariants():
    problem = TorusProblem(0.4, 1, "hermitian")
    result = solve_spectrum(problem)
    betas = [e.beta for e in result.entries]
    assert betas == sorted(betas)
    for entry in result.entries:
        s = overlap_analytic(problem.alpha, entry.parity, problem.n_max)
        norm = float(entry.coeffs @ s @ entry.coeffs)
        assert norm == pytest.approx(1.0, abs=1e-10)
        top = entry.coeffs[np.argmax(np.abs(entry.coeffs))]
        assert top > 0.0


def test_magic_alpha_values():
    for nu in range(1, 6):
        assert magic_alpha(nu, "laplacian") == 1.0 / (2.0 * nu)
        assert magic_alpha(nu, "hermitian") == 1.0 / math.sqrt(1.0 + 4.0 * nu * nu)
    assert magic_alpha(1, "laplacian") == 0.5
    assert magic_alpha(1, "hermitian") == pytest.approx(0.44721, abs=1e-5)
    assert magic_alpha(2, "laplacian") == 0.25
    with pytest.raises(ValueError):
        magic_alpha(0, "laplacian")
    for nu in (1.5, -0.5, True, "1"):
        for formulation in FORMULATIONS:
            with pytest.raises(ValueError, match="nu"):
                magic_alpha(nu, formulation)
    assert magic_alpha(2.0, "laplacian") == 0.25


def test_flat_limit_spectra():
    herm = solve_spectrum(TorusProblem(1e-4, 0, "hermitian"))
    assert [e.beta for e in herm.entries[:5]] == pytest.approx([0, 1, 1, 4, 4], abs=1e-3)
    lap = solve_spectrum(TorusProblem(1e-4, 0, "laplacian"))
    assert [e.beta for e in lap.entries[:5]] == pytest.approx(
        [-0.25, 0.75, 0.75, 3.75, 3.75], abs=1e-3
    )


def test_convergence_in_basis_size():
    for alpha, nu, form in ((1.0 / 3.0, 0, "laplacian"), (2.0 / 3.0, 2, "hermitian")):
        coarse = solve_spectrum(TorusProblem(alpha, nu, form, 16, 128))
        fine = solve_spectrum(TorusProblem(alpha, nu, form, 20, 128))
        for i in range(3):
            assert abs(coarse.entries[i].beta - fine.entries[i].beta) <= 1e-8


TABLE_BETAS = {
    (1.0 / 3.0, "laplacian"): [(-0.2834, 0), (-0.1528, 1), (0.1968, 2)],
    (1.0 / 3.0, "hermitian"): [(0.0, 0), (0.1267, 1), (0.4735, 2)],
    (0.5, "laplacian"): [(-0.3511, 0), (0.0, 1), (0.6288, 2)],
    (0.5, "hermitian"): [(0.0, 0), (0.3192, 1), (0.9212, 2)],
    (2.0 / 3.0, "laplacian"): [(-0.5947, 0), (0.2024, 1), (0.4377, 0)],
    (2.0 / 3.0, "hermitian"): [(0.0, 0), (0.5397, 1), (1.0, 0)],
}


def test_table_states_reproduce_reference_spectra():
    for (alpha, form), rows in TABLE_BETAS.items():
        states = table_states(alpha, form)
        assert len(states) == 3
        for state, (beta_ref, nu_ref) in zip(states, rows):
            assert state.beta == pytest.approx(beta_ref, abs=5e-3)
            assert state.nu == nu_ref


def test_degenerate_pair_listed_odd_first():
    states = table_states(2.0 / 3.0, "hermitian")
    assert states[2].parity == "odd"
    assert states[2].basis == "sin"


def test_listing_key_puts_degenerate_pairs_odd_first_and_keeps_solve_order_ascending():
    entries = solve_spectrum(TorusProblem(0.9, 0, "hermitian")).entries
    betas = [e.beta for e in entries]
    assert betas == sorted(betas)
    listed = sorted(entries, key=listing_key)
    pairs = [(a, b) for a, b in zip(listed, listed[1:]) if round(a.beta, 8) == round(b.beta, 8)]
    assert len(pairs) >= 4
    assert all((a.parity, b.parity) == ("odd", "even") for a, b in pairs)


def test_assembled_blocks_are_symmetric():
    h, s = assemble(TorusProblem(0.37, 2, "hermitian", 12, 64), "odd")
    assert np.array_equal(h, h.T)
    assert np.array_equal(s, s.T)


_configs = st.tuples(
    st.floats(0.01, 0.95),
    st.integers(0, 4),
    st.sampled_from(FORMULATIONS),
    st.integers(2, 20),
)


@settings(max_examples=40, deadline=None)
@given(_configs)
def test_spectrum_sorted_and_s_orthonormal(config):
    problem = TorusProblem(*config)
    result = solve_spectrum(problem)
    betas = [e.beta for e in result.entries]
    assert betas == sorted(betas)
    for parity in ("even", "odd"):
        coeffs = np.array([e.coeffs for e in result.entries if e.parity == parity])
        gram = coeffs @ overlap_analytic(problem.alpha, parity, problem.n_max) @ coeffs.T
        assert np.max(np.abs(gram - np.eye(len(coeffs)))) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(_configs, st.integers(1, 6))
def test_spectrum_obeys_rayleigh_ritz_in_basis_size(config, extra):
    # nested bases on the same quadrature grid: no beta_j may rise with n_max
    alpha, nu, formulation, n_max = config
    n_quad = 4 * (n_max + extra) + 8
    coarse = solve_spectrum(TorusProblem(alpha, nu, formulation, n_max, n_quad)).entries
    fine = solve_spectrum(TorusProblem(alpha, nu, formulation, n_max + extra, n_quad)).entries
    for small, large in zip(coarse, fine):
        assert large.beta <= small.beta + 1e-9 * max(1.0, abs(small.beta))


@settings(max_examples=40, deadline=None)
@given(_configs)
def test_parity_blocks_match_full_basis_solve(config):
    # independent route: the hand-reduced half-density potential in one
    # combined cos+sin basis, solved by scipy's generalized eigensolver
    alpha, nu, form, n_max = config
    n_quad = TorusProblem(*config).n_quad
    q = half_density_potential(alpha, nu, form)
    theta = np.arange(n_quad) * 2.0 * math.pi / n_quad
    wq = 2.0 * math.pi / n_quad
    rows = [np.ones_like(theta)] + [np.cos(m * theta) for m in range(1, n_max + 1)]
    rows += [np.sin(m * theta) for m in range(1, n_max + 1)]
    drows = [np.zeros_like(theta)] + [-m * np.sin(m * theta) for m in range(1, n_max + 1)]
    drows += [m * np.cos(m * theta) for m in range(1, n_max + 1)]
    phi = np.vstack(rows)
    dphi = np.vstack(drows)
    h = (dphi * wq) @ dphi.T + (phi * (q(theta) * wq)) @ phi.T
    s = (phi * wq) @ phi.T
    full = np.sort(scipy.linalg.eigh(0.5 * (h + h.T), 0.5 * (s + s.T), eigvals_only=True))
    merged = [e.beta for e in solve_spectrum(TorusProblem(*config)).entries]
    assert np.max(np.abs(np.array(merged) - full)) <= 1e-10 * max(1.0, abs(full[-1]))
