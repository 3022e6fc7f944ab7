import decimal
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import curvedq.torus
from curvedq.cli import selfadjointness_defect
from curvedq.geometry import torus_metric_patch
from curvedq.operators import FORMULATIONS, ORDERINGS, fourier_basis, galerkin, solve, surface_operator
from curvedq.torus import (
    PARITIES,
    TorusProblem,
    assemble,
    check_alpha,
    jacobi_eigh,
    listing_key,
    magic_alpha,
    overlap_analytic,
    solve_spectrum,
    solve_triangular,
    table_states,
)

from _helpers import (
    half_density_potential,
    half_density_weak_form,
    reduced_torus_operator,
    reduced_weak_form,
    shell_even_betas,
    surface_measure,
)


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
    patch = torus_metric_patch(1.0 / 0.25, 1.0)
    assert 0.25 * surface_measure(patch, 0.0) == 1.25
    assert 0.25 * surface_measure(patch, math.pi) == 0.75


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
    # (c2 a1 a2)' = c1 a1 a2 is what lets assemble drop c1 from the weak form
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
    # u-weighted overlap that maps states back to psi, u = alpha a1 a2 off the
    # patch frame as solve_spectrum reads it, is the closed form
    for alpha in (1.0 / 3.0, 0.5, 2.0 / 3.0):
        problem = TorusProblem(alpha, 0, "laplacian")
        for parity in ("even", "odd"):
            theta, wq, phi, _ = fourier_basis(parity, problem.n_max, problem.n_quad)
            u = alpha * surface_measure(torus_metric_patch(1.0 / alpha, 1.0), theta)
            _, s = assemble(problem, parity)
            flat = math.pi * np.eye(len(s))
            if parity == "even":
                flat[0, 0] = 2.0 * math.pi
            assert np.max(np.abs(s - flat)) <= 1e-13 * 2.0 * math.pi
            s_u = (phi * (u * wq)) @ phi.T
            ref = overlap_analytic(alpha, parity, problem.n_max)
            assert np.max(np.abs(s_u - ref)) <= 1e-13 * 2.0 * math.pi


def test_torus_blocks_are_galerkin_on_the_fourier_basis():
    # the torus builds no weak form and no basis of its own: bit for bit the one path of every patch
    for alpha in np.random.default_rng(35).uniform(0.05, 0.95, 4).tolist():
        patch = torus_metric_patch(1.0 / alpha, 1.0)
        for nu in range(5):
            for formulation in FORMULATIONS:
                op = surface_operator(patch, formulation, nu)
                for n_max in (24, 48, 96):
                    problem = TorusProblem(alpha, nu, formulation, n_max)
                    for parity in PARITIES:
                        want = galerkin(op, fourier_basis(parity, n_max, problem.n_quad))
                        got = assemble(problem, parity)
                        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want)), (alpha, nu, n_max)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 64), st.integers(0, 192))
def test_fourier_rows_are_orthogonal_at_every_accepted_rule(n_max, extra):
    # solve_spectrum scales each block by diag(S)^(-1/2): S must be diagonal at any n_quad TorusProblem accepts
    n_quad = TorusProblem(0.5, 0, "hermitian", n_max, 4 * n_max + 8 + extra).n_quad
    op = surface_operator(torus_metric_patch(2.0, 1.0), "hermitian", 0)
    for parity in PARITIES:
        _, s = galerkin(op, fourier_basis(parity, n_max, n_quad))
        flat = math.pi * np.eye(len(s))
        if parity == "even":
            flat[0, 0] = 2.0 * math.pi
        assert np.max(np.abs(s - flat)) <= 1e-13 * 2.0 * math.pi, (n_max, n_quad, parity)


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
        for parity in ("even", "odd"):
            h, s = assemble(problem, parity)
            scale = 1.0 / np.sqrt(np.diag(s))
            vals, vecs = jacobi_eigh(scale[:, None] * h * scale)
            theta, wq, phi, _ = fourier_basis(parity, problem.n_max, problem.n_quad)
            project = (phi * (np.sqrt(1.0 + alpha * np.cos(theta)) * wq)) @ phi.T
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


def test_magic_alpha_past_the_float_range_is_a_ratio_or_refused_by_name():
    # 4 nu^2 overflows past nu = 7e153; past nu = 9e307 the ratio, about 1/(2 nu), has no finite
    # reciprocal, and past 1.8e308 nu has no float
    for nu, refused in ((10**154, False), (10**308, True), (10**309, True), (10**400, True)):
        for formulation in FORMULATIONS:
            if refused:
                with pytest.raises(ValueError, match=r"^nu "):
                    magic_alpha(nu, formulation)
                continue
            alpha = magic_alpha(nu, formulation)
            check_alpha(alpha)
            with decimal.localcontext() as ctx:
                ctx.prec = 50
                exact = decimal.Decimal(nu)
                root = 2 * exact if formulation == "laplacian" else (1 + 4 * exact**2).sqrt()
                closed = float(1 / root)
            assert alpha == pytest.approx(closed, rel=4e-16, abs=0.0), formulation


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


# seeded ratios, the golden ones and the hermitian magic ratios; the hermitian nu = 0
# pairs are degenerate at every alpha, so a cut at three may fall inside one
_TABLE_ALPHAS = [
    1.0 / 3.0,
    0.5,
    2.0 / 3.0,
    magic_alpha(1, "hermitian"),
    magic_alpha(2, "hermitian"),
    *np.random.default_rng(38).uniform(0.05, 0.95, 4).tolist(),
]


def test_table_states_are_the_head_of_the_whole_sorted_merge():
    def bits(state):
        return state.beta, state.nu, state.parity, state.coeffs.tobytes()

    for alpha in _TABLE_ALPHAS:
        for formulation in FORMULATIONS:
            for n_max in (8, 24, 48):
                merged = []
                for nu in (0, 1, 2):
                    merged += solve_spectrum(TorusProblem(alpha, nu, formulation, n_max)).entries
                want = sorted(merged, key=listing_key)[:3]
                got = table_states(alpha, formulation, n_max)
                assert list(map(bits, got)) == list(map(bits, want)), (alpha, formulation, n_max)


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


def test_solve_spectrum_projects_by_quadrature_not_the_closed_form(monkeypatch):
    # the eight lowest betas of each problem, solved with overlap_analytic in the projection
    lowest = {
        (0.5, 1, "laplacian"): [
            1.3460838325297191e-17, 0.9767313134744867, 1.1222882712026327, 4.032698970037285,
            4.051723729084683, 9.039171871971167, 9.041067864197625, 16.03937900621826,
        ],
        (0.95, 3, "hermitian"): [
            3.3741571153863434, 6.232503135660846, 9.833885544624954, 14.142047007031895,
            19.13103301090091, 24.781007583471126, 31.07611240814027, 38.003244716796765,
        ],
    }

    def refused(*args):
        raise AssertionError("solve_spectrum called overlap_analytic")

    monkeypatch.setattr(curvedq.torus, "overlap_analytic", refused)
    for (alpha, nu, formulation), want in lowest.items():
        problem = TorusProblem(alpha, nu, formulation)
        result = solve_spectrum(problem)
        betas = [e.beta for e in result.entries[: len(want)]]
        assert all(abs(b - w) <= 1e-12 * max(1.0, w) for b, w in zip(betas, want)), (alpha, betas)
        for parity in PARITIES:
            coeffs = np.array([e.coeffs for e in result.entries if e.parity == parity])
            gram = coeffs @ overlap_analytic(alpha, parity, problem.n_max) @ coeffs.T
            assert np.max(np.abs(gram - np.eye(len(coeffs)))) <= 1e-12, (alpha, parity)


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
    (theta, wq, *even), (_, _, *odd) = (fourier_basis(parity, n_max, n_quad) for parity in PARITIES)
    phi, dphi = (np.vstack(rows) for rows in zip(even, odd))
    h = (dphi * wq) @ dphi.T + (phi * (q(theta) * wq)) @ phi.T
    s = (phi * wq) @ phi.T
    full = np.sort(scipy.linalg.eigh(0.5 * (h + h.T), 0.5 * (s + s.T), eigvals_only=True))
    merged = [e.beta for e in solve_spectrum(TorusProblem(*config)).entries]
    assert np.max(np.abs(np.array(merged) - full)) <= 1e-10 * max(1.0, abs(full[-1]))


# -- the route difference in closed form ---------------------------------------
#
# With unit minor radius, 2 (V_C + V_L) = -1/4 - alpha^2/(4 u^2): the laplacian
# half-density potential is the hermitian one with nu^2 lowered by 1/4, minus 1/4.

_ROUTE_ALPHAS = np.sort(np.random.default_rng(9).uniform(0.05, 0.95, 8)).tolist()


def _block_betas(entries, parity):
    return np.array([e.beta for e in entries if e.parity == parity])


def test_laplacian_spectrum_is_the_hermitian_one_at_nu_squared_less_a_quarter():
    # beta_lap(alpha, nu) = beta_herm(alpha, nu') - 1/4 with nu'^2 = nu^2 - 1/4,
    # the hermitian block assembled by hand at the centrifugal coefficient nu'^2
    for alpha in _ROUTE_ALPHAS:
        for nu in range(4):
            problem = TorusProblem(alpha, nu, "laplacian")
            laplacian = solve_spectrum(problem).entries
            for parity in PARITIES:
                h, s = half_density_weak_form(
                    alpha, nu, "hermitian", parity, problem.n_max, problem.n_quad, c=nu * nu - 0.25
                )
                shifted = solve(h, s)[0] - 0.25
                assert np.max(np.abs(_block_betas(laplacian, parity) - shifted)) <= 1e-10, (alpha, nu, parity)


def test_solve_spectrum_solves_each_parity_block_by_operators_solve(monkeypatch):
    # each block's betas are operators.solve's on assemble's block, byte for byte, and solve_spectrum gets them
    # from one call of it per parity: the torus diagonalizes no block of its own
    calls = []

    def counted(h, s):
        calls.append(None)
        return solve(h, s)

    monkeypatch.setattr(curvedq.torus, "solve", counted)
    for alpha in [0.05, 0.95, *np.random.default_rng(37).uniform(0.05, 0.95, 4)]:
        for nu in range(5):
            for formulation in FORMULATIONS:
                for n_max in (24, 48, 96):
                    problem = TorusProblem(alpha, nu, formulation, n_max)
                    calls.clear()
                    entries = solve_spectrum(problem).entries
                    assert len(calls) == len(PARITIES), (alpha, nu, formulation, n_max)
                    for parity in PARITIES:
                        want = solve(*assemble(problem, parity))[0]
                        got = _block_betas(entries, parity)
                        assert got.tobytes() == want.tobytes(), (alpha, nu, formulation, n_max, parity)


def test_route_difference_lies_between_its_curvature_bounds():
    # Hellmann-Feynman in c = nu'^2: d beta / dc = <alpha^2/u^2>, and u lies in
    # [1 - alpha, 1 + alpha], so each state pair (nu, parity, index) is bounded
    for alpha in _ROUTE_ALPHAS:
        lower = 0.25 + alpha * alpha / (4.0 * (1.0 + alpha) ** 2)
        upper = 0.25 + alpha * alpha / (4.0 * (1.0 - alpha) ** 2)
        for nu in range(4):
            laplacian = solve_spectrum(TorusProblem(alpha, nu, "laplacian")).entries
            hermitian = solve_spectrum(TorusProblem(alpha, nu, "hermitian")).entries
            for parity in PARITIES:
                gap = _block_betas(hermitian, parity) - _block_betas(laplacian, parity)
                assert lower <= gap.min() and gap.max() <= upper, (alpha, nu, parity)


@pytest.mark.parametrize("major_radius", [1.05, 2.0, 3.0, 20.0])
def test_route_difference_of_v0_is_profile_curvature_and_a_quarter_nu(major_radius):
    # in arc length: V_C + V_L = -k1^2/8 - 1/(8 a2^2), pointwise, to rounding
    # of the terms subtracted (the centrifugal term reaches 1800 at R = 1.05)
    patch = torus_metric_patch(major_radius, 1.0)
    theta = np.linspace(0.0, 2.0 * math.pi, 97)
    fr = patch.frame(theta)
    want = -fr.k1 * fr.k1 / 8.0 - 1.0 / (8.0 * fr.a2 * fr.a2)
    for nu in range(4):
        laplacian = surface_operator(patch, "laplacian", nu).v0(theta)
        for ordering in ORDERINGS:
            hermitian = surface_operator(patch, "hermitian", nu, ordering).v0(theta)
            scale = 1.0 + np.abs(hermitian) + np.abs(want)
            assert np.all(np.abs(laplacian - hermitian - want) <= 1e-14 * scale), (nu, ordering)


@pytest.mark.parametrize("alpha, nu", [(1.0 / 3.0, 0), (0.5, 1)])  # 0.5 is nu = 1's Laplacian magic ratio
def test_thin_shell_limit_of_each_3d_operator_is_its_route(alpha, nu):
    # the paper's claim as a limit: in a shell of thickness d, less (pi/d)^2, -Delta tends to
    # the Laplacian route and H_eta to the Hermitian one (no V_C), both as d^2; Richardson in
    # d^2 from d = 0.05 and 0.025 lands within 1e-7, and the other route lies 0.28 or more away
    patch = torus_metric_patch(1.0 / alpha, 1.0)
    surface = {
        route: _block_betas(solve_spectrum(TorusProblem(alpha, nu, route, n_max=48)).entries, "even")[0]
        for route in FORMULATIONS
    }
    for route in FORMULATIONS:
        coarse, fine = (shell_even_betas(patch, nu, route, d)[0] for d in (0.05, 0.025))
        if (route, nu) == ("hermitian", 0):  # u, a constant times the lowest sine, is exact at every d
            assert abs(coarse) <= 1e-9 and abs(fine) <= 1e-9
        limit = (4.0 * fine - coarse) / 3.0
        other = surface["laplacian" if route == "hermitian" else "hermitian"]
        assert abs(limit - surface[route]) <= 1e-7, (route, limit, surface[route])
        assert abs(limit - other) >= 0.28, (route, limit, other)


def test_thin_shell_hermitian_ladder_follows_its_first_order_formula():
    # at nu = 0, H_eta's even states sit at n^2 + 3 n^2 d^2 (1/12 - 1/(2 pi^2)) + O(d^4): 1/(1 + q)^2
    # = 1 - 2q + 3q^2 - ... averaged over the lowest sine in q; Richardson in d^2 from d = 0.1 and
    # 0.05 lands within 1e-5 of it.  The problem never reads a2 there, so alpha leaves it unchanged.
    shells = [
        [shell_even_betas(torus_metric_patch(1.0 / alpha, 1.0), 0, "hermitian", d) for d in (0.1, 0.05)]
        for alpha in (1.0 / 3.0, 0.8)
    ]
    for one_third, wide in zip(*shells):
        assert np.array_equal(one_third, wide)
    coarse, fine = shells[0]
    for n in (1, 2, 3):
        limit = (4.0 * (fine[n] - n * n) / 0.05**2 - (coarse[n] - n * n) / 0.1**2) / 3.0
        want = 3.0 * n * n * (1.0 / 12.0 - 1.0 / (2.0 * math.pi**2))
        assert abs(limit - want) <= 1e-5 * want, (n, limit, want)


def test_nu_whose_centrifugal_term_overflows_is_refused():
    # 2 pi (nu alpha/(1 - alpha))^2 bounds the centrifugal entries of H
    for alpha, nu in ((0.5, 10**154), (0.95, 10**153), (0.5, 10**400), (1e-300, 10**400)):
        with pytest.raises(ValueError, match="^nu is too large"):
            TorusProblem(alpha, nu, "laplacian")
    for alpha in (5e-324, 1e-320):
        with pytest.raises(ValueError, match="^alpha .* finite 1/alpha"):
            TorusProblem(alpha, 0, "hermitian")


def test_largest_accepted_nu_solves_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = solve_spectrum(TorusProblem(0.5, 5 * 10**153, "laplacian"))
    betas = np.array([e.beta for e in result.entries])
    assert np.all(np.isfinite(betas)) and betas[0] > 0.0
    for alpha in (0.5, 0.99):
        assert TorusProblem(alpha, 3, "hermitian").nu == 3
