import dataclasses
import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import curvedq.geometry
from curvedq.geometry import curvature_sample, graph_metric_patch, torus_metric_patch
from curvedq.operators import (
    FORMULATIONS,
    ORDERINGS,
    BoundaryCompatibilityError,
    MomentumOp,
    cancellation_residual,
    dirichlet_basis,
    fourier_basis,
    galerkin,
    hermitian_momenta,
    hermiticity_residual,
    normal_momentum_sq_coeffs,
    rescaling_potential,
    solve,
    surface_operator,
)
from curvedq.cli import selfadjointness_defect
from curvedq.shapes import ShapeDomainError, eval_jet2, eval_jet3, parse_shape

from _helpers import (
    open_surface_betas,
    per_node_hermiticity_residual,
    poly_derivative,
    poly_eval,
    poly_source,
    random_shape_source,
    random_smooth_source,
    shell_open_betas,
    surface_measure,
)


def _fd(fn, w, h=1e-5):
    return (fn(w - 2 * h) - 8 * fn(w - h) + 8 * fn(w + h) - fn(w + 2 * h)) / (12 * h)


@pytest.fixture
def jet3_calls(monkeypatch):
    """The rho of each jet walk that graph frames make, in order: eval_jet3 for a
    float, the array builder _array_jet for a grid."""
    calls = []
    walk, array_walk = curvedq.geometry.eval_jet3, curvedq.geometry._array_jet
    monkeypatch.setattr(curvedq.geometry, "eval_jet3", lambda expr, rho: calls.append(rho) or walk(expr, rho))
    monkeypatch.setattr(
        curvedq.geometry, "_array_jet", lambda expr, rho, count: calls.append(rho) or array_walk(expr, rho, count)
    )
    return calls


def test_one_jet_walk_per_graph_frame(monkeypatch, jet3_calls):
    patch = graph_metric_patch(parse_shape("0.3*rho^3+0.5*sin(rho)"), (0.2, 1.8))

    def walks(fn, w):
        jet3_calls.clear()
        fn(w)
        return len(jet3_calls)

    # each scalar read at a float the patch has not just seen costs one walk
    fresh = iter(np.linspace(0.3, 1.7, 32).tolist())
    assert walks(lambda w: curvature_sample(patch, w), next(fresh)) == 1
    assert walks(hermitian_momenta(patch)[0].drift, next(fresh)) == 1
    for formulation in FORMULATIONS:
        for ordering in ORDERINGS:
            coeffs = surface_operator(patch, formulation, 1, ordering)
            for name in ("c2", "c1", "c0", "v0"):
                assert walks(getattr(coeffs, name), next(fresh)) == 1, (formulation, ordering, name)
    # a grid of rho costs one walk of the array kernel, not one per point
    assert walks(patch.frame, np.linspace(0.2, 1.8, 64)) == 1
    # a curvature table is the float samples stacked: one walk per point, whose frames the patch keeps
    table = np.linspace(0.2, 1.8, 64)
    assert walks(lambda w: curvature_sample(patch, w), table) == 64
    c0 = surface_operator(patch, "laplacian").c0
    assert walks(lambda ws: [(curvature_sample(patch, w), c0(w)) for w in ws.tolist()], table) == 0

    jet2_calls = []
    jet2 = curvedq.operators.eval_jet2
    monkeypatch.setattr(curvedq.operators, "eval_jet2", lambda expr, rho: jet2_calls.append(rho) or jet2(expr, rho))
    f, g = parse_shape("(rho-0.2)*(1.8-rho)"), parse_shape("(rho-0.2)*(1.8-rho)*rho")
    # the measure's frame, which also gives the drift, then each test function at the ends and on the grid
    assert walks(lambda _: hermiticity_residual(hermitian_momenta(patch)[0], patch, f, g), None) == 1
    assert len(jet2_calls) <= 4


def test_one_jet_walk_per_scalar_point(jet3_calls):
    # a pointwise caller reads the curvature, both drifts and every coefficient
    # of three operators at one float w: the patch keeps the frame of every float
    patch = graph_metric_patch(parse_shape("0.3*rho^3+0.5*sin(rho)"), (0.2, 1.8))
    p_w, _, p_q = hermitian_momenta(patch)
    pairs = (("laplacian", "sandwich"), ("hermitian", "left"), ("hermitian", "sandwich"))
    ops = [surface_operator(patch, formulation, 1, ordering) for formulation, ordering in pairs]
    for w in (0.7, 1.3):
        jet3_calls.clear()
        curvature_sample(patch, w)
        p_w.drift(w)
        p_q.drift(w)
        for coeffs in ops:
            for field in dataclasses.fields(coeffs):
                getattr(coeffs, field.name)(w)
        assert jet3_calls == [w]


def test_one_jet_walk_per_float_across_sweeps(jet3_calls):
    # the curvature over a grid of floats, then one sweep per operator reading
    # c2, c1 and c0: every float of the grid still costs one walk
    patch = graph_metric_patch(parse_shape("0.3*rho^3+0.5*sin(rho)"), (0.2, 1.8))
    pairs = (("laplacian", "sandwich"), ("hermitian", "left"), ("hermitian", "sandwich"))
    ops = [surface_operator(patch, formulation, 1, ordering) for formulation, ordering in pairs]
    grid = np.linspace(0.2, 1.8, 50).tolist()
    for w in grid:
        curvature_sample(patch, w)
    for coeffs in ops:
        for w in grid:
            for read in (coeffs.c2, coeffs.c1, coeffs.c0):
                read(w)
    assert jet3_calls == grid


def test_frame_memo_refills_after_its_cap_clears_it(monkeypatch, jet3_calls):
    monkeypatch.setattr(curvedq.geometry, "_FRAME_MEMO_CAP", 4)
    patch = graph_metric_patch(parse_shape("0.3*rho^3+0.5*sin(rho)"), (0.2, 1.8))
    points = [0.3, 0.5, 0.7, 0.9]
    for w in points * 2:
        patch.frame(w)
    assert jet3_calls == points  # four frames fit
    jet3_calls.clear()
    for w in (1.1, 1.1, 0.3, 0.3, 0.5):
        patch.frame(w)
    # 1.1 finds the memo full, and each float that comes back after its frame was dropped costs one walk again
    assert jet3_calls == [1.1, 0.3, 0.5]


def test_frame_memo_drops_the_least_recently_read_frame(monkeypatch, jet3_calls):
    monkeypatch.setattr(curvedq.geometry, "_FRAME_MEMO_CAP", 4)
    patch = graph_metric_patch(parse_shape("0.3*rho^3+0.5*sin(rho)"), (0.2, 1.8))
    for w in (0.3, 0.5, 0.7, 0.9):
        patch.frame(w)
    jet3_calls.clear()
    for w in (0.3, 1.1, 0.3, 0.5):
        patch.frame(w)
    # reading 0.3 again makes 0.5 the least recent, so 1.1 pushes out 0.5 and 0.3 stays
    assert jet3_calls == [1.1, 0.5]


def test_frame_memo_keeps_no_frame_at_either_zero(jet3_calls):
    # the memo is keyed on w alone, where 0.0 == -0.0: a frame at either zero is built on every read
    patch = graph_metric_patch(parse_shape("1-rho^2+rho^3"), (0.0, 0.9))
    weight = functools.partial(surface_measure, patch)
    for _ in range(2):
        for zero in (0.0, -0.0):
            assert repr(patch.frame(zero).a2) == repr(zero) and repr(weight(zero)) == repr(zero)
            assert repr(curvature_sample(patch, zero).w) == repr(zero)
    assert [repr(rho) for rho in jet3_calls] == ["0.0"] * 3 + ["-0.0"] * 3 + ["0.0"] * 3 + ["-0.0"] * 3
    jet3_calls.clear()
    for _ in range(2):
        patch.frame(0.5), weight(0.5), curvature_sample(patch, 0.5)
    assert jet3_calls == [0.5]


def test_torus_poloidal_drift():
    # (1/2) d/dtheta ln(a1 a2) = -alpha sin(theta) / (2 (1 + alpha cos(theta)))
    R, a = 3.0, 1.0
    alpha = a / R
    patch = torus_metric_patch(R, a)
    p_theta, p_phi, p_q = hermitian_momenta(patch)
    for theta in (0.0, 0.7, math.pi / 2, 2.5, 4.0):
        ref = -alpha * math.sin(theta) / (2.0 * (1.0 + alpha * math.cos(theta)))
        assert p_theta.drift(theta) == pytest.approx(ref, abs=1e-15)
    assert p_phi.drift(1.0) == 0.0


def test_azimuthal_drift_is_zeros_of_the_grids_shape():
    # a 2-D array is refused with every other function of w, below
    _, p_phi, _ = hermitian_momenta(torus_metric_patch(3.0, 1.0))
    for grid in ([0.1, 0.5], np.linspace(0.1, 0.8, 7), np.zeros(0)):
        drift = p_phi.drift(grid)
        assert type(drift) is np.ndarray and drift.shape == np.shape(grid) and not drift.any()
    for scalar in (0.5, np.float64(0.5), np.array(0.5), 1):
        assert type(p_phi.drift(scalar)) is float and p_phi.drift(scalar) == 0.0


def test_flat_plane_drift_is_half_over_rho():
    patch = graph_metric_patch(parse_shape("1"), (0.1, 5.0))
    p_rho, _, _ = hermitian_momenta(patch)
    for rho in (0.25, 1.0, 4.0):
        assert p_rho.drift(rho) == pytest.approx(0.5 / rho, rel=1e-15)


def test_normal_momentum_drift_is_mean_curvature():
    patch = torus_metric_patch(3.0, 1.0)
    _, _, p_q = hermitian_momenta(patch)
    for theta in (0.0, 1.0, 3.0):
        s = curvature_sample(patch, theta)
        assert p_q.drift(theta) == pytest.approx(s.h, rel=1e-15)


def test_normal_kinetic_limit_values():
    assert normal_momentum_sq_coeffs(0.5, 0.0, 0.0) == (1.0, 1.0, -0.25)
    assert normal_momentum_sq_coeffs(0.0, 0.0, 0.0) == (1.0, 0.0, 0.0)


def test_cancellation_is_algebraic_identity():
    rng = np.random.default_rng(21)
    for _ in range(300):
        h = float(rng.uniform(-3.0, 3.0))
        k = float(rng.uniform(-3.0, 3.0))
        d2, d1, c0 = normal_momentum_sq_coeffs(h, k, 0.0)
        assert (d2, d1) == (1.0, 2.0 * h)
        assert c0 + (h * h - k) == 0.0
        assert cancellation_residual(h, k) == 0.0


def test_full_q_expansion_cancels_rescaling_term_everywhere():
    rng = np.random.default_rng(33)
    for _ in range(200):
        h = float(rng.uniform(-2.0, 2.0))
        k = float(rng.uniform(-2.0, 2.0))
        qlim = 0.9 / max(abs(h), math.sqrt(abs(k)), 1.0)
        q = float(rng.uniform(-qlim, qlim))
        if 1.0 + 2.0 * q * h + q * q * k <= 0.1:
            continue
        c0 = normal_momentum_sq_coeffs(h, k, q)[2]
        assert abs(rescaling_potential(h, k, q) + c0) <= 1e-12


def test_full_q_expansion_reduces_to_limit():
    h, k = 0.37, -0.81
    assert normal_momentum_sq_coeffs(h, k, 0.0) == (1.0, 2.0 * h, k - h * h)


def test_laplacian_coefficients_match_graph_closed_form():
    # c2 = -1/(2 Z^2), c1 = -(1/(Z^2 rho) - Z_rho/Z^3)/2
    patch = graph_metric_patch(parse_shape("0.4*rho^2+0.1*sin(rho)"), (0.3, 1.8))
    coeffs = surface_operator(patch, "laplacian", nu=0)
    for rho in (0.5, 1.0, 1.6):
        z = patch.frame(rho).a1
        dz = patch.frame(rho).d_a1
        assert coeffs.c2(rho) == pytest.approx(-0.5 / z**2, rel=1e-14)
        assert coeffs.c1(rho) == pytest.approx(-0.5 * (1.0 / (z * z * rho) - dz / z**3), rel=1e-13)
        s = curvature_sample(patch, rho)
        assert coeffs.c0(rho) == pytest.approx(s.vc, rel=1e-13)


def test_routes_share_the_kinetic_term_and_left_adds_the_slope_of_b():
    # Horner oracle on random cubics: b = 1/(1 + S'^2), gamma = (1/2)(Z'/Z + 1/rho)
    rng = np.random.default_rng(55)
    for _ in range(25):
        cubic = list(rng.uniform(-1.0, 1.0, size=4))
        patch = graph_metric_patch(parse_shape(poly_source(cubic)), (0.3, 1.7))
        nu = int(rng.integers(0, 3))
        lap = surface_operator(patch, "laplacian", nu)
        sandwich = surface_operator(patch, "hermitian", nu, "sandwich")
        left = surface_operator(patch, "hermitian", nu, "left")
        d1 = poly_derivative(cubic)
        d2 = poly_derivative(d1)
        for rho in rng.uniform(0.4, 1.6, size=5):
            rho = float(rho)
            s1, s2 = poly_eval(d1, rho), poly_eval(d2, rho)
            zz = 1.0 + s1 * s1
            db = -2.0 * s1 * s2 / (zz * zz)
            gamma = 0.5 * (s1 * s2 / zz + 1.0 / rho)
            for field in ("c2", "c1"):
                a, b = getattr(lap, field)(rho), getattr(sandwich, field)(rho)
                assert abs(a - b) <= 1e-14 * abs(b), field
            scale = max(1.0, abs(sandwich.c1(rho)))
            assert abs(left.c1(rho) - sandwich.c1(rho) - 0.5 * db) <= 1e-14 * scale
            scale = max(1.0, abs(sandwich.c0(rho)))
            assert abs(left.c0(rho) - sandwich.c0(rho) - 0.5 * db * gamma) <= 1e-14 * scale


def test_half_density_term_is_the_liouville_transform_of_c0():
    # W^(1/2) H W^(-1/2) has zero-order term c0 + c2 (gamma^2 - gamma') - c1 gamma,
    # with gamma = W'/(2W) read here from W = a1 a2 and its derivatives
    rng = np.random.default_rng(808)
    patches = []
    for _ in range(8):
        patches.append(graph_metric_patch(parse_shape(poly_source(rng.uniform(-1.0, 1.0, 4))), (0.3, 1.7)))
        patches.append(graph_metric_patch(parse_shape(random_smooth_source(rng)), (0.3, 1.7)))
        patches.append(torus_metric_patch(1.0 / float(rng.uniform(0.05, 0.95)), 1.0))
    for patch in patches:
        points = rng.uniform(0.4, 1.6, 4) if patch.label == "rho" else rng.uniform(0.0, 2.0 * math.pi, 4)
        nu = int(rng.integers(0, 4))
        ops = [surface_operator(patch, "laplacian", nu)]
        ops += [surface_operator(patch, "hermitian", nu, ordering) for ordering in ORDERINGS]
        for w in map(float, points):
            fr = patch.frame(w)
            big_w = fr.a1 * fr.a2
            d_w = fr.d_a1 * fr.a2 + fr.a1 * fr.d_a2
            d2_w = fr.d2_a1 * fr.a2 + 2.0 * fr.d_a1 * fr.d_a2 + fr.a1 * fr.d2_a2
            gamma = 0.5 * d_w / big_w
            d_gamma = 0.5 * (d2_w / big_w - (d_w / big_w) ** 2)
            for op in ops:
                terms = (op.c0(w), op.c2(w) * (gamma * gamma - d_gamma), -op.c1(w) * gamma)
                scale = max(abs(t) for t in terms + (op.v0(w),))
                assert abs(op.v0(w) - sum(terms)) <= 1e-12 * scale, (patch.label, w, nu)
            # the hermitian route keeps only the centrifugal term, in either ordering
            for op in ops[1:]:
                assert op.v0(w) == 0.5 * (nu / fr.a2) ** 2


def test_laplacian_is_sturm_liouville_self_adjoint():
    patch = graph_metric_patch(parse_shape("0.3*rho^3+1.2"), (0.3, 1.8))
    coeffs = surface_operator(patch, "laplacian", nu=2)

    def c2w(w):
        return coeffs.c2(w) * surface_measure(patch, w)

    for rho in np.linspace(0.4, 1.7, 30):
        lhs = _fd(c2w, float(rho))
        rhs = coeffs.c1(float(rho)) * surface_measure(patch, float(rho))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_torus_laplacian_reproduces_reduced_equation():
    # scaled by 2 a^2: -psi'' + (alpha sin/u) psi' + ((nu^2 alpha^2 - 1/4)/u^2) psi
    R, a = 3.0, 1.0
    alpha = a / R
    patch = torus_metric_patch(R, a)
    for nu in (0, 1, 2):
        coeffs = surface_operator(patch, "laplacian", nu=nu)
        for theta in np.linspace(0.0, 2.0 * math.pi, 17):
            u = 1.0 + alpha * math.cos(theta)
            assert 2 * a * a * coeffs.c2(theta) == pytest.approx(-1.0, rel=1e-15)
            assert 2 * a * a * coeffs.c1(theta) == pytest.approx(
                alpha * math.sin(theta) / u, abs=1e-14
            )
            assert 2 * a * a * coeffs.c0(theta) == pytest.approx(
                (nu * nu * alpha * alpha - 0.25) / u**2, abs=1e-13
            )


def test_torus_hermitian_reproduces_reduced_equation():
    # scaled by 2 a^2: potential (nu^2 alpha^2 + (alpha^2-1)/4)/u^2 + 1/4, same drift
    R, a = 3.0, 1.0
    alpha = a / R
    patch = torus_metric_patch(R, a)
    for nu in (0, 1, 2):
        for ordering in ("left", "sandwich"):
            coeffs = surface_operator(patch, "hermitian", nu=nu, ordering=ordering)
            for theta in np.linspace(0.1, 6.1, 13):
                u = 1.0 + alpha * math.cos(theta)
                ref = (nu * nu * alpha * alpha + 0.25 * (alpha * alpha - 1.0)) / u**2 + 0.25
                assert 2 * a * a * coeffs.c0(theta) == pytest.approx(ref, rel=1e-12)
                assert 2 * a * a * coeffs.c1(theta) == pytest.approx(
                    alpha * math.sin(theta) / u, abs=1e-14
                )


def test_surface_operator_rejects_non_integer_nu():
    patch = torus_metric_patch(3.0, 1.0)
    for nu in (1.7, -0.5, float("nan"), "x", True, np.True_, np.False_):
        for formulation in FORMULATIONS:
            with pytest.raises(ValueError, match="nu"):
                surface_operator(patch, formulation, nu)
    assert surface_operator(patch, "laplacian", -2.0).c0(0.7) == surface_operator(patch, "laplacian", 2).c0(0.7)


def test_surface_operator_refuses_an_unknown_ordering():
    with pytest.raises(ValueError, match="ordering must be one of"):
        surface_operator(torus_metric_patch(3.0, 1.0), "hermitian", 0, ordering="middle")


def test_torus_orderings_coincide():
    patch = torus_metric_patch(2.0, 0.9)
    left = surface_operator(patch, "hermitian", nu=1, ordering="left")
    sandwich = surface_operator(patch, "hermitian", nu=1, ordering="sandwich")
    for theta in np.linspace(0.0, 2.0 * math.pi, 23):
        for field in ("c2", "c1", "c0"):
            a = getattr(left, field)(theta)
            b = getattr(sandwich, field)(theta)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


def test_sandwich_is_self_adjoint_on_graphs_left_is_not():
    patch = graph_metric_patch(parse_shape("sqrt(4-rho^2)"), (0.3, 1.7))
    grid = np.linspace(0.4, 1.6, 25)

    def defect(coeffs):
        def c2w(w):
            return coeffs.c2(w) * surface_measure(patch, w)

        return max(abs(_fd(c2w, float(w)) - coeffs.c1(float(w)) * surface_measure(patch, float(w))) for w in grid)

    assert defect(surface_operator(patch, "hermitian", 0, "sandwich")) <= 1e-9
    assert defect(surface_operator(patch, "hermitian", 0, "left")) >= 1e-2


@pytest.mark.parametrize(
    "source, domain",  # k1 runs from 0.09 to 0.20, and from -0.96 to -0.12 (the golden cubic)
    [("1.5+0.2*sin(rho)", (0.5, 1.5)), ("0.1+0.2*rho+-0.3*rho^2+0.4*rho^3", (0.3, 1.7))],
)
def test_thin_shell_limit_on_an_open_graph_patch_is_the_hermitian_route(source, domain):
    # H_eta in a shell of thickness d with Dirichlet ends and walls, less (pi/d)^2, tends to
    # the Hermitian route as d^2: Richardson in d^2 from d = 0.05 and 0.025 lands within 1e-7
    # at the ground state and 3e-6 over the lowest three; the Laplacian route lies 0.25 or more away.
    # Shell and surface expand w in the same 24 Legendre-Dirichlet functions, where the surface
    # betas are converged (test_open_patch_betas_converge_in_shens_basis)
    patch = graph_metric_patch(parse_shape(source), domain)
    for nu in (0, 1):
        coarse, fine = (shell_open_betas(patch, nu, d)[:3] for d in (0.05, 0.025))
        limit = (4.0 * fine - coarse) / 3.0
        hermitian, laplacian = (open_surface_betas(patch, route, nu)[:3] for route in ("hermitian", "laplacian"))
        assert abs(limit[0] - hermitian[0]) <= 1e-7, (nu, limit, hermitian)
        assert np.all(np.abs(limit - hermitian) <= 3e-6), (nu, limit, hermitian)
        assert abs(limit[0] - laplacian[0]) >= 0.25, (nu, limit, laplacian)


def test_dirichlet_basis_is_shens_legendre_basis():
    # Shen's rows L_k - L_(k+2) and their slopes -(2 k + 3) L_(k+1), against numpy.polynomial, orthonormalized on
    # the 512-node rule mapped to the domain: T = (shen * weights) @ phi.T is lower triangular, so row k of phi is a
    # combination of Shen's rows 0..k, and T maps the rows back to Shen's values and slopes
    n, (lo, hi) = 60, (0.3, 1.7)
    w, weights, phi, dphi = dirichlet_basis((lo, hi), n)
    nodes, gw = curvedq.operators._gauss_legendre()
    assert phi.shape == dphi.shape == (n, curvedq.operators.N_NODES)
    assert np.array_equal(w, 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo))
    assert np.array_equal(weights, 0.5 * (hi - lo) * gw)
    shen, d_shen = np.empty_like(phi), np.empty_like(dphi)
    for k in range(n):
        c = np.zeros(k + 3)
        c[k], c[k + 2] = 1.0, -1.0
        slope = np.zeros(k + 2)
        slope[k + 1] = -(2 * k + 3)
        assert np.array_equal(np.polynomial.legendre.legder(c), slope), k
        shen[k] = np.polynomial.legendre.legval(nodes, c)
        d_shen[k] = np.polynomial.legendre.legval(nodes, slope) / (0.5 * (hi - lo))
    t = (shen * weights) @ phi.T
    assert np.abs(np.triu(t, 1)).max() <= 1e-13 * np.abs(t).max()
    t = np.tril(t)  # its rounding above the diagonal would meet the steep slopes of the high rows
    for got, want in ((t @ phi, shen), (t @ dphi, d_shen)):
        assert np.all(np.abs(got - want).max(axis=1) <= 1e-13 * np.abs(want).max(axis=1))
    for size in (2, 24, 48, 60, 400):
        _, weights, rows, _ = dirichlet_basis((lo, hi), size)
        assert np.abs((rows * weights) @ rows.T - np.eye(size)).max() <= 1e-13, size
    # Shen's rows vanish at both ends, exactly: P_j(+-1) = (+-1)^j by the recurrence; phi's rows combine them
    ends = np.array(list(curvedq.operators._legendre(np.array([-1.0, 1.0]), n + 1)))
    assert not (ends[:n] - ends[2:]).any()


def test_solve_refuses_a_basis_not_orthogonal_on_its_rule():
    # Shen's raw rows couple degrees k and k + 2 in S, so diag(S)^(-1/2) does not scale S to I; their span,
    # orthonormalized by dirichlet_basis, gives the betas of the generalized problem in the raw rows
    import scipy.linalg

    patch = graph_metric_patch(parse_shape("1.5+0.2*sin(rho)"), (0.5, 1.5))
    (lo, hi), n = patch.domain, 12
    w, weights, *_ = basis = dirichlet_basis(patch.domain, n)
    legendre = np.array(list(curvedq.operators._legendre(curvedq.operators._gauss_legendre()[0], n + 1)))
    slope = -2.0 / (hi - lo) * (2 * np.arange(n) + 3)
    raw = w, weights, legendre[:n] - legendre[2:], slope[:, None] * legendre[1:-1]
    op = surface_operator(patch, "laplacian", 1)
    h, s = galerkin(op, raw)
    with pytest.raises(ValueError, match="not orthogonal on its rule"):
        solve(h, s)
    betas, x = solve(*galerkin(op, basis))
    want = scipy.linalg.eigh(h, s, eigvals_only=True)
    assert np.all(np.diff(betas) > 0.0)
    assert np.abs(betas - want).max() <= 1e-10 * np.abs(want).max(), (betas, want)
    assert np.abs(x.T @ x - np.eye(n)).max() <= 1e-12


@pytest.mark.parametrize("route", FORMULATIONS)
def test_flat_annulus_betas_are_bessel_roots(route):
    # S = 1.5 on rho in [1, 2] is a flat annulus: beta = k^2 at the roots of the Dirichlet cross
    # product of order mu = nu (laplacian) or sqrt(nu^2 + 1/4) (hermitian, where nu = 0 is (n pi)^2)
    from scipy.optimize import brentq
    from scipy.special import jv, yv

    patch = graph_metric_patch(parse_shape("1.5"), (1.0, 2.0))
    for nu in (0, 1, 2):
        mu = nu if route == "laplacian" else math.sqrt(nu * nu + 0.25)

        def cross(k):
            return jv(mu, k) * yv(mu, 2.0 * k) - jv(mu, 2.0 * k) * yv(mu, k)

        ks = np.linspace(0.5, 12.0, 1151)
        signs = np.sign(cross(ks))
        roots = [brentq(cross, ks[i], ks[i + 1], xtol=1e-15) for i in np.flatnonzero(signs[:-1] != signs[1:])[:3]]
        betas = open_surface_betas(patch, route, nu)[:3]
        assert np.abs(betas - np.square(roots)).max() <= 1e-10, (nu, betas, roots)
        if route == "hermitian" and nu == 0:
            assert np.abs(betas - (math.pi * np.arange(1, 4)) ** 2).max() <= 1e-10, betas


@pytest.mark.parametrize(
    "source, domain", [("1.5+0.2*sin(rho)", (0.5, 1.5)), ("0.1+0.2*rho+-0.3*rho^2+0.4*rho^3", (0.3, 1.7))]
)
def test_open_patch_betas_converge_in_shens_basis(source, domain):
    # the three lowest betas of both routes at 24 Legendre-Dirichlet functions are those at 48
    patch = graph_metric_patch(parse_shape(source), domain)
    for route in FORMULATIONS:
        for nu in (0, 1):
            coarse, fine = (open_surface_betas(patch, route, nu, n)[:3] for n in (24, 48))
            assert np.abs(coarse - fine).max() <= 1e-9, (route, nu, coarse, fine)


def test_galerkin_block_of_an_open_patch_is_symmetric_and_positive():
    patch = graph_metric_patch(parse_shape("1.5+0.2*sin(rho)"), (0.5, 1.5))
    h, s = galerkin(surface_operator(patch, "laplacian", 1), dirichlet_basis(patch.domain, 12))
    assert h.shape == s.shape == (12, 12)
    assert np.array_equal(h, h.T) and np.array_equal(s, s.T)
    assert np.linalg.eigvalsh(s).min() > 0.0
    # dirichlet_basis's rows are orthonormal on their rule
    assert np.abs(s - np.eye(12)).max() <= 1e-13


def test_hermitian_free_ring_limit():
    # alpha -> 0: operator tends to -(1/(2 a^2)) d^2/dtheta^2
    a = 1.0
    patch = torus_metric_patch(1.0e7, a)
    coeffs = surface_operator(patch, "hermitian", nu=0, ordering="left")
    for theta in (0.3, 2.0, 5.0):
        assert coeffs.c2(theta) == -0.5
        assert abs(coeffs.c1(theta)) <= 1e-7
        assert abs(coeffs.c0(theta)) <= 1e-7


def test_hermiticity_residual_trig_polynomials():
    rng = np.random.default_rng(77)
    patch = torus_metric_patch(3.0, 1.0)
    p_theta, p_phi, _ = hermitian_momenta(patch)
    for _ in range(10):
        terms_f = []
        terms_g = []
        for n in range(1, 7):
            af, bf = (float(x) for x in rng.uniform(-1, 1, 2))
            ag, bg = (float(x) for x in rng.uniform(-1, 1, 2))
            terms_f.append(f"{af!r}*cos({n}*rho)+{bf!r}*sin({n}*rho)")
            terms_g.append(f"{ag!r}*cos({n}*rho)+{bg!r}*sin({n}*rho)")
        f = parse_shape("+".join(terms_f) + "+0.5")
        g = parse_shape("+".join(terms_g) + "-0.3")
        assert hermiticity_residual(p_theta, patch, f, g) <= 1e-10
    assert hermiticity_residual(p_phi, patch, parse_shape("sin(rho)"), parse_shape("cos(2*rho)")) <= 1e-12


def test_naive_momentum_fails_hermiticity():
    # drift stripped: residual = |int f g (a1 a2)' dtheta| = pi a^2 for f=1, g=sin
    patch = torus_metric_patch(3.0, 1.0)
    naive = MomentumOp("theta", lambda w: 0.0)
    res = hermiticity_residual(naive, patch, parse_shape("1"), parse_shape("sin(rho)"))
    assert res == pytest.approx(math.pi, rel=1e-10)
    assert res >= 0.1


def test_open_boundary_compatibility():
    patch = graph_metric_patch(parse_shape("0.5*rho^2"), (0.5, 1.5))
    p_rho, _, _ = hermitian_momenta(patch)
    vanishing = parse_shape("(rho-0.5)*(1.5-rho)")
    assert hermiticity_residual(p_rho, patch, vanishing, vanishing) <= 1e-10
    with pytest.raises(BoundaryCompatibilityError):
        hermiticity_residual(p_rho, patch, parse_shape("1"), vanishing)


def _array_patches():
    """(patch, grid) pairs; the sqrt cap's grid starts on the axis rho = 0."""
    return (
        (graph_metric_patch(parse_shape("0.3*rho^3-0.8*rho^2+0.5*rho+1.2"), (0.2, 1.8)), np.linspace(0.2, 1.8, 37)),
        (graph_metric_patch(parse_shape("sqrt(4-rho^2)"), (0.0, 1.9)), np.linspace(0.0, 1.9, 41)),
        (torus_metric_patch(3.0, 1.0), np.linspace(0.0, 2.0 * math.pi, 33)),
        (torus_metric_patch(1.0 / 0.9, 1.0), np.linspace(0.0, 2.0 * math.pi, 33)),
    )


def _assert_stacks(fn, ws, label):
    """fn(ws) equals, bit for bit, the scalar calls fn(w) stacked in order;
    a field that does not depend on w may come back as one float."""
    got = np.ascontiguousarray(np.broadcast_to(np.asarray(fn(ws), dtype=float), ws.shape))
    want = np.array([fn(w) for w in ws.tolist()], dtype=float)
    assert got.tobytes() == want.tobytes(), label


def test_frames_coefficients_and_drifts_accept_arrays_bit_for_bit():
    for patch, grid in _array_patches():
        for field in range(len(patch.frame(grid[0]))):
            _assert_stacks(lambda w: patch.frame(w)[field], grid, (patch.label, field))
        if patch.label == "rho":
            assert all(type(value) is float for value in patch.frame(float(grid[1])))
        inner = grid[grid > 0.0]  # the operators are singular on the axis
        for op in hermitian_momenta(patch):
            _assert_stacks(op.drift, inner, (patch.label, op.label))
        for formulation in FORMULATIONS:
            for ordering in ORDERINGS:
                coeffs = surface_operator(patch, formulation, 2, ordering)
                for field in dataclasses.fields(coeffs):
                    _assert_stacks(getattr(coeffs, field.name), inner, (formulation, ordering, field.name))


def test_array_frame_names_the_first_offending_rho():
    patch = graph_metric_patch(parse_shape("sqrt(4-rho^2)"), (0.0, 1.9))
    with pytest.raises(ShapeDomainError) as info:
        patch.frame(np.array([0.5, 1.9, 2.5, 3.0]))
    assert info.value.rho == 2.5
    assert "sqrt" in str(info.value)


def test_a_grid_through_the_axis_raises_what_the_float_on_the_axis_raises():
    # the operators are singular on the axis: every coefficient and drift that
    # refuses the float 0.0 refuses a grid holding it, with that error and no
    # RuntimeWarning; the rest give the float calls stacked
    patch = graph_metric_patch(parse_shape("sqrt(4-rho^2)"), (0.0, 1.9))
    grid = [0.5, 0.0, 0.7]
    fns = {f"P_{op.label}": op.drift for op in hermitian_momenta(patch)}
    for formulation in FORMULATIONS:
        for ordering in ORDERINGS:
            coeffs = surface_operator(patch, formulation, 1, ordering)
            for field in dataclasses.fields(coeffs):
                fns[f"{formulation}/{ordering}/{field.name}"] = getattr(coeffs, field.name)
    refused = set()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for name, fn in fns.items():
            try:
                want = np.array([fn(w) for w in grid])
            except ZeroDivisionError as exc:
                refused.add(name)
                with pytest.raises(ZeroDivisionError) as info:
                    fn(np.array(grid))
                assert str(info.value) == str(exc), name
            else:
                assert np.asarray(fn(np.array(grid))).tobytes() == want.tobytes(), name
            empty = fn(np.zeros(0))
            assert type(empty) is np.ndarray and empty.shape == (0,), name
    assert refused == {"P_rho"} | {
        f"{formulation}/{ordering}/{field}"
        for formulation in FORMULATIONS
        for ordering in ORDERINGS
        for field in ("c1", "c0", "v0")
    }


def test_hermiticity_residual_matches_the_per_node_sum():
    torus = torus_metric_patch(3.0, 1.0)
    p_theta, p_phi, _ = hermitian_momenta(torus)
    trig_f, trig_g = parse_shape("sin(rho)+0.5*cos(3*rho)+0.5"), parse_shape("cos(2*rho)-0.3*sin(rho)")
    graph = graph_metric_patch(parse_shape("0.3*rho^3-0.8*rho^2+0.5*rho+1.2"), (0.5, 1.5))
    p_rho, _, _ = hermitian_momenta(graph)
    bump_f, bump_g = parse_shape("(rho-0.5)*(1.5-rho)"), parse_shape("(rho-0.5)*(1.5-rho)*exp(rho)")
    cases = (
        (p_theta, torus, trig_f, trig_g),
        (p_phi, torus, trig_f, trig_g),
        (MomentumOp("theta", lambda w: 0.0), torus, parse_shape("1"), parse_shape("sin(rho)")),
        (p_rho, graph, bump_f, bump_g),
        (MomentumOp("rho", lambda w: 0.0), graph, bump_f, bump_g),
    )
    for op, patch, f, g in cases:
        want = per_node_hermiticity_residual(op, patch, f, g)
        assert abs(hermiticity_residual(op, patch, f, g) - want) <= 1e-13, (op.label, patch.label, want)


def test_hermiticity_residual_is_its_integrand_from_stacked_scalar_jets():
    # the integrand hermiticity_residual sums, rebuilt from scalar jets and
    # frames stacked point by point, and summed by the same np.sum
    patch = graph_metric_patch(parse_shape("0.1+0.2*rho+-0.3*rho^2+0.4*rho^3"), (0.2, 1.8))
    p_rho = hermitian_momenta(patch)[0]
    f, g = parse_shape("(rho-0.2)*(1.8-rho)"), parse_shape("(rho-0.2)*(1.8-rho)*sin(rho)")
    nodes, gw = curvedq.operators._gauss_legendre()
    theta = 0.8 * nodes + 1.0
    wq = 0.8 * gw
    frames = [patch.frame(t) for t in theta.tolist()]
    measure = np.array([fr.a1 * fr.a2 for fr in frames])
    drift = np.array([p_rho.drift(t) for t in theta.tolist()])
    fj = [eval_jet2(f, t) for t in theta.tolist()]
    gj = [eval_jet2(g, t) for t in theta.tolist()]
    fv, fs = np.array([j.value for j in fj]), np.array([j.d1 for j in fj])
    gv, gs = np.array([j.value for j in gj]), np.array([j.d1 for j in gj])
    want = abs(np.sum((fv * gs + fs * gv + 2.0 * drift * fv * gv) * measure * wq))
    assert hermiticity_residual(p_rho, patch, f, g) == want


def test_gauss_legendre_rule_is_symmetric_exact_and_converged():
    nodes, weights = curvedq.operators._gauss_legendre()
    assert nodes.shape == weights.shape == (curvedq.operators.N_NODES,)
    assert not (nodes.flags.writeable or weights.flags.writeable)
    assert (np.diff(nodes) > 0).all()
    assert np.array_equal(nodes, -nodes[::-1]) and np.array_equal(weights, weights[::-1])
    oracle_nodes, _ = np.polynomial.legendre.leggauss(512)
    assert (np.abs(nodes - oracle_nodes) <= 4 * np.spacing(np.abs(oracle_nodes))).all()
    assert abs(weights.sum() - 2.0) <= 1e-15
    # exact through degree 2 N - 1: every even monomial below it
    for k in range(512):
        assert abs(np.sum(weights * nodes ** (2 * k)) - 2.0 / (2 * k + 1)) <= 1e-15, k
    p, dp = curvedq.operators._legendre_and_slope(nodes)
    assert (np.abs(p / dp) <= np.spacing(np.abs(nodes))).all()


def test_fourier_basis_is_built_once_and_read_only():
    first = fourier_basis("odd", 5, 28)
    again = fourier_basis("odd", 5, 28)
    assert all(a is b for a, b in zip(first, again))
    w, width, phi, dphi = first
    assert width == 2.0 * math.pi / 28 and phi.shape == dphi.shape == (5, 28)
    for array in (w, phi, dphi):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0


def test_fourier_basis_refuses_an_unknown_parity():
    with pytest.raises(ValueError, match="parity must be 'even' or 'odd', got 'both'"):
        fourier_basis("both", 3, 16)


def test_gauss_legendre_rule_holds_no_dense_matrix():
    # one 512 x 512 float64 array alone is 2 MiB
    tracemalloc.start()
    try:
        curvedq.operators._gauss_legendre.__wrapped__()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 256 * 1024, peak


def test_grid_checks_read_each_field_once_per_grid():
    calls = []

    def counted(patch):
        def grid(w):
            calls.append(np.ndim(w))
            return patch.grid(w)

        return dataclasses.replace(patch, grid=grid)

    torus = counted(torus_metric_patch(3.0, 1.0))
    hermiticity_residual(hermitian_momenta(torus)[0], torus, parse_shape("sin(rho)"), parse_shape("cos(rho)"))
    assert calls == [1]  # the measure, whose frame also gives the drift
    calls.clear()
    graph = counted(graph_metric_patch(parse_shape("sqrt(4-rho^2)"), (0.2, 1.8)))
    selfadjointness_defect(graph, surface_operator(graph, "hermitian", 0), np.linspace(0.3, 1.7, 29))
    assert calls == [1, 1]  # the frame, which gives the slope of c2 a1 a2 and a1 a2, and c1


@pytest.fixture
def dispatches(monkeypatch):
    """The w of each jets.on_grid call, from every module that dispatches."""
    calls = []
    dispatch = curvedq.jets.on_grid
    for module in (curvedq.geometry, curvedq.operators, curvedq.shapes):
        monkeypatch.setattr(module, "on_grid", lambda w, scalar, array: calls.append(w) or dispatch(w, scalar, array))
    return calls


def _counted_shape(src):
    """The shape of src, and a list that gets the rho of each run of its scalar kernel."""
    shape, runs = parse_shape(src), []
    kernel = shape.kernel
    object.__setattr__(shape, "kernel", lambda jet: runs.append(jet[0]) or kernel(jet))
    return shape, runs


def test_a_grid_enters_on_grid_once(dispatches):
    # the entry point dispatches; the array builders beneath it never dispatch again
    patch = graph_metric_patch(parse_shape("sqrt(9-rho^2)"), (0.1, 2.9))
    c0 = surface_operator(patch, "laplacian").c0
    grid = np.linspace(0.5, 2.5, 100)
    for read in (patch.frame, c0):
        dispatches.clear()
        read(grid)
        assert len(dispatches) == 1, read
    # a curvature grid has no array builder: it is its float samples stacked, and never dispatches
    dispatches.clear()
    curvature_sample(patch, grid)
    assert dispatches == []


def test_a_failing_curvature_grid_computes_each_sample_once(monkeypatch):
    # the 81st point of the grid leaves the patch's domain (0.1, 2.9): each of the 80
    # points before it runs the shape kernel once and the float body once, and no replay follows
    shape, runs = _counted_shape("sqrt(9-rho^2)")
    patch = graph_metric_patch(shape, (0.1, 2.9))
    bodies, mean = [], curvedq.geometry.mean_curvature
    monkeypatch.setattr(curvedq.geometry, "mean_curvature", lambda k1, k2: bodies.append(k1) or mean(k1, k2))
    with pytest.raises(ValueError) as error:
        curvature_sample(patch, np.linspace(0.5, 3.5, 100))
    assert type(error.value) is ValueError
    assert str(error.value) == "coordinate 2.9242424242424243 outside patch domain [0.1, 2.9]"
    assert (len(runs), len(bodies)) == (80, 80)


def test_a_failing_grid_replays_the_scalar_path_once():
    # 9 - rho^2 < 0 first at the 84th point: one scalar run for each point up to it
    grid = np.linspace(0.5, 3.5, 100)
    for name in ("c0", "frame"):
        shape, runs = _counted_shape("sqrt(9-rho^2)")
        patch = graph_metric_patch(shape, (0.1, 2.9))
        read = surface_operator(patch, "laplacian").c0 if name == "c0" else patch.frame
        with pytest.raises(ShapeDomainError, match=r"at rho=3\.015151515151515$") as error:
            read(grid)
        assert len(runs) == 84, name
        with pytest.raises(ShapeDomainError) as scalar:
            read(3.015151515151515)
        assert str(error.value) == str(scalar.value)


def test_eval_jet2_takes_a_grid_whose_third_derivative_overflows():
    # exp(100 rho) near 7: S, S' and S'' are finite, S''' overflows, which only eval_jet3 checks
    shape, runs = _counted_shape("exp(100*rho)")
    grid = np.linspace(6.97, 6.99, 5)
    jet = eval_jet2(shape, grid)
    assert runs == []  # no replay
    assert np.isinf(jet.d3).all()
    floats = [eval_jet2(shape, rho) for rho in grid.tolist()]
    for name, column in zip(jet._fields, jet):
        assert column.tolist() == [getattr(f, name) for f in floats], name
    with pytest.raises(ShapeDomainError, match=r"at rho=6\.97$"):
        eval_jet3(shape, grid)


def test_hermiticity_residual_refuses_callable_test_functions():
    patch = torus_metric_patch(3.0, 1.0)
    with pytest.raises(TypeError, match="ShapeExpr"):
        hermiticity_residual(hermitian_momenta(patch)[0], patch, lambda x: x.sin(), parse_shape("1"))


def test_hermiticity_residual_refuses_a_momentum_of_another_patch():
    p_theta = hermitian_momenta(torus_metric_patch(3.0, 1.0))[0]
    graph = graph_metric_patch(parse_shape("rho^2"), (0.2, 1.0))
    bump = parse_shape("(rho-0.2)*(1-rho)")
    with pytest.raises(ValueError, match="momentum coordinate 'theta' does not match patch 'rho'"):
        hermiticity_residual(p_theta, graph, bump, bump)


def _functions_of_w(patch):
    """Every function of w a patch gives: its frame, its curvature sample,
    the drifts of its three momenta, and each operator coefficient."""
    p_w, p_phi, p_q = hermitian_momenta(patch)
    coeffs = surface_operator(patch, "hermitian", 1)
    return (
        [patch.frame, functools.partial(curvature_sample, patch), p_w.drift, p_phi.drift, p_q.drift]
        + [getattr(coeffs, field.name) for field in dataclasses.fields(coeffs)]
    )


def _fields(result):
    """The arrays or floats a function of w returns, as a list."""
    if dataclasses.is_dataclass(result):
        return [getattr(result, field.name) for field in dataclasses.fields(result)]
    return list(result) if isinstance(result, tuple) else [result]


def test_every_function_of_w_refuses_an_array_of_two_dimensions():
    block = np.full((2, 3), 0.5)
    fns = [
        functools.partial(evaluate, parse_shape(source))
        for source in ("rho*rho", "sin(rho)", "rho^2")
        for evaluate in (eval_jet2, eval_jet3)
    ]
    for patch, _ in _array_patches():
        fns += _functions_of_w(patch)
    for fn in fns:
        with pytest.raises(ValueError) as info:
            fn(block)
        assert str(info.value) == "expected a float or a 1-D grid, got an array of shape (2, 3)", fn


def test_a_list_of_floats_is_the_equal_grid_on_every_patch():
    expr = parse_shape("sin(rho)+rho^3")
    cases = [(functools.partial(evaluate, expr), np.linspace(0.1, 2.0, 9)) for evaluate in (eval_jet2, eval_jet3)]
    for patch, grid in _array_patches():
        inner = grid[grid > 0.0]  # the operators are singular on the axis
        cases += [(fn, inner) for fn in _functions_of_w(patch)]
    for fn, ws in cases:
        got, want = _fields(fn(ws.tolist())), _fields(fn(ws))
        assert len(got) == len(want), fn
        for a, b in zip(got, want):
            assert type(a) is type(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes(), fn


def test_cancellation_on_random_graph_shapes():
    rng = np.random.default_rng(101)
    for i in range(100):
        patch = graph_metric_patch(parse_shape(random_shape_source(rng, i)), (0.3, 1.7))
        s = curvature_sample(patch, float(rng.uniform(0.4, 1.6)))
        assert cancellation_residual(s.h, s.k) <= 1e-12


def test_cancellation_residual_adds_the_two_named_terms(monkeypatch):
    h, k, q = 0.7, -0.3, 0.2
    want = abs(rescaling_potential(h, k, q) + normal_momentum_sq_coeffs(h, k, q)[2])
    assert cancellation_residual(h, k, q) == want
    monkeypatch.setattr(curvedq.operators, "rescaling_potential", lambda h, k, q=0.0: 5.0)
    assert cancellation_residual(h, k, q) == abs(5.0 + normal_momentum_sq_coeffs(h, k, q)[2])
    monkeypatch.setattr(curvedq.operators, "normal_momentum_sq_coeffs", lambda h, k, q=0.0: (1.0, 0.0, -2.0))
    assert cancellation_residual(h, k, q) == 3.0


def test_laplacian_c0_reads_curvature_potential(monkeypatch):
    patch = graph_metric_patch(parse_shape("0.3*rho^3+0.5*sin(rho)"), (0.2, 1.8))
    grid = np.array([0.4, 0.9, 1.5])
    c0 = surface_operator(patch, "laplacian", 1).c0
    centrifugal = [0.5 * (1.0 / w) ** 2 for w in grid.tolist()]
    monkeypatch.setattr(curvedq.operators, "curvature_potential", lambda k1, k2: 0.0 * k1 + 10.0)
    assert [c0(w) for w in grid.tolist()] == [r + 10.0 for r in centrifugal]
    assert c0(grid).tolist() == [r + 10.0 for r in centrifugal]


def test_c1_and_the_surface_drift_read_one_gamma(monkeypatch):
    patch = graph_metric_patch(parse_shape("0.3*rho^3+0.5*sin(rho)"), (0.2, 1.8))
    grid = np.array([0.4, 0.9, 1.5])
    monkeypatch.setattr(curvedq.operators, "_gamma", lambda fr: 0.0 * fr.a1 + 3.0)
    p_w = hermitian_momenta(patch)[0]
    assert p_w.drift(0.9) == 3.0 and p_w.drift(grid).tolist() == [3.0] * 3
    c1 = surface_operator(patch, "hermitian", 0, "left").c1
    for w in grid.tolist():
        a1 = patch.frame(w).a1
        assert c1(w) == -0.5 * (2.0 * (1.0 / (a1 * a1)) * 3.0)  # the left ordering drops b'
    assert c1(grid).tolist() == [c1(w) for w in grid.tolist()]
