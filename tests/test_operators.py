import math

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
    hermitian_momenta,
    hermiticity_residual,
    normal_momentum_sq_coeffs,
    rescaling_potential,
    surface_operator,
)
from curvedq.shapes import parse_shape

from _helpers import poly_derivative, poly_eval, poly_source, random_shape_source


def _fd(fn, w, h=1e-5):
    return (fn(w - 2 * h) - 8 * fn(w - h) + 8 * fn(w + h) - fn(w + 2 * h)) / (12 * h)


def test_one_jet_walk_per_graph_frame(monkeypatch):
    calls = []
    walk = curvedq.geometry.eval_jet3

    def counted(expr, rho):
        calls.append(rho)
        return walk(expr, rho)

    monkeypatch.setattr(curvedq.geometry, "eval_jet3", counted)
    patch = graph_metric_patch(parse_shape("0.3*rho^3+0.5*sin(rho)"), (0.2, 1.8))

    def walks(fn, w):
        calls.clear()
        fn(w)
        return len(calls)

    assert walks(lambda w: curvature_sample(patch, w), 0.7) == 1
    assert walks(hermitian_momenta(patch)[0].drift, 0.7) == 1
    for formulation in FORMULATIONS:
        for ordering in ORDERINGS:
            coeffs = surface_operator(patch, formulation, 1, ordering)
            for name in ("c2", "c1", "c0", "weight"):
                assert walks(getattr(coeffs, name), 0.7) == 1, (formulation, ordering, name)


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


def test_laplacian_is_sturm_liouville_self_adjoint():
    patch = graph_metric_patch(parse_shape("0.3*rho^3+1.2"), (0.3, 1.8))
    coeffs = surface_operator(patch, "laplacian", nu=2)

    def c2w(w):
        return coeffs.c2(w) * coeffs.weight(w)

    for rho in np.linspace(0.4, 1.7, 30):
        lhs = _fd(c2w, float(rho))
        rhs = coeffs.c1(float(rho)) * coeffs.weight(float(rho))
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
    for nu in (1.7, -0.5, float("nan"), "x", True):
        for formulation in FORMULATIONS:
            with pytest.raises(ValueError, match="nu"):
                surface_operator(patch, formulation, nu)
    assert surface_operator(patch, "laplacian", -2.0).c0(0.7) == surface_operator(patch, "laplacian", 2).c0(0.7)


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
            return coeffs.c2(w) * coeffs.weight(w)

        return max(abs(_fd(c2w, float(w)) - coeffs.c1(float(w)) * coeffs.weight(float(w))) for w in grid)

    assert defect(surface_operator(patch, "hermitian", 0, "sandwich")) <= 1e-9
    assert defect(surface_operator(patch, "hermitian", 0, "left")) >= 1e-2


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


def test_jet_callable_test_functions():
    patch = torus_metric_patch(3.0, 1.0)
    p_theta, _, _ = hermitian_momenta(patch)
    f = lambda x: (x * 2.0).sin() + 1.0
    g = lambda x: x.cos()
    assert hermiticity_residual(p_theta, patch, f, g) <= 1e-10


def test_cancellation_on_random_graph_shapes():
    rng = np.random.default_rng(101)
    for i in range(100):
        patch = graph_metric_patch(parse_shape(random_shape_source(rng, i)), (0.3, 1.7))
        s = curvature_sample(patch, float(rng.uniform(0.4, 1.6)))
        assert cancellation_residual(s.h, s.k) <= 1e-12
