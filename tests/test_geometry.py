import dataclasses
import math

import numpy as np
import pytest

from curvedq.geometry import (
    AxisSingularityError,
    CurvatureSample,
    FocalSurfaceError,
    curvature_sample,
    gaussian_curvature,
    graph_metric_patch,
    mean_curvature,
    rescaling_factor,
    torus_metric_patch,
)
from curvedq.shapes import parse_shape


def test_plane_has_no_curvature():
    patch = graph_metric_patch(parse_shape("3"), (0.5, 2.0))
    for rho in (0.6, 1.0, 1.9):
        s = curvature_sample(patch, rho)
        assert s.k1 == 0.0 and s.k2 == 0.0 and s.vc == 0.0
        assert s.z == 1.0


def test_hemisphere_is_umbilic():
    # closed-form sphere of radius 2: both principal curvatures 1/2
    patch = graph_metric_patch(parse_shape("sqrt(4-rho^2)"), (0.0, 1.99))
    s = curvature_sample(patch, 1.0)
    assert s.k1 == pytest.approx(0.5, rel=1e-13)
    assert s.k2 == pytest.approx(0.5, rel=1e-13)
    for rho in np.linspace(0.0, 1.99, 120):
        assert abs(curvature_sample(patch, float(rho)).vc) <= 1e-12


def test_cone_curvatures():
    # S = c*rho: k1 = 0, k2 = -c/(rho*sqrt(1+c^2)) by hand differentiation
    c = 0.75
    patch = graph_metric_patch(parse_shape(f"{c}*rho"), (0.1, 3.0))
    for rho in (0.2, 1.0, 2.5):
        s = curvature_sample(patch, rho)
        assert s.k1 == pytest.approx(0.0, abs=1e-15)
        assert s.k2 == pytest.approx(-c / (rho * math.sqrt(1 + c * c)), rel=1e-13)


def test_axis_limit_with_flat_cap():
    # S = 2 - rho^2/2: S_rho(0) = 0, S_rhorho(0) = -1, so k1 = k2 = 1 on the axis
    patch = graph_metric_patch(parse_shape("2-rho^2/2"), (0.0, 1.0))
    s = curvature_sample(patch, 0.0)
    assert s.k1 == pytest.approx(1.0, rel=1e-14)
    assert s.k2 == pytest.approx(1.0, rel=1e-14)
    assert s.vc == 0.0


def test_axis_singularity_rejected():
    with pytest.raises(AxisSingularityError):
        graph_metric_patch(parse_shape("0.75*rho"), (0.0, 1.0))


def test_torus_patch_values():
    patch = torus_metric_patch(3.0, 1.0)
    assert patch.boundary == "periodic"
    assert patch.frame(0.3).k1 == 1.0
    assert patch.frame(0.0).k2 == pytest.approx(0.25, rel=1e-15)
    assert patch.frame(math.pi / 2).k2 == pytest.approx(0.0, abs=1e-16)
    assert patch.frame(math.pi).k2 == pytest.approx(-0.5, rel=1e-15)
    s = curvature_sample(patch, math.pi / 2)
    assert s.k == pytest.approx(0.0, abs=1e-16)


def test_torus_rejects_self_intersection():
    with pytest.raises(ValueError):
        torus_metric_patch(1.0, 1.0)
    with pytest.raises(ValueError):
        torus_metric_patch(1.0, 2.0)


def test_torus_curvature_sample_outer_equator():
    patch = torus_metric_patch(3.0, 1.0)
    s = curvature_sample(patch, 0.0)
    assert s.h == pytest.approx(5.0 / 8.0, rel=1e-15)
    assert s.k == pytest.approx(0.25, rel=1e-15)
    assert s.vc == pytest.approx(-9.0 / 128.0, rel=1e-14)
    assert s.f == 1.0  # q = 0


def test_focal_surface_guard():
    patch = torus_metric_patch(3.0, 1.0)
    with pytest.raises(FocalSurfaceError):
        curvature_sample(patch, 0.0, q=-1.0)  # 1 + q*k1 = 0 at the tube radius
    s = curvature_sample(patch, 0.0, q=0.5)
    assert s.f == pytest.approx(rescaling_factor(s.h, s.k, 0.5), rel=1e-15)


def test_outer_torus_half_matches_graph_route():
    # graph of the upper outer quarter: S(rho) = sqrt(a^2 - (rho-R)^2)
    R, a = 3.0, 1.0
    torus = torus_metric_patch(R, a)
    graph = graph_metric_patch(parse_shape(f"sqrt({a * a} - (rho-{R})^2)"), (R + 0.05, R + a - 0.05))
    for theta in np.linspace(0.08, math.pi / 2 - 0.08, 25):
        rho = R + a * math.cos(theta)
        got = sorted([graph.frame(rho).k1, graph.frame(rho).k2])
        ref = sorted([float(torus.frame(theta).k1), float(torus.frame(theta).k2)])
        assert got[0] == pytest.approx(ref[0], abs=1e-10)
        assert got[1] == pytest.approx(ref[1], abs=1e-10)


def test_torus_vc_closed_form():
    # vc * 8 a^2 (1+alpha cos)^2 = -1 for every theta
    for R, a in ((3.0, 1.0), (2.0, 1.2), (10.0, 1.0)):
        patch = torus_metric_patch(R, a)
        alpha = a / R
        for theta in np.linspace(0.0, 2.0 * math.pi, 37):
            s = curvature_sample(patch, float(theta))
            assert s.vc * 8.0 * a * a * (1.0 + alpha * math.cos(theta)) ** 2 == pytest.approx(
                -1.0, abs=1e-12
            )


def test_rescaling_factor_identity():
    rng = np.random.default_rng(5)
    patch = torus_metric_patch(2.5, 1.0)
    for _ in range(100):
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        k1v, k2v = float(patch.frame(theta).k1), float(patch.frame(theta).k2)
        qmax = 0.9 / max(abs(k1v), abs(k2v), 1e-9)
        q = float(rng.uniform(-0.5, 0.5)) * min(qmax, 2.0)
        f_hk = rescaling_factor(mean_curvature(k1v, k2v), gaussian_curvature(k1v, k2v), q)
        assert abs(f_hk - (1.0 + q * k1v) * (1.0 + q * k2v)) <= 1e-14 * max(1.0, abs(f_hk))


def test_vc_never_positive_random_shapes():
    rng = np.random.default_rng(9)
    for _ in range(60):
        a0, a1, a2, a3 = (float(c) for c in rng.uniform(-1.0, 1.0, size=4))
        src = f"{a0!r}+{a1!r}*rho+{a2!r}*rho^2+{a3!r}*rho^3"
        patch = graph_metric_patch(parse_shape(src), (0.3, 1.7))
        s = curvature_sample(patch, float(rng.uniform(0.4, 1.6)))
        assert s.vc <= 0.0
        assert s.h == pytest.approx(0.5 * (s.k1 + s.k2), rel=1e-15, abs=1e-15)
        assert s.k == pytest.approx(s.k1 * s.k2, rel=1e-15, abs=1e-15)


def test_graph_a1_derivatives_match_finite_differences():
    patch = graph_metric_patch(parse_shape("0.3*rho^3+0.5*sin(rho)"), (0.2, 1.8))
    h = 1e-5
    for rho in (0.5, 1.0, 1.5):
        fd1 = (patch.frame(rho + h).a1 - patch.frame(rho - h).a1) / (2 * h)
        fd2 = (patch.frame(rho + h).d_a1 - patch.frame(rho - h).d_a1) / (2 * h)
        assert patch.frame(rho).d_a1 == pytest.approx(fd1, rel=1e-8)
        assert patch.frame(rho).d2_a1 == pytest.approx(fd2, rel=1e-8)


def test_torus_derivative_fields():
    patch = torus_metric_patch(3.0, 1.0)
    h = 1e-6
    for theta in (0.4, 2.0, 4.4):
        fd = (patch.frame(theta + h).a2 - patch.frame(theta - h).a2) / (2 * h)
        assert patch.frame(theta).d_a2 == pytest.approx(fd, rel=1e-8)


def test_open_domain_bounds_checked():
    patch = graph_metric_patch(parse_shape("rho^2"), (0.5, 1.5))
    with pytest.raises(ValueError):
        curvature_sample(patch, 2.0)


def test_curvature_sample_over_an_array_is_the_scalar_samples_stacked():
    cases = (
        (graph_metric_patch(parse_shape("sqrt(4-rho^2)"), (0.0, 1.9)), np.linspace(0.0, 1.9, 41), 0.3),
        (graph_metric_patch(parse_shape("0.3*rho^3-0.8*rho^2+0.5*rho+1.2"), (0.2, 1.8)), np.linspace(0.2, 1.8, 37), 0.0),
        (torus_metric_patch(3.0, 1.0), np.linspace(0.0, 2.0 * math.pi, 33, endpoint=False), -0.4),
    )
    for patch, grid, q in cases:
        table = curvature_sample(patch, grid, q)
        samples = [curvature_sample(patch, w, q) for w in grid.tolist()]
        for field in dataclasses.fields(CurvatureSample):
            want = np.array([getattr(s, field.name) for s in samples])
            assert getattr(table, field.name).tobytes() == want.tobytes(), (patch.label, field.name)


def _first_error(patch, grid, q):
    for w in grid:
        try:
            curvature_sample(patch, w, q)
        except ValueError as exc:
            return type(exc), str(exc)
    raise AssertionError("no point fails")


def test_curvature_sample_over_an_array_raises_the_first_failing_points_error():
    # sqrt(1.5 - rho^2) leaves its domain past rho = 1.2247, inside the patch
    patch = graph_metric_patch(parse_shape("sqrt(1.5-rho^2)+rho^3"), (0.1, 1.4))
    cases = (
        ([0.5, 1.45, 1.3], 0.0),  # outside the patch first, then the shape's domain
        ([0.5, 1.3, 1.45], 0.0),  # the shape's domain first
        ([0.2, 1.0, 1.3], 1.5),  # a focal point first, then the shape's domain
    )
    for grid, q in cases:
        kind, message = _first_error(patch, grid, q)
        with pytest.raises(kind) as info:
            curvature_sample(patch, np.array(grid), q)
        assert type(info.value) is kind and str(info.value) == message, (grid, q)
    assert _first_error(patch, [0.2, 1.0, 1.3], 1.5)[0] is FocalSurfaceError
    torus = torus_metric_patch(3.0, 1.0)
    grid = np.linspace(0.0, 2.0 * math.pi, 20, endpoint=False)
    with pytest.raises(FocalSurfaceError) as info:
        curvature_sample(torus, grid, 2.0)
    assert str(info.value) == _first_error(torus, grid.tolist(), 2.0)[1]
