import dataclasses
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import curvedq.geometry
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
from curvedq.operators import FORMULATIONS, ORDERINGS, hermitian_momenta, surface_operator
from curvedq.shapes import ShapeDomainError, parse_shape


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


def test_graph_patch_refuses_non_finite_domain():
    shape = parse_shape("rho^2")
    for bad in (math.inf, -math.inf, math.nan):
        for domain in ((0.2, bad), (bad, 1.8)):
            with pytest.raises(ValueError, match="rho domain must be finite") as info:
                graph_metric_patch(shape, domain)
            assert str(info.value).endswith(f"({domain[0]}, {domain[1]})")


def test_graph_patch_refuses_empty_and_negative_domains():
    shape = parse_shape("rho^2")
    with pytest.raises(ValueError, match="empty rho domain"):
        graph_metric_patch(shape, (1.0, 1.0))
    with pytest.raises(ValueError, match="must be non-negative"):
        graph_metric_patch(shape, (-1.0, 1.0))


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


def test_curvature_sample_refuses_non_finite_w_and_q():
    torus = torus_metric_patch(3.0, 1.0)
    graph = graph_metric_patch(parse_shape("sqrt(4-rho^2)"), (0.0, 1.9))
    for patch in (torus, graph):
        for bad in (math.nan, math.inf, -math.inf):
            for w, q in ((bad, 0.0), (0.5, bad)):
                with pytest.raises(ValueError) as info:
                    curvature_sample(patch, w, q)
                assert type(info.value) is ValueError, (patch.label, w, q)
                assert str(info.value) == f"curvature sample needs a finite w and q, got w={w}, q={q}"
                grid = [0.3, w, 0.7]
                with pytest.raises(ValueError) as info:
                    curvature_sample(patch, np.array(grid), q)
                assert (type(info.value), str(info.value)) == _first_error(patch, grid, q), (patch.label, w, q)


# -- the graph patch's memo of the frames of its float reads ------------------------

# flat caps on [0, 0.9]; sqrt(1-rho^2) also leaves its domain past rho = 1
_FLAT_CAPS = ("1-rho^2", "sqrt(1-rho^2)")
_MEMO_POINTS = st.one_of(
    st.sampled_from((0.0, -0.0, 0.45, 0.9, 1.5, np.float64(0.0), np.float64(-0.0), np.float64(0.45))),
    st.floats(0.0, 0.9),
)


def _scalar_reads(patch):
    """Every scalar read a pointwise caller makes of a patch, by name."""
    p_w, _, p_q = hermitian_momenta(patch)
    reads = {
        "frame": patch.frame,
        "sample": lambda w: curvature_sample(patch, w),
        "drift_w": p_w.drift,
        "drift_q": p_q.drift,
    }
    for formulation in FORMULATIONS:
        for ordering in ORDERINGS:
            coeffs = surface_operator(patch, formulation, 2, ordering)
            for field in dataclasses.fields(coeffs):
                reads[f"{formulation}/{ordering}/{field.name}"] = getattr(coeffs, field.name)
    return reads


# the default cap, and caps small enough that a few reads fill the memo and clear it
_MEMO_CAPS = (curvedq.geometry._FRAME_MEMO_CAP, 1, 2, 4)
_READ_NAMES = sorted(_scalar_reads(graph_metric_patch(parse_shape("1-rho^2"), (0.0, 0.9))))


def _outcome(read, w):
    """The value's type, repr and field types, or the error's type and message."""
    try:
        value = read(w)
    except (ArithmeticError, ValueError, RuntimeWarning) as exc:
        return type(exc), str(exc)
    if dataclasses.is_dataclass(value):
        parts = dataclasses.astuple(value)
    else:
        parts = value if isinstance(value, tuple) else (value,)
    return type(value), repr(value), [type(x) for x in parts]


@settings(max_examples=200, deadline=None)
@given(
    source=st.sampled_from(_FLAT_CAPS),
    visits=st.lists(st.tuples(_MEMO_POINTS, st.lists(st.sampled_from(_READ_NAMES), min_size=1, max_size=5)), max_size=8),
    cap=st.sampled_from(_MEMO_CAPS),
)
# seven floats fill a memo of 4 and clear it; the later rounds revisit each one after a clear
@example(source="1-rho^2", visits=[(w, _READ_NAMES) for w in [0.0, -0.0, 0.1, 0.45, 0.8, 0.9, 1.5] * 3], cap=4)
def test_graph_frame_memo_gives_a_fresh_patchs_results(source, visits, cap):
    shape = parse_shape(source)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(curvedq.geometry, "_FRAME_MEMO_CAP", cap)
        shared = _scalar_reads(graph_metric_patch(shape, (0.0, 0.9)))
        for w, names in visits:
            for name in names:
                fresh = _scalar_reads(graph_metric_patch(shape, (0.0, 0.9)))
                assert _outcome(shared[name], w) == _outcome(fresh[name], w), (name, w)


def test_graph_frame_memo_keeps_signed_zeros_input_types_and_errors():
    patch = graph_metric_patch(parse_shape("1-rho^2"), (0.0, 0.9))
    weight = surface_operator(patch, "laplacian").weight
    c0 = surface_operator(patch, "hermitian", 1).c0
    assert repr(patch.frame(0.0).a2) == "0.0" and repr(patch.frame(-0.0).a2) == "-0.0"
    assert repr(weight(0.0)) == "0.0" and repr(weight(-0.0)) == "-0.0"
    c0(0.5)  # the patch now keeps the frame of the float 0.5
    assert type(patch.frame(np.float64(0.5)).a2) is np.float64
    assert type(c0(np.float64(0.5))) is np.float64 and c0(np.float64(0.5)) == c0(0.5)
    for _ in range(2):
        with pytest.raises(ValueError, match="outside patch domain"):
            curvature_sample(patch, 1.5)
    assert curvature_sample(patch, 0.5) == curvature_sample(graph_metric_patch(parse_shape("1-rho^2"), (0.0, 0.9)), 0.5)

    cap = graph_metric_patch(parse_shape("sqrt(1-rho^2)"), (0.0, 0.9))
    want = repr(graph_metric_patch(parse_shape("sqrt(1-rho^2)"), (0.0, 0.9)).frame(0.5))
    assert repr(cap.frame(0.5)) == want
    for _ in range(2):  # a frame that raises is never kept
        with pytest.raises(ShapeDomainError):
            cap.frame(1.5)
    assert repr(cap.frame(0.5)) == want


def test_graph_frame_memo_under_threads(monkeypatch):
    shape = parse_shape("0.3*rho^3+0.5*sin(rho)")
    points = np.linspace(0.2, 1.8, 17).tolist()
    want = {w: repr(graph_metric_patch(shape, (0.2, 1.8)).frame(w)) for w in points}
    # at a cap of 4 the 17 points keep the memo filling and clearing, so clears race with reads
    for cap in (curvedq.geometry._FRAME_MEMO_CAP, 4):
        monkeypatch.setattr(curvedq.geometry, "_FRAME_MEMO_CAP", cap)
        patch = graph_metric_patch(shape, (0.2, 1.8))
        wrong = []

        def reader(step):
            for i in range(400):
                w = points[(i * step) % len(points)]
                for _ in range(2):
                    if repr(patch.frame(w)) != want[w]:
                        wrong.append(w)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader, args=(step,)) for step in (1, 3, 5, 7)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads), cap
        assert wrong == [], cap
