"""Near-surface metric patches and curvature data for surfaces of revolution.

At normal offset q from an axially symmetric surface, the squared line
element factorizes as

    a1(w)^2 (1 + q k1)^2 dw^2 + a2(w)^2 (1 + q k2)^2 dphi^2 + dq^2,

with k1, k2 the principal curvatures read off the shell factors.  For a
graph-of-revolution surface z = S(rho) (w = rho):

    a1 = Z = sqrt(1 + S_rho^2),   a2 = rho,
    k1 = -S_rhorho / Z^3,         k2 = -S_rho / (rho Z),

and for a torus of major radius R and minor radius a (w = theta):

    a1 = a, k1 = 1/a,   a2 = R + a cos(theta), k2 = cos(theta)/(R + a cos(theta)).

The mean and Gaussian curvatures are h = (k1 + k2)/2 and k = k1 k2.  The
volume density near the surface is a1 a2 F with F = 1 + 2 q h + q^2 k, and
squeezing a particle onto the surface through the Laplacian route leaves
the attractive curvature potential

    V_C = -(h^2 - k)/2 = -((k1 - k2)/2)^2 / 2        (hbar = m = 1),

which vanishes exactly at umbilic points (k1 = k2).  These sign
conventions follow the shell factors above; V_C is insensitive to the
overall orientation since only (k1 - k2)^2 enters.
"""

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .jets import as_grid, each_pow
from .shapes import ShapeDomainError, eval_jet2, eval_jet3


# Frames a graph patch keeps, set by memory: about 350 B each, so 5.7 MB per patch.
_FRAME_MEMO_CAP = 2**14


class AxisSingularityError(ValueError):
    """The domain touches rho = 0 but the shape has a slope there."""


class FocalSurfaceError(ValueError):
    """Normal offset q reached a focal point: a shell factor 1 + q*k_i <= 0."""


class Frame(NamedTuple):
    """Metric data of a patch at one coordinate w.

    Shell factors a1, a2, principal curvatures k1, k2, and the first and
    second derivatives of the shell factors (the operator coefficients need
    them).  Every patch frame also accepts a 1-D grid of w (jets.as_grid);
    fields that do not depend on w may then stay plain floats, which
    broadcast.
    """

    a1: float
    a2: float
    k1: float
    k2: float
    d_a1: float
    d_a2: float
    d2_a1: float
    d2_a2: float


@dataclass(frozen=True)
class MetricPatch:
    """One-coordinate family of metric data for an axially symmetric surface.

    `frame(w)` is a pure function of the coordinate w returning the Frame
    there; a caller that needs several fields at w reads them all from one
    frame.  w is a float or a 1-D grid, lists included, and anything else
    is refused, by the one rule of jets.as_grid.  A grid gives each field as
    its scalar calls stacked, bit for bit, so every function of w built
    from frames takes grids too and refuses what the frame refuses.

    A graph patch keeps the frame of every float w it reads (with -0.0
    apart from 0.0), up to a fixed number of frames; when full, the memo is
    cleared before the next one goes in.  A curvature sample, the momentum
    drifts and every operator coefficient read at one float, in any order
    and in separate sweeps, thus run the shape kernel once.  The frame is
    the one a fresh patch returns, a frame that raises is not kept, and
    arrays and numpy scalars are never memoised.  The memo is a dict whose
    get, set and clear are each atomic, so threads sharing a patch are
    safe; a race can only cost a recompute.
    """

    label: str                      # "rho" for graphs, "theta" for the torus
    domain: tuple
    boundary: str                   # "periodic" | "open"
    frame: Callable


@dataclass(frozen=True)
class CurvatureSample:
    """Pointwise curvature data; z is a1(w) (the slope factor Z for graphs)."""

    w: float
    z: float
    k1: float
    k2: float
    h: float
    k: float
    vc: float
    f: float


def mean_curvature(k1, k2):
    return 0.5 * (k1 + k2)


def gaussian_curvature(k1, k2):
    return k1 * k2


def curvature_potential(k1, k2):
    """V_C = -(h^2 - k)/2, computed as -((k1-k2)/2)^2/2 so it is exactly
    non-positive and exactly zero at umbilic points."""
    d = 0.5 * (k1 - k2)
    return -0.5 * d * d


def rescaling_factor(h, k, q):
    """Volume rescaling F = 1 + 2 q h + q^2 k between shell and surface measures."""
    return 1.0 + 2.0 * q * h + q * q * k


def _slope_fields(s1, s2, s3, sqrt, pw):
    """Z, Z_rho, Z_rhorho and k1 = -S_rhorho/Z^3 of a graph from S's derivatives,
    floats with math.sqrt and pow or arrays with their element-by-element forms."""
    z = sqrt(1.0 + s1 * s1)
    z3 = pw(z, 3)
    d2z = (s2 * s2 + s1 * s3) / z - pw(s1 * s2, 2) / z3
    return z, s1 * s2 / z, d2z, -s2 / z3


def _graph_frame(shape, rho):
    """Frame of the graph z = S(rho) at rho, from one third-order jet of S.

    A 1-D grid of rho reads one array jet and gives the scalar frames
    stacked, bit for bit.  Where that fails, the points go one at a time, so
    the error is the one the first bad rho raises alone.
    """
    if type(rho) is not float:
        grid = as_grid(rho)
        if grid is not None:
            return _graph_frames(shape, grid)
    _, s1, s2, s3 = eval_jet3(shape, rho)
    z, dz, d2z, k1 = _slope_fields(s1, s2, s3, math.sqrt, pow)
    if rho == 0.0:
        # axis limit with S_rho(0) = 0: S_rho/rho -> S_rhorho(0)
        k2 = -s2 / z
    else:
        k2 = -s1 / (rho * z)
    return Frame(z, rho, k1, k2, dz, 1.0, d2z, 0.0)


def _graph_frames(shape, rho):
    try:
        _, s1, s2, s3 = eval_jet3(shape, rho)
        with np.errstate(all="ignore"):
            # numpy's sqrt is correctly rounded like math.sqrt; its pow is not like libm's
            z, dz, d2z, k1 = _slope_fields(s1, s2, s3, np.sqrt, each_pow)
            k2 = np.where(rho == 0.0, -s2 / z, -s1 / (rho * z))
    except (ShapeDomainError, OverflowError):
        for r in rho.tolist():
            _graph_frame(shape, r)
        raise
    return Frame(z, rho, k1, k2, dz, 1.0, d2z, 0.0)


def graph_metric_patch(shape, domain):
    """Metric patch for the surface z = S(rho) over a rho interval.

    The domain may touch rho = 0 only if S_rho(0) = 0 (smooth cap); there
    k2 is evaluated by its limit -S_rhorho(0)/Z(0) rather than by an
    epsilon offset.  Raises AxisSingularityError otherwise.
    """
    lo, hi = float(domain[0]), float(domain[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"rho domain must be finite, got ({lo}, {hi})")
    if not lo < hi:
        raise ValueError("empty rho domain")
    if lo < 0.0:
        raise ValueError("rho domain must be non-negative")
    if lo == 0.0 and eval_jet2(shape, 0.0).d1 != 0.0:
        raise AxisSingularityError(
            "rho = 0 lies in the domain but S_rho(0) != 0; the surface has a conical point"
        )
    memo = {}  # (w, sign of w) -> Frame of every float w read, cleared when full

    def frame(w):
        if type(w) is not float:
            return _graph_frame(shape, w)
        key = (w, math.copysign(1.0, w))
        fr = memo.get(key)
        if fr is None:
            fr = _graph_frame(shape, w)
            if len(memo) >= _FRAME_MEMO_CAP:
                memo.clear()
            memo[key] = fr
        return fr

    return MetricPatch("rho", (lo, hi), "open", frame)


def torus_metric_patch(major_radius, minor_radius):
    """Metric patch for a torus, w = theta, periodic on [0, 2*pi).

    theta = 0 is the outer equator.  Requires finite radii with 0 < a < R;
    a >= R would self-intersect.
    """
    R, a = float(major_radius), float(minor_radius)
    if not (0.0 < a < R and math.isfinite(R)):
        raise ValueError(f"torus radii must be finite with 0 < a < R, got a={a}, R={R}")

    def frame(w):
        if type(w) is not float:
            grid = as_grid(w)
            if grid is not None:
                w = grid
        c, s = np.cos(w), np.sin(w)
        a2 = R + a * c
        return Frame(a, a2, 1.0 / a, c / a2, 0.0, -a * s, 0.0, -a * c)

    return MetricPatch("theta", (0.0, 2.0 * math.pi), "periodic", frame)


def curvature_sample(patch, w, q=0.0):
    """Curvatures, V_C and the rescaling factor F at (w, q).

    Raises ValueError for a non-finite w or q, and FocalSurfaceError when
    q reaches a focal distance (a shell factor 1 + q*k_i drops to zero or
    below); the metric factorization is meaningless there.  w is a float
    or a 1-D grid, by the rule of jets.as_grid.  A grid gives one
    CurvatureSample of arrays, the scalar samples stacked, from one frame;
    where a point fails, the points go one at a time, so the error is the
    first failing point's.
    """
    if type(w) is not float:
        grid = as_grid(w)
        if grid is not None:
            try:
                return _curvature_table(patch, grid, q)
            except (ValueError, ArithmeticError):
                for x in grid.tolist():
                    curvature_sample(patch, x, q)
                raise
        w = float(w)
    if not (math.isfinite(w) and math.isfinite(q)):
        raise ValueError(f"curvature sample needs a finite w and q, got w={w}, q={q}")
    if patch.boundary == "open":
        lo, hi = patch.domain
        if not lo <= w <= hi:
            raise ValueError(f"coordinate {w} outside patch domain [{lo}, {hi}]")
    fr = patch.frame(w)
    k1 = float(fr.k1)
    k2 = float(fr.k2)
    shell1 = 1.0 + q * k1
    shell2 = 1.0 + q * k2
    if shell1 <= 0.0 or shell2 <= 0.0:
        raise FocalSurfaceError(
            f"offset q={q} reaches the focal surface (shell factors {shell1:.3g}, {shell2:.3g})"
        )
    h = mean_curvature(k1, k2)
    k = gaussian_curvature(k1, k2)
    return CurvatureSample(
        w=w,
        z=float(fr.a1),
        k1=k1,
        k2=k2,
        h=h,
        k=k,
        vc=curvature_potential(k1, k2),
        f=rescaling_factor(h, k, q),
    )


def _curvature_table(patch, w, q):
    """curvature_sample at each point of the array w; where one fails, an error that names no point."""
    lo, hi = patch.domain
    if not (np.isfinite(w).all() and math.isfinite(q)):
        raise ValueError("curvature sample needs a finite w and q")
    if patch.boundary == "open" and not np.all((lo <= w) & (w <= hi)):
        raise ValueError("coordinate outside the patch domain")
    fr = patch.frame(w)
    z, k1, k2 = (np.array(np.broadcast_to(x, w.shape), dtype=float) for x in (fr.a1, fr.k1, fr.k2))
    with np.errstate(all="ignore"):
        if np.any((1.0 + q * k1 <= 0.0) | (1.0 + q * k2 <= 0.0)):
            raise FocalSurfaceError("offset q reaches the focal surface")
        h = mean_curvature(k1, k2)
        k = gaussian_curvature(k1, k2)
        return CurvatureSample(w, z, k1, k2, h, k, curvature_potential(k1, k2), rescaling_factor(h, k, q))
