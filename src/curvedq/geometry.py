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

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .jets import as_grid, each_pow, on_grid
from .shapes import ShapeDomainError, _array_jet, eval_jet2, eval_jet3


# Frames a patch keeps, set by memory: about 404 B each (tracemalloc), so 6.6 MB per patch.
_FRAME_MEMO_CAP = 2**14


class AxisSingularityError(ValueError):
    """The domain touches rho = 0 but the shape has a slope there."""


class FocalSurfaceError(ValueError):
    """Normal offset q reached a focal point: a shell factor 1 + q*k_i <= 0."""


class Frame(NamedTuple):
    """Metric data of a patch at one coordinate w.

    Shell factors a1, a2, principal curvatures k1, k2, and the first and
    second derivatives of the shell factors (the operator coefficients need
    them).  Every patch frame also accepts a 1-D grid of w (jets.on_grid);
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

    Built from two builders: point(w), the Frame at a Python float w, and
    grid(ws), the frames at a 1-D float array, the point frames stacked bit
    for bit, or raising where they would differ; grid calls no function that
    dispatches.  frame(w) takes a float or a 1-D grid, lists included, by the
    one rule of jets.on_grid, and lift(of_frame) makes a function of a Frame a
    function of w by the same rule, through which a grid enters on_grid once;
    a caller that needs several fields at w reads them off one frame.

    The patch keeps the frame of every float w other than 0.0 and -0.0 it
    reads in a functools.lru_cache of a fixed size, keyed on w alone, which
    drops the least recently read frame when full; each zero builds its own
    frame on every read.  A curvature sample, the drifts and every operator
    coefficient read at one float, in any order and in separate sweeps, thus
    build one frame, the one a fresh patch returns.  A frame that raises is
    not kept, nor are those of arrays and numpy scalars.  The cache wraps
    point when the patch is built, so dataclasses.replace(patch, point=...)
    starts an empty one.  Threads may share a patch: the cache is
    thread-safe, and a race only costs a recompute.
    """

    label: str                      # "rho" for graphs, "theta" for the torus
    domain: tuple
    boundary: str                   # "periodic" | "open"
    point: Callable
    grid: Callable

    def __post_init__(self):
        # keyed on w alone, so 0.0 and -0.0 would share a frame: frame() never keeps theirs
        object.__setattr__(self, "_kept", functools.lru_cache(maxsize=_FRAME_MEMO_CAP)(self.point))

    def frame(self, w):
        """The Frame at w, a float or a 1-D grid."""
        if type(w) is float and w:
            return self._kept(w)
        return on_grid(w, self.point, self.grid)

    def lift(self, of_frame):
        """of_frame, a function of a Frame, as a function of w by the rule of
        jets.on_grid, which a grid enters once: of_frame reads grid(ws)."""
        kept, frame, grid = self._kept, self.frame, self.grid

        def of_w(w):
            if type(w) is float and w:
                return of_frame(kept(w))
            return on_grid(w, lambda x: of_frame(frame(x)), lambda ws: of_frame(grid(ws)))

        return of_w


class CurvatureSample(NamedTuple):
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
    """Frame of the graph z = S(rho) at a scalar rho, from one third-order jet of S;
    ShapeDomainError where a field is not finite or a power overflows."""
    _, s1, s2, s3 = eval_jet3(shape, rho)
    try:
        z, dz, d2z, k1 = _slope_fields(s1, s2, s3, math.sqrt, pow)
    except OverflowError:  # pow of a finite float past the float range
        raise ShapeDomainError("non-finite metric frame", str(shape), rho) from None
    if rho == 0.0:
        # axis limit with S_rho(0) = 0: S_rho/rho -> S_rhorho(0)
        k2 = -s2 / z
    else:
        k2 = -s1 / (rho * z)
    # zero times a finite float is a zero, times inf or nan a nan
    if 0.0 * z * dz * d2z * k1 * k2 != 0.0:
        raise ShapeDomainError("non-finite metric frame", str(shape), rho)
    return tuple.__new__(Frame, (z, rho, k1, k2, dz, 1.0, d2z, 0.0))  # as Frame(...), without its Python-level __new__


def _graph_frames(shape, rho):
    """The frames of _graph_frame at each point of the 1-D array rho, from one array jet."""
    _, s1, s2, s3 = _array_jet(shape, rho, 4)
    # numpy's sqrt is correctly rounded like math.sqrt; its pow is not like libm's
    z, dz, d2z, k1 = _slope_fields(s1, s2, s3, np.sqrt, each_pow)
    axis = rho == 0.0
    k2 = np.where(axis, -s2 / z, -s1 / (np.where(axis, 1.0, rho) * z))
    if np.any(0.0 * z * dz * d2z * k1 * k2 != 0.0):
        raise FloatingPointError("non-finite metric frame")
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
    return MetricPatch(
        "rho", (lo, hi), "open", functools.partial(_graph_frame, shape), functools.partial(_graph_frames, shape)
    )


def torus_metric_patch(major_radius, minor_radius):
    """Metric patch for a torus, w = theta, periodic on [0, 2*pi).

    theta = 0 is the outer equator.  Requires finite radii with 0 < a < R;
    a >= R would self-intersect, and R + a, the outer equator's radius, must
    be finite too.
    """
    R, a = float(major_radius), float(minor_radius)
    if not (0.0 < a < R and math.isfinite(R)):
        raise ValueError(f"torus radii must be finite with 0 < a < R, got a={a}, R={R}")
    if not math.isfinite(R + a):
        raise ValueError(f"torus radii must have a finite outer equator radius R + a, got a={a}, R={R}")

    def frame(w):
        # cos(nan) sets no numpy flag, so a grid is tested here too; on_grid's replay names its first such point
        if not (math.isfinite(w) if type(w) is float else np.isfinite(w).all()):
            raise ValueError(f"torus frame needs a finite theta, got theta={w!r}")
        c, s = np.cos(w), np.sin(w)
        a2 = R + a * c
        return Frame(a, a2, 1.0 / a, c / a2, 0.0, -a * s, 0.0, -a * c)

    return MetricPatch("theta", (0.0, 2.0 * math.pi), "periodic", frame, frame)


def curvature_sample(patch, w, q=0.0):
    """Curvatures, V_C and the rescaling factor F at (w, q).

    Raises ValueError for a non-finite w or q, or where a curvature, V_C or
    F is not finite (V_C squares k1 - k2, which overflows past 1e154), and
    FocalSurfaceError when q reaches a focal distance (a shell factor
    1 + q*k_i drops to zero or below); the metric factorization is
    meaningless there.  The float body is the one body that computes or
    refuses a sample, h, k, V_C and F by mean_curvature, gaussian_curvature,
    curvature_potential and rescaling_factor, from patch.frame(w), the frame
    the coefficients and drifts read at that float.  w is told apart by
    jets.as_grid: a numpy scalar or a 0-d array reads as its float, and a 1-D
    grid runs the float body once per point, in order, and gives the samples
    stacked, as one CurvatureSample of arrays (eight empty ones for an empty
    grid); the first failing point raises its own error, so no point is
    computed twice.  The points enter the patch's frame memo like any float
    read.
    """
    if type(w) is not float:  # a scalar as its float; a grid as the float samples in rows of eight
        return curvature_sample(patch, float(w), q) if (grid := as_grid(w)) is None else CurvatureSample._make(
            np.array([curvature_sample(patch, x, q) for x in grid.tolist()], dtype=float).reshape(-1, 8).T.copy())
    if not (math.isfinite(w) and math.isfinite(q)):
        raise ValueError(f"curvature sample needs a finite w and q, got w={w}, q={q}")
    if patch.boundary == "open":
        lo, hi = patch.domain
        if not lo <= w <= hi:
            raise ValueError(f"coordinate {w} outside patch domain [{lo}, {hi}]")
    fr = patch.frame(w)
    k1, k2 = float(fr.k1), float(fr.k2)
    shell1, shell2 = 1.0 + q * k1, 1.0 + q * k2
    if shell1 <= 0.0 or shell2 <= 0.0:
        raise FocalSurfaceError(
            f"offset q={q} reaches the focal surface (shell factors {shell1:.3g}, {shell2:.3g})"
        )
    h, k = mean_curvature(k1, k2), gaussian_curvature(k1, k2)
    vc, f = curvature_potential(k1, k2), rescaling_factor(h, k, q)
    if 0.0 * k1 * k2 * h * k * vc * f != 0.0:  # zero times a finite float is a zero, times inf or nan a nan
        raise ValueError(f"non-finite curvature sample at {patch.label}={w!r}")
    return tuple.__new__(CurvatureSample, (w, float(fr.a1), k1, k2, h, k, vc, f))  # without the Python-level __new__
