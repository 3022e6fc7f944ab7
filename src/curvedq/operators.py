"""Hermitian momenta and surface Hamiltonians for a confined particle.

Momenta that are symmetric under the volume measure sqrt(g) = a1 a2 F take
the form

    P = -i (d/dw + drift),     drift = (1/2) d/dw ln sqrt(g).

On the surface (q = 0) the drift of a surface momentum is
gamma = (1/2) d/dw ln(a1 a2) and the drift of the normal momentum is the
mean curvature h (more generally (h + q k)/F).

Expanding minus the squared normal momentum gives

    -P_q^2 = d^2/dq^2 + 2 (h+qk)/F d/dq + k/F - (h+qk)^2/F^2,

whose zero-order term tends to (k - h^2) as q -> 0.  The Laplacian route,
by contrast, conjugates the normal Laplacian with F^(-1/2) to conserve the
norm, which generates the zero-order term

    (1/4)(F'/F)^2 - (1/2) F''/F  ->  h^2 - k     (q -> 0),

the source of the curvature potential V_C = -(h^2 - k)/2.  The two terms
are equal and opposite at every q, so in the Hermitian-momentum
formulation the curvature potential cancels identically.

On the surface both routes share one kinetic operator.  With W = a1 a2,
b = 1/a1^2, the drift gamma = (1/2) W'/W and psi(w) e^(i nu phi),

    H = -(1/2)(1/W)(W b psi')' + nu^2/(2 a2^2) + V(w),

symmetric under W dw, and the routes differ only in the zero-order term V:

    laplacian:  V = V_C
    hermitian:  V = -V_L,   V_L = (1/2)(b' gamma + b gamma' + b gamma^2)
                            (sandwich, (1/2) P b P)

The Hermitian term is intrinsic: it comes from the drift of P, not from the
embedding.  In the half-density (Liouville) form v = W^(1/2) psi the
measure becomes the flat dw and the kinetic term gives back V_L:

    W^(1/2) H W^(-1/2) v = -(1/2)(b v')' + (nu^2/(2 a2^2) + V + V_L) v.

So the Laplacian route carries V_C + V_L there, while the Hermitian route
keeps only the centrifugal term: P = -i W^(-1/2) d/dw W^(1/2), and V_C = 0
is the statement that nothing else survives.  Quantizing p^2/a1(w)^2 is
ambiguous when a1 varies, so a second ordering is provided:

    left:  (1/2) b P^2 = H_sandwich + (1/2) b' (d/dw + gamma)

It is symmetric under W dw only where b' = 0.  On the torus a1 is
constant, so there the two orderings coincide.
"""

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import curvature_potential, mean_curvature, rescaling_factor
from .jets import on_grid
from .shapes import ShapeExpr, eval_jet2

FORMULATIONS = ("laplacian", "hermitian")
ORDERINGS = ("left", "sandwich")
N_NODES = 512  # of hermiticity_residual's quadrature rule


class BoundaryCompatibilityError(ValueError):
    """Test functions fail the boundary conditions of the inner product."""


@dataclass(frozen=True)
class MomentumOp:
    """First-order operator P = -i (d/dw + drift(w)); drift takes a float or a
    1-D grid of w by the rule of jets.on_grid; a momentum of hermitian_momenta
    also gives its patch and its drift as a function of a Frame, of_frame."""

    label: str
    drift: Callable
    patch: object = None
    of_frame: Callable = None


@dataclass(frozen=True)
class OperatorCoeffs:
    """Second-order 1D operator c2 d^2/dw^2 + c1 d/dw + c0 on a patch.

    Its Sturm-Liouville weight W is the surface measure a1 a2 of
    patch.frame(w).  v0 is the zero-order term in half-density form,
    W^(1/2) H W^(-1/2) = c2 d^2/dw^2 + (c1 - 2 c2 gamma) d/dw + v0 on the
    flat measure dw, which is (c2 v')' + v0 v for the self-adjoint operators.
    Each callable takes a float or a 1-D grid of w by the rule of
    jets.on_grid, so a grid that holds a point the float call refuses (the
    axis of a graph patch, say) raises that point's error.
    """

    c2: Callable
    c1: Callable
    c0: Callable
    v0: Callable


def hermitian_momenta(patch):
    """Momenta (P_w, P_phi, P_q) Hermitian under the measure a1 a2 F, at q = 0.

    P_w.drift = gamma = (1/2)(a1'/a1 + a2'/a2), the function _gamma of a
    Frame that surface_operator's c1 also reads; for a graph this is the
    log-derivative form (1/2)(Z_rho/Z + 1/rho).  P_phi has no drift: 0.0
    at a scalar, zeros over a grid, by the rule of jets.on_grid.  The normal
    momentum's drift at q = 0 is the mean curvature h (mean_curvature).
    """

    def drift_q(fr):
        return mean_curvature(fr.k1, fr.k2)

    return (
        MomentumOp(patch.label, patch.lift(_gamma), patch, _gamma),
        MomentumOp("phi", lambda w: on_grid(w, _no_drift, np.zeros_like)),
        MomentumOp("q", patch.lift(drift_q), patch, drift_q),
    )


def _gamma(fr):
    """gamma = (1/2) W'/W, W = a1 a2, at a Frame: P_w's drift and the drift in c1."""
    return 0.5 * (fr.d_a1 / fr.a1 + fr.d_a2 / fr.a2)


def _no_drift(w):
    float(w)  # refuses a scalar that float() refuses
    return 0.0


def normal_momentum_sq_coeffs(h, k, q=0.0):
    """Coefficients (of d^2/dq^2, d/dq, 1) of minus the squared normal momentum."""
    f = rescaling_factor(h, k, q)
    g = (h + q * k) / f
    return 1.0, 2.0 * g, k / f - g * g


def rescaling_potential(h, k, q=0.0):
    """Zero-order term generated by conjugating the normal Laplacian with F^(-1/2).

    Equals (1/4)(F'/F)^2 - (1/2)F''/F, which is h^2 - k at q = 0 and is the
    exact negative of the zero-order term of -P_q^2 at every q.
    """
    f = rescaling_factor(h, k, q)
    fp = 2.0 * (h + q * k)
    fpp = 2.0 * k
    return 0.25 * (fp / f) ** 2 - 0.5 * fpp / f


def cancellation_residual(h, k, q=0.0):
    """|rescaling term + zero-order term of -P_q^2|, the two terms computed by
    rescaling_potential and normal_momentum_sq_coeffs; identically zero in
    exact arithmetic, so this measures rounding only."""
    return abs(rescaling_potential(h, k, q) + normal_momentum_sq_coeffs(h, k, q)[2])


def integer(name, value):
    """The setting `name` as an int; 2.0 is accepted, 1.7, True and np.True_ are refused."""
    try:
        result = int(value)
    except (TypeError, ValueError, OverflowError):
        result = None
    if result is None or result != value or isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return result


def check_formulation(formulation):
    """Refuse a formulation outside FORMULATIONS."""
    if formulation not in FORMULATIONS:
        raise ValueError(f"formulation must be one of {FORMULATIONS}, got {formulation!r}")


def surface_operator(patch, formulation, nu=0, ordering="sandwich"):
    """Azimuthally reduced surface Hamiltonian as coefficient functions of w.

    The wave function is taken as psi(w) e^(i nu phi), in units
    hbar = m = 1.  Both formulations share the kinetic term of the module
    docstring, c2 = -b/2 and c1 = -(1/2)(b' + 2 b gamma), so (c2 W)' = c1 W
    with the Sturm-Liouville weight W = a1 a2 of patch.frame(w).
    The zero-order term c0 is nu^2/(2 a2^2) plus V_C for "laplacian" and
    minus V_L = (1/2)(b' gamma + b gamma' + b gamma^2) for "hermitian"; no
    curvature potential appears there.  The half-density term v0 is
    nu^2/(2 a2^2) + V_C + V_L for "laplacian" and the centrifugal term alone
    for "hermitian".  The `left` ordering drops b' from c1 and c0 (and from
    V_L), which leaves v0 unchanged.

    `ordering` is ignored for the laplacian formulation.
    """
    check_formulation(formulation)
    if ordering not in ORDERINGS:
        raise ValueError(f"ordering must be one of {ORDERINGS}, got {ordering!r}")
    nu = abs(integer("nu", nu))
    left = formulation == "hermitian" and ordering == "left"
    laplacian = formulation == "laplacian"

    # functions of a Frame; b, b', V_L's gamma and gamma' and the centrifugal term stay written out:
    # shared closures for them cost graph-fields 10-16% more CPU per op (2 vCPU host); products,
    # not powers: numpy's array pow rounds unlike the scalar one
    def c2(fr):
        a1 = fr.a1
        return -0.5 / (a1 * a1)

    def c1(fr):
        a1 = fr.a1
        b = 1.0 / (a1 * a1)
        db = 0.0 if left else -2.0 * fr.d_a1 / (a1 * a1 * a1)
        return -0.5 * (db + 2.0 * b * _gamma(fr))

    def liouville(fr):
        """V_L, the zero-order term the kinetic operator leaves in half-density form."""
        a1, a2 = fr.a1, fr.a2
        b = 1.0 / (a1 * a1)
        db = 0.0 if left else -2.0 * fr.d_a1 / (a1 * a1 * a1)
        r1, r2 = fr.d_a1 / a1, fr.d_a2 / a2
        g = 0.5 * (r1 + r2)
        dg = 0.5 * (fr.d2_a1 / a1 - r1 * r1 + fr.d2_a2 / a2 - r2 * r2)
        return 0.5 * (db * g + b * dg + b * g * g)

    def c0_laplacian(fr):
        r = nu / fr.a2
        return 0.5 * (r * r) + curvature_potential(fr.k1, fr.k2)

    def c0_hermitian(fr):
        r = nu / fr.a2
        return 0.5 * (r * r) - liouville(fr)

    def v0(fr):
        if laplacian:
            return c0_laplacian(fr) + liouville(fr)
        r = nu / fr.a2
        return 0.5 * (r * r)

    c0 = c0_laplacian if laplacian else c0_hermitian
    return OperatorCoeffs(*map(patch.lift, (c2, c1, c0, v0)))


@functools.cache
def _gauss_legendre():
    """The N_NODES Gauss-Legendre nodes and weights on [-1, 1], built once; read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(N_NODES)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _values_and_slopes(fn, ws):
    """Values and first derivatives of the ShapeExpr fn at the points ws, from one array jet."""
    if not isinstance(fn, ShapeExpr):
        raise TypeError(f"test function must be a ShapeExpr, got {type(fn).__name__}")
    jet = eval_jet2(fn, ws)
    return jet.value, jet.d1


def hermiticity_residual(op, patch, f, g):
    """|<f, Pg> - <Pf, g>| under the surface measure a1 a2 dw at q = 0.

    f and g are real test functions given as ShapeExpr (the grammar variable
    plays the role of w); the measure is read in one call on the whole grid,
    and the drift of a momentum of this patch off the same frame.  The rule
    has N_NODES nodes: the periodic trapezoid rule on periodic patches, and
    Gauss-Legendre on open ones, where f, g must vanish at both endpoints.

    For an azimuthal momentum (op.label "phi") the integral runs over one
    period of phi, [0, 2 pi) by the periodic trapezoid rule, with measure 1:
    the measure is phi-independent and drops out.
    """
    azimuthal = op.label == "phi"
    if not azimuthal and op.label != patch.label:
        raise ValueError(f"momentum coordinate {op.label!r} does not match patch {patch.label!r}")
    lo, hi = (0.0, 2.0 * math.pi) if azimuthal else patch.domain
    if azimuthal or patch.boundary == "periodic":
        theta = np.linspace(lo, hi, N_NODES, endpoint=False)
        wq = (hi - lo) / N_NODES
    else:
        for name, fn in (("f", f), ("g", g)):
            for end, val in zip((lo, hi), _values_and_slopes(fn, (lo, hi))[0]):
                if abs(val) > 1e-9:
                    raise BoundaryCompatibilityError(
                        f"{name}({end}) = {val:.3g}; test functions must vanish at open boundaries"
                    )
        nodes, gw = _gauss_legendre()
        theta = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
        wq = 0.5 * (hi - lo) * gw
    fr = None if azimuthal else patch.frame(theta)
    measure = 1.0 if azimuthal else fr.a1 * fr.a2
    drift = op.of_frame(fr) if op.patch is patch and not azimuthal else op.drift(theta)

    fv, fs = _values_and_slopes(f, theta)
    gv, gs = _values_and_slopes(g, theta)
    # <f,Pg> - <Pf,g> = -i * integral of [(fg)' + 2*drift*fg] * measure
    return abs(np.sum((fv * gs + fs * gv + 2.0 * drift * fv * gv) * measure * wq))
