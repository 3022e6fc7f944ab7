"""Hermitian momenta and surface Hamiltonians for a confined particle.

Momenta that are symmetric under the volume measure sqrt(g) = a1 a2 F take
the form

    P = -i (d/dw + drift),     drift = (1/2) d/dw ln sqrt(g).

On the surface (q = 0) the drift of a surface momentum is
(1/2) d/dw ln(a1 a2) and the drift of the normal momentum is the mean
curvature h (more generally (h + q k)/F).

Expanding minus the squared normal momentum gives

    -P_q^2 = d^2/dq^2 + 2 (h+qk)/F d/dq + k/F - (h+qk)^2/F^2,

whose zero-order term tends to (k - h^2) as q -> 0.  The Laplacian route,
by contrast, conjugates the normal Laplacian with F^(-1/2) to conserve the
norm, which generates the zero-order term

    (1/4)(F'/F)^2 - (1/2) F''/F  ->  h^2 - k     (q -> 0),

the source of the curvature potential V_C = -(h^2 - k)/2.  The two terms
are equal and opposite at every q, so in the Hermitian-momentum
formulation the curvature potential cancels identically.

Two operator orderings are provided for the Hermitian surface Hamiltonian,
since quantizing p^2/a1(w)^2 is ambiguous when a1 varies:

    left:      (1/(2 a1^2)) P^2         (reproduces the torus algebra)
    sandwich:  (1/2) P (1/a1^2) P       (self-adjoint under a1 a2 dw)

They coincide whenever a1 is constant, in particular on the torus.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import curvature_potential, rescaling_factor
from .shapes import ShapeExpr, eval_jet2
from .jets import Jet3

FORMULATIONS = ("laplacian", "hermitian")
ORDERINGS = ("left", "sandwich")


class BoundaryCompatibilityError(ValueError):
    """Test functions fail the boundary conditions of the inner product."""


@dataclass(frozen=True)
class MomentumOp:
    """First-order operator P = -i (d/dw + drift(w)) along one coordinate."""

    label: str
    drift: Callable


@dataclass(frozen=True)
class OperatorCoeffs:
    """Second-order 1D operator c2 d^2/dw^2 + c1 d/dw + c0 with its measure density."""

    c2: Callable
    c1: Callable
    c0: Callable
    weight: Callable


def hermitian_momenta(patch):
    """Momenta (P_w, P_phi, P_q) Hermitian under the measure a1 a2 F, at q = 0.

    P_w.drift = (1/2)(a1'/a1 + a2'/a2); for a graph this is the
    log-derivative form (1/2)(Z_rho/Z + 1/rho).  P_phi has no drift; the
    normal momentum's drift at q = 0 is the mean curvature h.
    """

    def drift_w(w):
        return _gamma(patch.frame(w))

    def drift_q(w):
        fr = patch.frame(w)
        return 0.5 * (fr.k1 + fr.k2)

    return (
        MomentumOp(patch.label, drift_w),
        MomentumOp("phi", lambda w: 0.0),
        MomentumOp("q", drift_q),
    )


def normal_momentum_sq_coeffs(h, k, q=0.0):
    """Coefficients (of d^2/dq^2, d/dq, 1) of minus the squared normal momentum."""
    f = rescaling_factor(h, k, q)
    g = (h + q * k) / f
    return 1.0, 2.0 * g, k / f - g * g


def normal_kinetic_limit(h, k):
    """q -> 0 limit of normal_momentum_sq_coeffs: (1, 2h, k - h^2)."""
    return 1.0, 2.0 * h, k - h * h


def rescaling_potential(h, k, q=0.0):
    """Zero-order term generated by conjugating the normal Laplacian with F^(-1/2).

    Equals (1/4)(F'/F)^2 - (1/2)F''/F, which is h^2 - k at q = 0 and is the
    exact negative of the zero-order term of -P_q^2 at every q.
    """
    f = rescaling_factor(h, k, q)
    if q == 0.0:
        return h * h - k
    fp = 2.0 * (h + q * k)
    fpp = 2.0 * k
    return 0.25 * (fp / f) ** 2 - 0.5 * fpp / f


def cancellation_residual(h, k, q=0.0):
    """|rescaling term + zero-order term of -P_q^2|; identically zero in exact
    arithmetic, so this measures rounding only."""
    return abs(rescaling_potential(h, k, q) + normal_momentum_sq_coeffs(h, k, q)[2])


def surface_operator(patch, formulation, nu=0, ordering="sandwich"):
    """Azimuthally reduced surface Hamiltonian as coefficient functions of w.

    The wave function is taken as psi(w) e^(i nu phi).  In units
    hbar = m = 1:

    * "laplacian": -(1/2) Laplace-Beltrami + nu^2/(2 a2^2) + V_C; the
      coefficients satisfy (c2 * weight)' = c1 * weight with
      weight = a1 a2 (Sturm-Liouville form).
    * "hermitian": (1/2) p^2/a1^2 quantized with `ordering` (see module
      docstring) + nu^2/(2 a2^2); no curvature potential appears.

    `ordering` is ignored for the laplacian formulation.
    """
    if formulation not in FORMULATIONS:
        raise ValueError(f"formulation must be one of {FORMULATIONS}, got {formulation!r}")
    if ordering not in ORDERINGS:
        raise ValueError(f"ordering must be one of {ORDERINGS}, got {ordering!r}")
    nu = abs(int(nu))

    def centrifugal(fr):
        return nu * nu / (2.0 * fr.a2 * fr.a2)

    def c2(w):
        a1 = patch.frame(w).a1
        return -0.5 / (a1 * a1)

    def weight(w):
        fr = patch.frame(w)
        return fr.a1 * fr.a2

    if formulation == "laplacian":

        def c1(w):
            fr = patch.frame(w)
            a1 = fr.a1
            return -0.5 * (fr.d_a2 / (a1 * a1 * fr.a2) - fr.d_a1 / a1**3)

        def c0(w):
            fr = patch.frame(w)
            return centrifugal(fr) + curvature_potential(fr.k1, fr.k2)

    elif ordering == "left":

        def c1(w):
            fr = patch.frame(w)
            return -_gamma(fr) / (fr.a1 * fr.a1)

        def c0(w):
            fr = patch.frame(w)
            g = _gamma(fr)
            return -(_dgamma(fr) + g * g) / (2.0 * fr.a1 * fr.a1) + centrifugal(fr)

    else:  # sandwich: (1/2) P b P with b = 1/a1^2

        def c1(w):
            fr = patch.frame(w)
            a1 = fr.a1
            b = 1.0 / (a1 * a1)
            db = -2.0 * fr.d_a1 / a1**3
            return -0.5 * (db + 2.0 * b * _gamma(fr))

        def c0(w):
            fr = patch.frame(w)
            a1 = fr.a1
            b = 1.0 / (a1 * a1)
            db = -2.0 * fr.d_a1 / a1**3
            g = _gamma(fr)
            return -0.5 * (db * g + b * _dgamma(fr) + b * g * g) + centrifugal(fr)

    return OperatorCoeffs(c2=c2, c1=c1, c0=c0, weight=weight)


def _gamma(fr):
    """Drift (1/2)(a1'/a1 + a2'/a2) of the surface momentum along w."""
    return 0.5 * (fr.d_a1 / fr.a1 + fr.d_a2 / fr.a2)


def _dgamma(fr):
    """w-derivative of _gamma."""
    r1, r2 = fr.d_a1 / fr.a1, fr.d_a2 / fr.a2
    return 0.5 * (fr.d2_a1 / fr.a1 - r1 * r1 + fr.d2_a2 / fr.a2 - r2 * r2)


def _value_and_slope(fn, w):
    if isinstance(fn, ShapeExpr):
        jet = eval_jet2(fn, w)
        return jet.value, jet.d1
    jet = fn(Jet3.variable(w))
    if isinstance(jet, Jet3):
        return jet.value, jet.d1
    raise TypeError("test function must be a ShapeExpr or accept a Jet3 argument")


def hermiticity_residual(op, patch, f, g, n_points=512):
    """|<f, Pg> - <Pf, g>| under the surface measure a1 a2 dw at q = 0.

    f and g are real test functions given either as ShapeExpr (the grammar
    variable plays the role of w) or as callables that accept a Jet3 (so
    their derivative comes out exactly).  On periodic patches the inner
    product uses the periodic trapezoid rule; on open patches,
    Gauss-Legendre nodes, and f, g must vanish at both endpoints.

    For an azimuthal momentum (op.label "phi") the integral runs over one
    period of phi; the measure is phi-independent and drops out.
    """
    if op.label == "phi":
        theta = np.linspace(0.0, 2.0 * math.pi, n_points, endpoint=False)
        wq = np.full(n_points, 2.0 * math.pi / n_points)
        measure = np.ones(n_points)
    elif op.label == patch.label:
        lo, hi = patch.domain
        if patch.boundary == "periodic":
            theta = np.linspace(lo, hi, n_points, endpoint=False)
            wq = np.full(n_points, (hi - lo) / n_points)
        else:
            for name, fn in (("f", f), ("g", g)):
                for end in (lo, hi):
                    val = _value_and_slope(fn, end)[0]
                    if abs(val) > 1e-9:
                        raise BoundaryCompatibilityError(
                            f"{name}({end}) = {val:.3g}; test functions must vanish at open boundaries"
                        )
            nodes, gw = np.polynomial.legendre.leggauss(n_points)
            theta = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
            wq = 0.5 * (hi - lo) * gw
        measure = np.array([fr.a1 * fr.a2 for fr in map(patch.frame, theta)])
    else:
        raise ValueError(f"momentum coordinate {op.label!r} does not match patch {patch.label!r}")

    total = 0.0
    for t, wgt, mes in zip(theta, wq, measure):
        fv, fs = _value_and_slope(f, t)
        gv, gs = _value_and_slope(g, t)
        drift = op.drift(t)
        # <f,Pg> - <Pf,g> = -i * integral of [(fg)' + 2*drift*fg] * measure
        total += (fv * gs + fs * gv + 2.0 * drift * fv * gv) * mes * wgt
    return abs(total)
