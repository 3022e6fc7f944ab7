"""Shared oracles and generators for the test suite."""

import math

import numpy as np

from curvedq.shapes import eval_jet2
from curvedq.torus import fourier_block


def poly_source(coeffs):
    """Expression text for sum(coeffs[k] * rho^k) using exact float reprs."""
    parts = [repr(float(coeffs[0]))]
    for k, c in enumerate(coeffs[1:], start=1):
        parts.append(f"{float(c)!r}*rho^{k}")
    return "+".join(parts)


def poly_eval(coeffs, x):
    """Horner evaluation of a coefficient list (independent of the jet code)."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_derivative(coeffs):
    """Coefficient-wise symbolic differentiation."""
    return [k * c for k, c in enumerate(coeffs)][1:] or [0.0]


def random_poly(rng, max_degree=6):
    degree = int(rng.integers(0, max_degree + 1))
    return list(rng.uniform(-2.0, 2.0, size=degree + 1))


SMOOTH_TEMPLATES = (
    "{a!r}*sin({b!r}*rho)+{c!r}",
    "exp({a!r}*rho)*{b!r}+{c!r}*rho",
    "cosh({a!r}*rho)+{b!r}*rho^2",
    "({c!r}+rho^2)^1.5*{a!r}",
    "{a!r}/(2.5+sin(rho))+{b!r}*cos(rho)",
    "ln(2.0+rho)*{a!r}+{b!r}",
    "tanh({a!r}*rho)+{b!r}*rho^3",
)


def random_smooth_source(rng):
    template = SMOOTH_TEMPLATES[int(rng.integers(0, len(SMOOTH_TEMPLATES)))]
    return template.format(
        a=float(rng.uniform(-1.5, 1.5)),
        b=float(rng.uniform(-1.5, 1.5)),
        c=float(rng.uniform(0.5, 2.0)),
    )


def random_shape_source(rng, index):
    """Mix of smooth cubic graphs and transcendental shapes, safe on [0.3, 1.7]."""
    named = (
        "1.5+0.2*sin(rho)",
        "sqrt(4-rho^2)",
        "exp(0.3*rho)",
        "cosh(rho/2)",
        "ln(1+rho)*0.7",
    )
    if index % 4 == 0:
        return named[index % len(named)]
    return poly_source(rng.uniform(-1.0, 1.0, size=4))


def trapezoid_fourier(values, theta, n):
    """Periodic-trapezoid Fourier cosine/sine coefficient of sampled values."""
    width = 2.0 * np.pi / len(theta)
    if n == 0:
        return float(np.sum(values) * width / (2.0 * np.pi))
    return float(np.sum(values * np.cos(n * theta)) * width / np.pi), float(
        np.sum(values * np.sin(n * theta)) * width / np.pi
    )


def reduced_torus_operator(alpha, nu, formulation):
    """Hand-reduced potential W(theta) and weight u(theta) of the torus problem.

    Minor radius 1, beta = 2 E: -(1/u) (u psi')' + W psi = beta psi with
    u = 1 + alpha cos(theta) and

        laplacian:  W = (nu^2 alpha^2 - 1/4) / u^2
        hermitian:  W = (nu^2 alpha^2 + (alpha^2 - 1)/4) / u^2 + 1/4,

    reduced by hand from the metric, independently of the operator pipeline.
    """
    def u(theta):
        return 1.0 + alpha * np.cos(theta)

    if formulation == "laplacian":
        num = nu * nu * alpha * alpha - 0.25
        shift = 0.0
    else:
        num = nu * nu * alpha * alpha + 0.25 * (alpha * alpha - 1.0)
        shift = 0.25

    def w(theta):
        uu = u(theta)
        return num / (uu * uu) + shift

    return w, u


def reduced_weak_form(alpha, nu, formulation, parity, n_max, n_quad):
    """H, S of the hand-reduced torus problem by the periodic trapezoid rule."""
    w, u = reduced_torus_operator(alpha, nu, formulation)
    theta = np.arange(n_quad) * (2.0 * math.pi / n_quad)
    wq = 2.0 * math.pi / n_quad
    uu = u(theta)
    phi, dphi = fourier_block(parity, n_max, theta)
    h = (dphi * (uu * wq)) @ dphi.T + (phi * (w(theta) * uu * wq)) @ phi.T
    s = (phi * (uu * wq)) @ phi.T
    return 0.5 * (h + h.T), 0.5 * (s + s.T)


def half_density_potential(alpha, nu, formulation):
    """Hand-reduced potential Q(theta) = 2 v0 of the torus problem in half-density form.

    Minor radius 1, beta = 2 E, v = u^(1/2) psi with u = 1 + alpha cos(theta):
    -v'' + Q v = beta v on the flat measure dtheta, where

        laplacian:  Q = (nu^2 alpha^2 - 1/4)/u^2 - alpha cos/(2 u) - alpha^2 sin^2/(4 u^2)
        hermitian:  Q = nu^2 alpha^2 / u^2,

    reduced by hand from the metric, independently of the operator pipeline.
    """
    def q(theta):
        cos, sin = np.cos(theta), np.sin(theta)
        uu = 1.0 + alpha * cos
        centrifugal = (nu * alpha / uu) ** 2
        if formulation == "hermitian":
            return centrifugal
        return centrifugal - 0.25 / (uu * uu) - alpha * cos / (2.0 * uu) - (alpha * sin / uu) ** 2 / 4.0

    return q


def half_density_weak_form(alpha, nu, formulation, parity, n_max, n_quad):
    """H, S of the hand-reduced half-density problem by the periodic trapezoid rule."""
    q = half_density_potential(alpha, nu, formulation)
    theta = np.arange(n_quad) * (2.0 * math.pi / n_quad)
    wq = 2.0 * math.pi / n_quad
    phi, dphi = fourier_block(parity, n_max, theta)
    h = (dphi * wq) @ dphi.T + (phi * (q(theta) * wq)) @ phi.T
    s = (phi * wq) @ phi.T
    return 0.5 * (h + h.T), 0.5 * (s + s.T)


def per_node_hermiticity_residual(op, patch, f, g, n_points=512):
    """|<f, Pg> - <Pf, g>| as operators.hermiticity_residual defines it, summed
    one node at a time from scalar frames, scalar drifts and a running total.

    The oracle of the grid evaluation; f, g are ShapeExpr and are not
    checked against the boundary.
    """
    if op.label == "phi":
        nodes = np.linspace(0.0, 2.0 * math.pi, n_points, endpoint=False)
        weights = np.full(n_points, 2.0 * math.pi / n_points)
        measure = np.ones(n_points)
    else:
        lo, hi = patch.domain
        if patch.boundary == "periodic":
            nodes = np.linspace(lo, hi, n_points, endpoint=False)
            weights = np.full(n_points, (hi - lo) / n_points)
        else:
            x, gw = np.polynomial.legendre.leggauss(n_points)
            nodes = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
            weights = 0.5 * (hi - lo) * gw
        measure = np.array([fr.a1 * fr.a2 for fr in map(patch.frame, nodes.tolist())])
    total = 0.0
    for t, wgt, mes in zip(nodes.tolist(), weights, measure):
        fj, gj = eval_jet2(f, t), eval_jet2(g, t)
        total += (fj.value * gj.d1 + fj.d1 * gj.value + 2.0 * op.drift(t) * fj.value * gj.value) * mes * wgt
    return abs(total)
