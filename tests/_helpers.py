"""Shared oracles and generators for the test suite."""

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from curvedq.jets import FUNCTIONS
from curvedq.operators import surface_operator
from curvedq.shapes import (
    BinOp,
    Call,
    Const,
    Neg,
    Num,
    ShapeDomainError,
    Var,
    eval_jet2,
    format_expr,
)
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


def random_shape_tree(rng, depth):
    """Syntax tree of the whole grammar, at most depth levels deep; rho is
    two leaves in five, and literals are small integers or uniform floats."""
    kind = int(rng.integers(0, 4)) if depth > 1 else 0
    if kind == 1:
        return Call(FUNCTIONS[int(rng.integers(0, len(FUNCTIONS)))], random_shape_tree(rng, depth - 1))
    if kind == 2 and rng.random() < 0.3:
        return Neg(random_shape_tree(rng, depth - 1))
    if kind >= 2:
        op = "+-*/^"[int(rng.integers(0, 5))]
        return BinOp(op, random_shape_tree(rng, depth - 1), random_shape_tree(rng, depth - 1))
    leaf = int(rng.integers(0, 5))
    if leaf < 2:
        return Var()
    if leaf == 2:
        return Const("pi")
    return Num(float(rng.integers(-3, 4)) if leaf == 3 else float(rng.uniform(-3.0, 3.0)))


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


def surface_measure(patch, w):
    """a1 a2 of patch.frame(w): the surface measure, the Sturm-Liouville weight of every surface operator."""
    fr = patch.frame(w)
    return fr.a1 * fr.a2


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


def half_density_potential(alpha, nu, formulation, c=None):
    """Hand-reduced potential Q(theta) = 2 v0 of the torus problem in half-density form.

    Minor radius 1, beta = 2 E, v = u^(1/2) psi with u = 1 + alpha cos(theta):
    -v'' + Q v = beta v on the flat measure dtheta, where

        laplacian:  Q = (nu^2 alpha^2 - 1/4)/u^2 - alpha cos/(2 u) - alpha^2 sin^2/(4 u^2)
        hermitian:  Q = nu^2 alpha^2 / u^2,

    reduced by hand from the metric, independently of the operator pipeline.
    The centrifugal coefficient c, nu^2 by default, may be given directly,
    also where it has no real root nu (c = -1/4 is nu'^2 = nu^2 - 1/4 at nu = 0).
    """
    def q(theta):
        cos, sin = np.cos(theta), np.sin(theta)
        uu = 1.0 + alpha * cos
        centrifugal = (nu * alpha / uu) ** 2 if c is None else c * (alpha / uu) ** 2
        if formulation == "hermitian":
            return centrifugal
        return centrifugal - 0.25 / (uu * uu) - alpha * cos / (2.0 * uu) - (alpha * sin / uu) ** 2 / 4.0

    return q


def half_density_weak_form(alpha, nu, formulation, parity, n_max, n_quad, c=None):
    """H, S of the hand-reduced half-density problem by the periodic trapezoid
    rule; c is half_density_potential's centrifugal coefficient."""
    q = half_density_potential(alpha, nu, formulation, c)
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


# -- thin-shell oracle: the 3-D operators in a shell around a patch -----------
#
# A shell of thickness d around the surface, -d/2 <= q <= d/2, with Dirichlet
# walls.  In the half-density u = G^(1/4) psi on the flat measure dw dq, with
# g^ww = 1/(a1 (1 + q k1))^2, g^phph = 1/(a2 (1 + q k2))^2 and sqrt(G) = a1 a2 F
# read off the patch's frames, beta = 2 E is the minimum of
#
#     int (g^ww (D_w u)^2 + (D_q u)^2 + nu^2 g^phph u^2) dw dq  /  int u^2 dw dq.
#
# The Laplacian -Delta has D = d - (1/4) d ln G, since d psi = G^(-1/4) D u.  The
# paper's H_eta = (1/2) sum_eta P_eta g^etaeta P_eta with P_eta = -i G^(-1/4) d_eta
# G^(1/4) has D = d: P_eta psi = -i G^(-1/4) u_eta, so no potential appears.


def _periodic_derivative(values):
    """d/dw along axis 0 of values sampled at n equispaced nodes of one period 2 pi."""
    n = values.shape[0]
    k = np.arange(n // 2 + 1, dtype=float)
    if n % 2 == 0:
        k[-1] = 0.0  # the Nyquist mode of an even count has no derivative on the nodes
    return np.fft.irfft(1j * k[:, None] * np.fft.rfft(values, axis=0), n, axis=0)


def dirichlet_sines(domain, n_sines, n_gauss):
    """n_gauss Gauss-Legendre nodes and weights on the interval domain, and the
    Dirichlet sines sin(m pi (w - lo)/(hi - lo)), m = 1..n_sines, and their
    derivatives there: rows are basis functions."""
    lo, hi = domain
    x, gauss = np.polynomial.legendre.leggauss(n_gauss)
    m = np.arange(1, n_sines + 1)
    phase = np.outer(m, 0.5 * math.pi * (x + 1.0))  # m pi (w - lo)/(hi - lo)
    nodes, weights = 0.5 * (hi - lo) * x + 0.5 * (hi + lo), 0.5 * (hi - lo) * gauss
    return nodes, weights, np.sin(phase), (m * math.pi / (hi - lo))[:, None] * np.cos(phase)


def _symmetric_eigvalsh(h, s):
    """Eigenvalues of h x = beta s x, ascending, s whitened by its Cholesky factor."""
    lower = np.linalg.cholesky(s)
    whitened = np.linalg.solve(lower, np.linalg.solve(lower, h).T)
    return np.linalg.eigvalsh(0.5 * (whitened + whitened.T))


def _shell_betas(patch, nu, route, d, w, w_weight, basis, d_basis, n_sines, n_gauss):
    """The betas in the shell of thickness d around patch, u expanded in the rows
    of basis (values at the nodes w, of weights w_weight; d_basis their slopes)
    times n_sines Dirichlet sines in q on n_gauss Gauss-Legendre nodes, less
    (pi/d)^2.  route "laplacian" differentiates ln G spectrally: w must then
    be equispaced over one period 2 pi."""
    q, q_weight, sin, d_sin = dirichlet_sines((-0.5 * d, 0.5 * d), n_sines, n_gauss)
    a1, a2, k1, k2 = (np.broadcast_to(field, w.shape)[:, None] for field in patch.frame(w)[:4])
    s1, s2 = 1.0 + q * k1, 1.0 + q * k2
    g_ww, g_phph = 1.0 / (a1 * s1) ** 2, 1.0 / (a2 * s2) ** 2
    weight = np.outer(w_weight, q_weight)
    u, u_w, u_q = (np.einsum("ni,mj->ijnm", f, g) for f, g in ((basis, sin), (d_basis, sin), (basis, d_sin)))
    if route == "laplacian":
        u_w -= 0.5 * _periodic_derivative(np.log(a1 * a2 * s1 * s2))[:, :, None, None] * u
        u_q -= 0.5 * (k1 / s1 + k2 / s2)[:, :, None, None] * u
    elif route != "hermitian":
        raise ValueError(f"route must be 'laplacian' or 'hermitian', got {route!r}")

    def form(f, c, g):
        size = f.shape[0] * f.shape[1]
        return (f.reshape(size, -1) * (c * weight).reshape(size, 1)).T @ g.reshape(size, -1)

    h = form(u_w, g_ww, u_w) + form(u_q, 1.0, u_q) + nu * nu * form(u, g_phph, u)
    return _symmetric_eigvalsh(h, form(u, 1.0, u)) - (math.pi / d) ** 2


def shell_even_betas(patch, nu, route, d, n_max=24, n_sines=8, n_theta=256, n_gauss=40):
    """The even states' betas in the shell of thickness d around a periodic patch
    of period 2 pi, in ascending order, less the transverse (pi/d)^2; index 0
    is the even ground state.

    route "laplacian" is -Delta, "hermitian" the paper's H_eta (see above).  u is
    expanded in {cos n w, n <= n_max} times n_sines Dirichlet sines in q, on
    n_theta trapezoid nodes in w and n_gauss Gauss-Legendre nodes in q.
    """
    w = np.arange(n_theta) * (2.0 * math.pi / n_theta)
    cos, d_cos = fourier_block("even", n_max, w)
    width = np.full(n_theta, 2.0 * math.pi / n_theta)
    return _shell_betas(patch, nu, route, d, w, width, cos, d_cos, n_sines, n_gauss)


def shell_open_betas(patch, nu, d, n_sines_w=24, n_gauss_w=128, n_sines=8, n_gauss=40):
    """The betas of the paper's H_eta in the shell of thickness d around an open
    patch, Dirichlet at its ends, in ascending order, less (pi/d)^2.

    u is expanded in n_sines_w Dirichlet sines in w on n_gauss_w Gauss-Legendre
    nodes, times n_sines sines in q on n_gauss nodes.  H_eta needs no derivative
    of G; -Delta would need d ln G / dw, so k1', which a Frame does not carry.
    """
    w, w_weight, sin, d_sin = dirichlet_sines(patch.domain, n_sines_w, n_gauss_w)
    return _shell_betas(patch, nu, "hermitian", d, w, w_weight, sin, d_sin, n_sines, n_gauss)


def dirichlet_surface_betas(patch, formulation, nu, n_sines=24, n_gauss=128):
    """The betas of surface_operator(patch, formulation, nu) on an open patch,
    Dirichlet at its ends, in ascending order: the half-density weak form of its
    c2 and v0 on the flat measure dw, as torus.assemble builds it, in the
    Dirichlet sines of shell_open_betas."""
    w, weight, phi, dphi = dirichlet_sines(patch.domain, n_sines, n_gauss)
    op = surface_operator(patch, formulation, nu)
    h = (dphi * (-2.0 * weight * op.c2(w))) @ dphi.T + (phi * (2.0 * weight * op.v0(w))) @ phi.T
    return _symmetric_eigvalsh(h, (phi * weight) @ phi.T)


# -- tree-walk oracle of the compiled shape kernels ---------------------------
#
# The evaluator of shapes.py before shapes were compiled to kernels: it walks
# the syntax tree at every evaluation, dispatching on node type, over a dual
# number that carries its own copy of every derivative rule.  The kernels and
# the rules of jets.py must reproduce it bit for bit, errors included.


def _is_number(x):
    return isinstance(x, (int, float))


@dataclass(frozen=True, slots=True)
class WalkJet:
    """Dual number of the tree walk: every rule written out in its own method."""

    value: float
    d1: float = 0.0
    d2: float = 0.0
    d3: float = 0.0

    @staticmethod
    def variable(x):
        return WalkJet(float(x), 1.0, 0.0, 0.0)

    @staticmethod
    def constant(c):
        return WalkJet(float(c), 0.0, 0.0, 0.0)

    def _lift(self, x):
        if isinstance(x, WalkJet):
            return x
        if _is_number(x):
            return WalkJet(float(x), 0.0, 0.0, 0.0)
        return NotImplemented

    def __neg__(self):
        return WalkJet(-self.value, -self.d1, -self.d2, -self.d3)

    def __add__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return WalkJet(self.value + o.value, self.d1 + o.d1, self.d2 + o.d2, self.d3 + o.d3)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return WalkJet(self.value - o.value, self.d1 - o.d1, self.d2 - o.d2, self.d3 - o.d3)

    def __rsub__(self, other):
        return self._lift(other).__sub__(self)

    def __mul__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return WalkJet(
            self.value * o.value,
            self.d1 * o.value + self.value * o.d1,
            self.d2 * o.value + 2.0 * self.d1 * o.d1 + self.value * o.d2,
            self.d3 * o.value + 3.0 * self.d2 * o.d1 + 3.0 * self.d1 * o.d2 + self.value * o.d3,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        if o.value == 0.0:
            raise ZeroDivisionError("division by zero")
        q0 = self.value / o.value
        q1 = (self.d1 - q0 * o.d1) / o.value
        q2 = (self.d2 - 2.0 * q1 * o.d1 - q0 * o.d2) / o.value
        q3 = (self.d3 - 3.0 * q2 * o.d1 - 3.0 * q1 * o.d2 - q0 * o.d3) / o.value
        return WalkJet(q0, q1, q2, q3)

    def __rtruediv__(self, other):
        return self._lift(other).__truediv__(self)

    def _pow_scalar(self, c):
        f = self.value
        if c == int(c) and abs(c) < 1e9:
            n = int(c)
            if f == 0.0 and n < 0:
                raise ZeroDivisionError("zero raised to a negative power")
            u0 = f**n
            u1 = 0.0 if n == 0 else n * f ** (n - 1)
            u2 = 0.0 if n in (0, 1) else n * (n - 1) * f ** (n - 2)
            u3 = 0.0 if n in (0, 1, 2) else n * (n - 1) * (n - 2) * f ** (n - 3)
            return self._chain(u0, u1, u2, u3)
        if f <= 0.0:
            raise ValueError("fractional power of a non-positive base")
        u0 = f**c
        u1 = c * f ** (c - 1.0)
        u2 = c * (c - 1.0) * f ** (c - 2.0)
        u3 = c * (c - 1.0) * (c - 2.0) * f ** (c - 3.0)
        return self._chain(u0, u1, u2, u3)

    def __pow__(self, other, modulo=None):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        if o.d1 == 0.0 and o.d2 == 0.0 and o.d3 == 0.0:
            return self._pow_scalar(o.value)
        return (o * self.ln()).exp()

    def __rpow__(self, other):
        return self._lift(other).__pow__(self)

    def _chain(self, u0, u1, u2, u3):
        g1, g2, g3 = self.d1, self.d2, self.d3
        return WalkJet(
            u0,
            u1 * g1,
            u2 * g1 * g1 + u1 * g2,
            u3 * g1 * g1 * g1 + 3.0 * u2 * g1 * g2 + u1 * g3,
        )

    def sin(self):
        s, c = math.sin(self.value), math.cos(self.value)
        return self._chain(s, c, -s, -c)

    def cos(self):
        s, c = math.sin(self.value), math.cos(self.value)
        return self._chain(c, -s, -c, s)

    def tan(self):
        t = math.tan(self.value)
        sec2 = 1.0 + t * t
        return self._chain(t, sec2, 2.0 * t * sec2, sec2 * (2.0 + 6.0 * t * t))

    def exp(self):
        e = math.exp(self.value)
        return self._chain(e, e, e, e)

    def ln(self):
        v = self.value
        if v <= 0.0:
            raise ValueError("logarithm of a non-positive value")
        iv = 1.0 / v
        return self._chain(math.log(v), iv, -iv * iv, 2.0 * iv * iv * iv)

    def sqrt(self):
        r = math.sqrt(self.value)
        if r == 0.0:
            raise ZeroDivisionError("derivative of sqrt at zero")
        v = self.value
        if self.d1 == 0.0:  # the last two factors are multiplied by zero: a zero of their sign
            return self._chain(r, 0.5 / r, -0.0, 0.0)
        return self._chain(r, 0.5 / r, -0.25 / (r * v), 0.375 / (r * v * v))

    def sinh(self):
        s, c = math.sinh(self.value), math.cosh(self.value)
        return self._chain(s, c, s, c)

    def cosh(self):
        s, c = math.sinh(self.value), math.cosh(self.value)
        return self._chain(c, s, c, s)

    def tanh(self):
        t = math.tanh(self.value)
        sech2 = 1.0 - t * t
        return self._chain(t, sech2, -2.0 * t * sech2, sech2 * (6.0 * t * t - 2.0))


def _domain_error(exc, name, node, rho):
    """The error of node's own rule; an overflow is reported by name, "exp overflows"."""
    reason = f"{name} overflows" if isinstance(exc, OverflowError) else str(exc)
    return ShapeDomainError(reason, format_expr(SimpleNamespace(root=node)), rho)


def _walk(node, x, rho):
    if isinstance(node, Num):
        return WalkJet.constant(node.value)
    if isinstance(node, Const):
        return WalkJet.constant(math.pi)
    if isinstance(node, Var):
        return x
    if isinstance(node, Neg):
        return -_walk(node.arg, x, rho)
    if isinstance(node, BinOp):
        left = _walk(node.left, x, rho)
        right = _walk(node.right, x, rho)
        try:
            if node.op == "+":
                return left + right
            if node.op == "-":
                return left - right
            if node.op == "*":
                return left * right
            if node.op == "/":
                return left / right
            return left**right
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise _domain_error(exc, "power", node, rho) from None
    arg = _walk(node.arg, x, rho)
    try:
        return getattr(arg, node.func)()
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise _domain_error(exc, node.func, node, rho) from None


def tree_walk_jet(expr, rho, count=4):
    """The jet eval_jet3 (count=4) or eval_jet2 (count=3) must return for expr
    at rho, as a 4-tuple, or the ShapeDomainError it must raise."""
    rho = float(rho)
    jet = _walk(expr.root, WalkJet.variable(rho), rho)
    out = (jet.value, jet.d1, jet.d2, jet.d3)
    if not all(math.isfinite(c) for c in out[:count]):
        raise ShapeDomainError("non-finite result", format_expr(expr), rho)
    return out
