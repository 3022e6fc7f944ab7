"""Fourier-Galerkin eigensolver for a particle on a torus, in half-density form.

The Hamiltonian is `operators.surface_operator` on the torus patch of unit
minor radius and major radius 1/alpha (alpha = a/R, theta = 0 at the outer
equator), so both formulations come from the metric patch as on every
other surface.  With azimuthal wave number nu and the dimensionless
eigenvalue beta = 2 E a^2 = 2 E, every coefficient is even in theta, so
the problem decouples into an even (cosine) and an odd (sine) parity block.

The blocks are `operators.galerkin`'s weak form of the half-density function
v = u^(1/2) psi, u = alpha a1 a2 = 1 + alpha cos(theta), on the flat measure
dtheta (the Liouville normal form; Birkhoff & Rota, Ordinary Differential
Equations), in `operators.fourier_basis`, so S = diag(2 pi, pi, pi, ...) and
`operators.solve` diagonalizes each block by one symmetric `eigh`.  In its
H, 2 v0 is nu^2 alpha^2/u^2 + 2 (V_C + V_L) for the laplacian and the
centrifugal term nu^2 alpha^2/u^2 alone for the hermitian route (sandwich
ordering, the default, equal to `left` on the torus).  The hermitian nu = 0
block is therefore -v'' = beta v, the free-ring ladder n^2 at every alpha.

States are reported for psi = u^(-1/2) v in the raw {1, cos n theta} /
{sin n theta} basis: a projection on the patch measure u, read off the
torus frame and integrated by the rule that builds H (the tests hold it
to the closed form `overlap_analytic`), then Loewdin's symmetric
orthonormalization (Loewdin, J. Chem. Phys. 18, 365 (1950)), so the
coefficients satisfy int psi_i psi_j u dtheta = delta_ij in the truncated
basis exactly; the largest-magnitude coefficient of each state is positive.

Special values of alpha kill the azimuthal part of the potential
("magic" aspect ratios): alpha = 1/(2 nu) for the laplacian form and
alpha = 1/sqrt(1 + 4 nu^2) for the hermitian one.
"""

import math
from dataclasses import dataclass

import numpy as np

from .geometry import torus_metric_patch
from .operators import FORMULATIONS, check_formulation, fourier_basis, galerkin, integer, solve, surface_operator

PARITIES = ("even", "odd")
N_QUAD_FLOOR = 128


class JacobiConvergenceError(RuntimeError):
    """Cyclic Jacobi failed to reach the off-diagonal target within the sweep cap."""


def check_alpha(alpha, name="alpha"):
    """Refuse an aspect ratio outside (0, 1), or so small that the major radius 1/alpha overflows."""
    if not (0.0 < alpha < 1.0 and math.isfinite(1.0 / alpha)):
        raise ValueError(f"{name} must lie in (0, 1) with a finite 1/alpha, got {alpha}")


@dataclass(frozen=True)
class TorusProblem:
    """One eigenproblem configuration.

    alpha must pass check_alpha.  nu, n_max and n_quad must be integral (2.0
    is accepted, 1.7 and True refused).  nu is reduced to |nu| (the spectrum
    depends on nu only through nu^2; states carry e^(+-i nu phi)), and refused
    where the centrifugal term of H overflows.  n_quad must stay
    comfortably above the basis bandwidth so the trapezoid rule is
    spectrally converged: at least 4*n_max + 8, and by default the larger
    of that and N_QUAD_FLOOR.
    """

    alpha: float
    nu: int
    formulation: str
    n_max: int = 24
    n_quad: int | None = None

    def __post_init__(self):
        check_alpha(self.alpha)
        check_formulation(self.formulation)
        object.__setattr__(self, "nu", abs(integer("nu", self.nu)))
        try:  # the entries of H that nu^2 alpha^2/u^2 adds peak at the inner equator, u = 1 - alpha
            peak = 2.0 * math.pi * (self.nu * self.alpha / (1.0 - self.alpha)) ** 2
        except OverflowError:  # nu, or its square, past the float range
            peak = math.inf
        if not math.isfinite(peak):
            raise ValueError(f"nu is too large at alpha = {self.alpha}: the centrifugal term overflows")
        n_max = integer("n_max", self.n_max)
        if n_max < 2:
            raise ValueError("n_max must be at least 2")
        least = 4 * n_max + 8
        n_quad = max(N_QUAD_FLOOR, least) if self.n_quad is None else integer("n_quad", self.n_quad)
        if n_quad < least:
            raise ValueError(f"n_quad must be >= 4*n_max + 8 = {least}, got {n_quad}")
        object.__setattr__(self, "n_max", n_max)
        object.__setattr__(self, "n_quad", n_quad)


@dataclass(frozen=True)
class SpectrumEntry:
    beta: float
    nu: int
    parity: str
    coeffs: np.ndarray  # over {1, cos, cos 2, ...} (even) or {sin, sin 2, ...} (odd)

    @property
    def basis(self):
        """The functions the coefficients expand over: "cos" (even) or "sin" (odd)."""
        return "cos" if self.parity == "even" else "sin"


@dataclass(frozen=True)
class SpectrumResult:
    entries: tuple


def assemble(problem, parity):
    """(H, S) for one parity block: operators.galerkin on operators.fourier_basis, so S is
    diag(2 pi, pi, ...) up to rounding."""
    op = surface_operator(torus_metric_patch(1.0 / problem.alpha, 1.0), problem.formulation, problem.nu)
    return galerkin(op, fourier_basis(parity, problem.n_max, problem.n_quad))


def overlap_analytic(alpha, parity, n_max):
    """Closed-form overlap matrix; u couples only adjacent harmonics (tridiagonal)."""
    even = parity == "even"
    d = np.full(n_max + 1 if even else n_max, math.pi)
    off = np.full(max(len(d) - 1, 0), 0.5 * math.pi * alpha)
    if even:
        d[0] = 2.0 * math.pi
        off[:1] = math.pi * alpha
    return np.diag(d) + np.diag(off, 1) + np.diag(off, -1)


def solve_triangular(a, b, lower=False):
    """Solve a x = b, b a vector or a matrix of columns, reading only the triangle
    of a named by `lower`: numpy's solve on that triangle.

    The solver does not use it; it stays in this module only because the span
    tracer of `bench/spans.py` looks it up here by name, and goes when the
    benchmark stops doing so.
    """
    return np.linalg.solve(np.tril(a) if lower else np.triu(a), b)


def jacobi_eigh(matrix, tol=1e-12, max_sweeps=40):
    """Eigen-decomposition of a symmetric matrix by cyclic Jacobi rotations.

    Reference solver for cross-checks against `np.linalg.eigh`; the solve
    path does not use it.  It stays in this module, not with the tests, only
    because the span tracer of `bench/spans.py` looks it up here by name.
    Sweeps until the Frobenius norm of the off-diagonal part drops to `tol`.
    Returns eigenvalues in ascending order with the matching orthonormal
    eigenvector columns.
    """
    a = np.array(matrix, dtype=float, copy=True)
    n = a.shape[0]
    v = np.eye(n)
    if n == 1:
        return np.array([a[0, 0]]), v
    def _off_norm():
        return math.sqrt(2.0 * float(np.sum(np.triu(a, 1) ** 2)))

    for _ in range(max_sweeps):
        off = _off_norm()
        if off <= tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                t_arg = (a[q, q] - a[p, p]) / (2.0 * apq)
                if abs(t_arg) > 1e12:
                    t = 0.5 / t_arg
                else:
                    t = math.copysign(1.0, t_arg) / (abs(t_arg) + math.hypot(1.0, t_arg))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                col_p, col_q = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p, row_q = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                a[p, q] = a[q, p] = 0.0
                vec_p, vec_q = v[:, p].copy(), v[:, q].copy()
                v[:, p] = c * vec_p - s * vec_q
                v[:, q] = s * vec_p + c * vec_q
    else:
        off = _off_norm()
        if off > tol:
            raise JacobiConvergenceError(
                f"off-diagonal norm {off:.3e} above {tol:.1e} after {max_sweeps} sweeps"
            )
    order = np.argsort(np.diag(a), kind="stable")
    return np.diag(a)[order], v[:, order]


def solve_spectrum(problem):
    """Full spectrum of the problem, both parity blocks merged.

    Each half-density block is solved by `operators.solve`; the states are
    mapped back to psi coefficients, orthonormalized under
    int |psi|^2 u dtheta and signed as in the module docstring.  Entries
    are sorted by exactly ascending beta; the two states of an exactly
    degenerate pair (the hermitian nu = 0 ladder) come in rounding order.
    The CLI and `table_states` list states by `listing_key`, which puts
    such a pair odd first.
    """
    entries = []
    # psi = u^(-1/2) v, so int phi_m psi u dtheta = int phi_m u^(1/2) v dtheta, on nodes both blocks share
    theta, width = fourier_basis(PARITIES[0], problem.n_max, problem.n_quad)[:2]
    fr = torus_metric_patch(1.0 / problem.alpha, 1.0).frame(theta)
    u = problem.alpha * fr.a1 * fr.a2
    u_weight, root_weight = width * u, width * np.sqrt(u)
    for parity in PARITIES:
        vals, vecs = solve(*assemble(problem, parity))
        phi = fourier_basis(parity, problem.n_max, problem.n_quad)[2]
        s_u = (phi * u_weight) @ phi.T
        coeffs = np.linalg.solve(s_u, (phi * root_weight) @ phi.T @ vecs)
        gram_vals, gram_vecs = np.linalg.eigh(coeffs.T @ s_u @ coeffs)
        coeffs = coeffs @ (gram_vecs / np.sqrt(gram_vals)) @ gram_vecs.T
        for beta, c in zip(vals, coeffs.T):
            if c[np.argmax(np.abs(c))] < 0.0:
                c = -c
            entries.append(SpectrumEntry(beta=float(beta), nu=problem.nu, parity=parity, coeffs=c))
    entries.sort(key=lambda e: e.beta)
    return SpectrumResult(entries=tuple(entries))


def magic_alpha(nu, formulation):
    """Aspect ratio at which the azimuthal part of W vanishes.

    laplacian: alpha = 1/(2 nu);  hermitian: alpha = 1/sqrt(1 + 4 nu^2).
    Requires nu >= 1 (nu = 0 has no azimuthal term to cancel); a nu past
    about 9e307, whose ratio would fail check_alpha, raises ValueError.
    """
    nu = integer("nu", nu)
    if nu < 1:
        raise ValueError("magic aspect ratio needs nu >= 1")
    check_formulation(formulation)
    two_nu = 2.0 * nu if nu < 2**1023 else math.inf  # float(nu) overflows past 2**1024, 2 nu before
    # past 2 nu = 1e154, sqrt(1 + 4 nu^2) rounds to 2 nu, and 4 nu^2 soon overflows
    alpha = 1.0 / (two_nu if formulation == "laplacian" or two_nu > 1e154 else math.sqrt(1.0 + two_nu * two_nu))
    try:
        check_alpha(alpha)
    except ValueError:
        raise ValueError("nu is too large: its magic aspect ratio has no finite reciprocal") from None
    return alpha


def listing_key(state):
    """Sort key of a listed state: beta rounded to 1e-8, then odd parity first, then nu.

    Numerically degenerate neighbors (e.g. the exactly degenerate even/odd
    pairs of the hermitian nu = 0 problem) thus come odd parity first,
    matching the reference presentation; the true splitting of such pairs
    is below solver resolution, so within-pair order is a convention.
    """
    return (round(state.beta, 8), 0 if state.parity == "odd" else 1, state.nu)


def table_states(alpha, formulation, n_max=TorusProblem.n_max, n_quad=None):
    """The three lowest states merged across nu = 0, 1 and 2, as SpectrumEntry,
    in `listing_key` order: the whole merge is sorted before the cut, as `spectrum` lists."""
    states = []
    for nu in (0, 1, 2):
        states += solve_spectrum(TorusProblem(alpha, nu, formulation, n_max, n_quad)).entries
    states.sort(key=listing_key)
    return states[:3]
