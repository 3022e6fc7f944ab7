"""Weighted Fourier-Galerkin eigensolver for a particle on a torus.

The Hamiltonian is `operators.surface_operator` on the torus patch of unit
minor radius and major radius 1/alpha (alpha = a/R, theta = 0 at the outer
equator), so both formulations come from the metric patch as on every
other surface.  With azimuthal wave number nu and the dimensionless
eigenvalue beta = 2 E a^2 = 2 E, the coefficients c2, c0 and the measure
density a1 a2 are even in theta, so the problem decouples into an even
(cosine) and an odd (sine) parity block.  Matrices are assembled in the
weak form

    H_mn = int (-2 c2 phi_m' phi_n' + 2 c0 phi_m phi_n) u dtheta,
    S_mn = int  phi_m phi_n u dtheta,        u = alpha a1 a2 = 1 + alpha cos(theta),

which needs no c1 because (c2 a1 a2)' = c1 a1 a2 for the laplacian and the
sandwich-ordered hermitian operator (the default ordering, equal to `left`
on the torus).  The periodic trapezoid rule is spectrally accurate here,
the generalized problem is whitened by the Cholesky factor of S, and the
dense symmetric result is diagonalized by LAPACK through numpy's `eigh`
(the symmetric-definite reduction of LAPACK dsygv; Golub & Van Loan,
Matrix Computations, sec. 8.7).  numpy is the only runtime dependency: the
triangular solves are a short substitution here.  `jacobi_eigh`, a pure
Python cyclic Jacobi solver, is kept as the reference solver for
cross-checks and is not on the solve path.  Eigenvectors are reported in
the raw {1, cos n theta} / {sin n theta} basis, normalized so that
int |psi|^2 u dtheta = 1, with the largest-magnitude coefficient positive.

Special values of alpha kill the azimuthal part of the potential
("magic" aspect ratios): alpha = 1/(2 nu) for the laplacian form and
alpha = 1/sqrt(1 + 4 nu^2) for the hermitian one.
"""

import math
from dataclasses import dataclass

import numpy as np

from .geometry import torus_metric_patch
from .operators import FORMULATIONS, integer_nu, surface_operator

PARITIES = ("even", "odd")


class JacobiConvergenceError(RuntimeError):
    """Cyclic Jacobi failed to reach the off-diagonal target within the sweep cap."""


@dataclass(frozen=True)
class TorusProblem:
    """One eigenproblem configuration.

    nu must be integral (2.0 is accepted, 1.7 and True refused) and is reduced to
    |nu| (the spectrum depends on nu only through nu^2; states carry
    e^(+-i nu phi)).  n_quad must stay comfortably above the basis
    bandwidth so the trapezoid rule is spectrally converged.
    """

    alpha: float
    nu: int
    formulation: str
    n_max: int = 24
    n_quad: int = 128

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0,1), got {self.alpha}")
        if self.formulation not in FORMULATIONS:
            raise ValueError(f"formulation must be one of {FORMULATIONS}, got {self.formulation!r}")
        object.__setattr__(self, "nu", abs(integer_nu(self.nu)))
        if self.n_max < 2:
            raise ValueError("n_max must be at least 2")
        if self.n_quad < 4 * self.n_max + 8:
            raise ValueError(f"n_quad must be >= 4*n_max + 8 = {4 * self.n_max + 8}, got {self.n_quad}")


@dataclass(frozen=True)
class SpectrumEntry:
    beta: float
    parity: str
    coeffs: np.ndarray  # over {1, cos, cos 2, ...} (even) or {sin, sin 2, ...} (odd)


@dataclass(frozen=True)
class SpectrumResult:
    problem: TorusProblem
    entries: tuple


def fourier_block(parity, n_max, theta):
    """Basis values and derivatives on a grid: rows are basis functions."""
    if parity == "even":
        m = np.arange(0, n_max + 1)
        phi = np.cos(np.outer(m, theta))
        dphi = -m[:, None] * np.sin(np.outer(m, theta))
    elif parity == "odd":
        m = np.arange(1, n_max + 1)
        phi = np.sin(np.outer(m, theta))
        dphi = m[:, None] * np.cos(np.outer(m, theta))
    else:
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    return phi, dphi


def assemble(problem, parity):
    """(H, S) for one parity block: the weak form of the module docstring,
    c1-free because (c2 weight)' = c1 weight, by the periodic trapezoid rule."""
    op = surface_operator(torus_metric_patch(1.0 / problem.alpha, 1.0), problem.formulation, problem.nu)
    theta = np.arange(problem.n_quad) * (2.0 * math.pi / problem.n_quad)
    measure = (problem.alpha * 2.0 * math.pi / problem.n_quad) * op.weight(theta)
    phi, dphi = fourier_block(parity, problem.n_max, theta)
    h = (dphi * (-2.0 * op.c2(theta) * measure)) @ dphi.T + (phi * (2.0 * op.c0(theta) * measure)) @ phi.T
    s = (phi * measure) @ phi.T
    return 0.5 * (h + h.T), 0.5 * (s + s.T)


def overlap_analytic(alpha, parity, n_max):
    """Closed-form overlap matrix; u couples only adjacent harmonics (tridiagonal)."""
    if parity == "even":
        n = n_max + 1
        s = math.pi * np.eye(n)
        s[0, 0] = 2.0 * math.pi
        if n > 1:
            s[0, 1] = s[1, 0] = math.pi * alpha
        for m in range(1, n - 1):
            s[m, m + 1] = s[m + 1, m] = 0.5 * math.pi * alpha
    else:
        n = n_max
        s = math.pi * np.eye(n)
        for m in range(0, n - 1):
            s[m, m + 1] = s[m + 1, m] = 0.5 * math.pi * alpha
    return s


def solve_triangular(a, b, lower=False):
    """Solve a x = b for a triangular matrix a by forward or back substitution.

    b may be a vector or a matrix whose columns are solved together; only the
    triangle of a named by `lower` is read.
    """
    a = np.asarray(a, dtype=float)
    x = np.array(b, dtype=float, copy=True)
    n = a.shape[0]
    for i in range(n) if lower else range(n - 1, -1, -1):
        known = slice(0, i) if lower else slice(i + 1, n)
        x[i] = (x[i] - a[i, known] @ x[known]) / a[i, i]
    return x


def jacobi_eigh(matrix, tol=1e-12, max_sweeps=40):
    """Eigen-decomposition of a symmetric matrix by cyclic Jacobi rotations.

    Reference solver kept for cross-checks against `np.linalg.eigh`; the
    solve path does not use it.  Sweeps until the Frobenius norm of the
    off-diagonal part drops to `tol`.  Returns eigenvalues in ascending
    order with the matching orthonormal eigenvector columns.
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

    Whitens H c = beta S c with the Cholesky factor of S (the quadrature S
    is cross-checked against its closed form first), diagonalizes with
    LAPACK `eigh`, back-transforms, and normalizes each state to
    int |psi|^2 u dtheta = 1 with the largest-magnitude coefficient
    positive.  Entries are sorted by ascending beta.
    """
    entries = []
    for parity in PARITIES:
        h, s = assemble(problem, parity)
        s_ref = overlap_analytic(problem.alpha, parity, problem.n_max)
        drift = float(np.max(np.abs(s - s_ref)))
        if drift > 1e-10:
            raise RuntimeError(f"quadrature overlap deviates from closed form by {drift:.3e}")
        chol = np.linalg.cholesky(s)  # u > 0 for alpha < 1, so S is positive definite
        half = solve_triangular(chol, h, lower=True)
        white = solve_triangular(chol, half.T, lower=True).T
        vals, vecs = np.linalg.eigh(0.5 * (white + white.T))
        coeffs = solve_triangular(chol.T, vecs, lower=False)
        for j in range(len(vals)):
            c = coeffs[:, j]
            c = c / math.sqrt(float(c @ s @ c))
            top = int(np.argmax(np.abs(c)))
            if c[top] < 0.0:
                c = -c
            entries.append(SpectrumEntry(beta=float(vals[j]), parity=parity, coeffs=c))
    entries.sort(key=lambda e: e.beta)
    return SpectrumResult(problem=problem, entries=tuple(entries))


def magic_alpha(nu, formulation):
    """Aspect ratio at which the azimuthal part of W vanishes.

    laplacian: alpha = 1/(2 nu);  hermitian: alpha = 1/sqrt(1 + 4 nu^2).
    Requires nu >= 1 (nu = 0 has no azimuthal term to cancel).
    """
    nu = integer_nu(nu)
    if nu < 1:
        raise ValueError("magic aspect ratio needs nu >= 1")
    if formulation == "laplacian":
        return 1.0 / (2.0 * nu)
    if formulation == "hermitian":
        return 1.0 / math.sqrt(1.0 + 4.0 * nu * nu)
    raise ValueError(f"formulation must be one of {FORMULATIONS}, got {formulation!r}")


@dataclass(frozen=True)
class TableState:
    beta: float
    nu: int
    parity: str
    coeffs: np.ndarray
    basis: str  # "cos" | "sin"


def table_states(
    alpha, formulation, nus=(0, 1, 2), count=3, n_max=TorusProblem.n_max, n_quad=TorusProblem.n_quad
):
    """The `count` lowest states merged across azimuthal numbers.

    Numerically degenerate neighbors (beta equal after rounding to 1e-8,
    e.g. the exactly degenerate even/odd pairs of the hermitian nu = 0
    problem) are ordered odd parity first, matching the reference
    presentation; the true splitting of such pairs is below solver
    resolution, so within-pair order is a convention.
    """
    states = []
    for nu in nus:
        result = solve_spectrum(TorusProblem(alpha, nu, formulation, n_max, n_quad))
        for entry in result.entries[: count + 1]:
            states.append(
                TableState(
                    beta=entry.beta,
                    nu=nu,
                    parity=entry.parity,
                    coeffs=entry.coeffs,
                    basis="cos" if entry.parity == "even" else "sin",
                )
            )
    states.sort(key=lambda st: (round(st.beta, 8), 0 if st.parity == "odd" else 1, st.nu))
    return states[:count]
