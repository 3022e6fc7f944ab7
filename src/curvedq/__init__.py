"""Quantum mechanics of a particle confined to a curved surface of revolution.

The package builds near-surface metric and curvature data for surfaces of
revolution (including the torus), constructs the two natural surface
Hamiltonians (Laplacian route with its attractive curvature potential, and
the Hermitian-momentum route in which that potential cancels identically),
and solves the toroidal eigenproblem with a Fourier-Galerkin method in
half-density form, on the flat measure.
"""

from .jets import Jet3
from .shapes import (
    ShapeDomainError,
    ShapeError,
    ShapeExpr,
    ShapeSyntaxError,
    UnknownIdentifierError,
    eval_jet2,
    eval_jet3,
    format_expr,
    parse_shape,
)
from .geometry import (
    AxisSingularityError,
    CurvatureSample,
    FocalSurfaceError,
    Frame,
    MetricPatch,
    curvature_potential,
    curvature_sample,
    gaussian_curvature,
    graph_metric_patch,
    mean_curvature,
    rescaling_factor,
    torus_metric_patch,
)
from .operators import (
    BoundaryCompatibilityError,
    MomentumOp,
    OperatorCoeffs,
    cancellation_residual,
    hermitian_momenta,
    hermiticity_residual,
    normal_momentum_sq_coeffs,
    rescaling_potential,
    surface_operator,
)
from .torus import (
    JacobiConvergenceError,
    SpectrumEntry,
    SpectrumResult,
    TorusProblem,
    assemble,
    jacobi_eigh,
    magic_alpha,
    overlap_analytic,
    solve_spectrum,
    table_states,
)

__version__ = "0.1.0"

__all__ = [
    "Jet3",
    "ShapeDomainError",
    "ShapeError",
    "ShapeExpr",
    "ShapeSyntaxError",
    "UnknownIdentifierError",
    "eval_jet2",
    "eval_jet3",
    "format_expr",
    "parse_shape",
    "AxisSingularityError",
    "CurvatureSample",
    "FocalSurfaceError",
    "Frame",
    "MetricPatch",
    "curvature_potential",
    "curvature_sample",
    "gaussian_curvature",
    "graph_metric_patch",
    "mean_curvature",
    "rescaling_factor",
    "torus_metric_patch",
    "BoundaryCompatibilityError",
    "MomentumOp",
    "OperatorCoeffs",
    "cancellation_residual",
    "hermitian_momenta",
    "hermiticity_residual",
    "normal_momentum_sq_coeffs",
    "rescaling_potential",
    "surface_operator",
    "JacobiConvergenceError",
    "SpectrumEntry",
    "SpectrumResult",
    "TorusProblem",
    "assemble",
    "jacobi_eigh",
    "magic_alpha",
    "overlap_analytic",
    "solve_spectrum",
    "table_states",
    "__version__",
]
