"""Quantum mechanics of a particle confined to a curved surface of revolution.

The package builds near-surface metric and curvature data for surfaces of
revolution (including the torus), constructs the two natural surface
Hamiltonians (Laplacian route with its attractive curvature potential, and
the Hermitian-momentum route in which that potential cancels identically),
and solves the toroidal eigenproblem with a Fourier-Galerkin method in
half-density form, on the flat measure.

The namespace is lazy (PEP 562): `import curvedq` loads no submodule and so
no numpy; each public name, and each submodule, is imported from its home
module on first use.  So the command line (curvedq.cli) can choose the BLAS
thread count before numpy loads.
"""

import importlib

__version__ = "0.1.0"

# the public names of each submodule, in the order of __all__
_EXPORTS = {
    "jets": ("Jet3",),
    "shapes": (
        "ShapeDomainError", "ShapeError", "ShapeExpr", "ShapeSyntaxError", "UnknownIdentifierError",
        "eval_jet2", "eval_jet3", "format_expr", "parse_shape",
    ),
    "geometry": (
        "AxisSingularityError", "CurvatureSample", "FocalSurfaceError", "Frame", "MetricPatch",
        "curvature_potential", "curvature_sample", "gaussian_curvature", "graph_metric_patch",
        "mean_curvature", "rescaling_factor", "torus_metric_patch",
    ),
    "operators": (
        "BoundaryCompatibilityError", "MomentumOp", "OperatorCoeffs", "cancellation_residual",
        "hermitian_momenta", "hermiticity_residual", "normal_momentum_sq_coeffs",
        "rescaling_potential", "surface_operator",
    ),
    "torus": (
        "SpectrumEntry", "SpectrumResult", "TorusProblem", "assemble", "magic_alpha", "solve_spectrum",
        "table_states",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")  # which binds it here
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_HOME})
