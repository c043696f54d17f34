"""Pseudospectral solver and certificate toolkit for h_t = lap(exp(-lap h)) on T^n."""

from .exceptions import CertificateError, NumericalError, PicardConvergenceError
from .nonlinear import (
    TaylorDepth,
    rhs_exponential,
    rhs_taylor,
    taylor_sum,
    taylor_term_Fj,
)
from .norms import (
    Certificate,
    RadiusFit,
    WeightParams,
    analyticity_radius,
    certify,
    max_alpha,
    spacetime_norm,
    wiener_norm,
)
from .picard import PicardDiagnostics, duhamel_map, solve_picard
from .semigroup import (
    ProbeReport,
    Trajectory,
    duhamel_Iplus,
    linear_trajectory,
    operator_bound_probe,
    propagate,
    stable_expm_moments,
)
from .spectral import (
    FourierField,
    GridField,
    analyze,
    bilaplacian_neg,
    laplacian,
    multiply,
    synthesize,
)
from .stepper import SolverConfig, nonlinear_remainder, solve_timestep, step

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "CertificateError",
    "FourierField",
    "GridField",
    "NumericalError",
    "PicardConvergenceError",
    "PicardDiagnostics",
    "ProbeReport",
    "RadiusFit",
    "SolverConfig",
    "TaylorDepth",
    "Trajectory",
    "WeightParams",
    "analyze",
    "analyticity_radius",
    "bilaplacian_neg",
    "certify",
    "duhamel_Iplus",
    "duhamel_map",
    "laplacian",
    "linear_trajectory",
    "max_alpha",
    "multiply",
    "nonlinear_remainder",
    "operator_bound_probe",
    "propagate",
    "rhs_exponential",
    "rhs_taylor",
    "solve_picard",
    "solve_timestep",
    "spacetime_norm",
    "stable_expm_moments",
    "step",
    "synthesize",
    "taylor_sum",
    "taylor_term_Fj",
    "wiener_norm",
]
