"""Pseudospectral solver and certificate toolkit for h_t = lap(exp(-lap h)) on T^n.

The public names are the batched core that the command line runs: fields and
trajectories, norms and the certificate, the series sum, the Duhamel operator
and its bound probe, the Picard solve and the IF-RK4 cross-check.  A
``Trajectory`` is validated where it enters: built from arrays, read from
JSON or returned by a solver.
"""

from .exceptions import CertificateError, NumericalError, PicardConvergenceError
from .nonlinear import TaylorDepth, taylor_sum
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
from .picard import PicardDiagnostics, solve_picard
from .semigroup import (
    ProbeReport,
    Trajectory,
    duhamel_Iplus,
    duhamel_kernel,
    linear_trajectory,
    operator_bound_probe,
)
from .spectral import FourierField
from .stepper import SolverConfig, solve_timestep

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "CertificateError",
    "FourierField",
    "NumericalError",
    "PicardConvergenceError",
    "PicardDiagnostics",
    "ProbeReport",
    "RadiusFit",
    "SolverConfig",
    "TaylorDepth",
    "Trajectory",
    "WeightParams",
    "analyticity_radius",
    "certify",
    "duhamel_Iplus",
    "duhamel_kernel",
    "linear_trajectory",
    "max_alpha",
    "operator_bound_probe",
    "solve_picard",
    "solve_timestep",
    "spacetime_norm",
    "taylor_sum",
    "wiener_norm",
]
