"""Single-field oracles for the batched right-hand side.

The package sums the series route over whole trajectories (``taylor_sum``).
These are the definitions it is checked against, one field at a time: the
series term F_j on the padded grid and the series route to the right-hand
side.  The exponential route's single-field form, ``rhs_exponential``, stays
in the package.
"""

import math

from epitaxy.nonlinear import padded_grid_size, taylor_sum
from epitaxy.semigroup import Trajectory
from epitaxy.spectral import FourierField, analyze_batch, mode_grids, synthesize_batch


def taylor_term(field, j, padding_factor=2.0):
    """The series term F_j = ((-1)^j / j!) (lap h)^j; (mean-zero field, mean).

    The mean is the term's zero mode, which the Laplacian applied on top
    annihilates.
    """
    dim, n = field.dim, field.truncation
    m = padded_grid_size(n, padding_factor)
    lap = synthesize_batch(-mode_grids(dim, n).ksq * field.coeffs[None], m)
    coeffs, means = analyze_batch(((-1.0) ** j / math.factorial(j)) * lap**j, n)
    return FourierField(dim, n, coeffs[0]), float(means[0])


def series_sum(field, depth, padding_factor=2.0):
    """``taylor_sum`` of the one-node trajectory holding ``field``; (field, mean)."""
    series, means = taylor_sum(Trajectory([0.0], field.coeffs[None]), depth, padding_factor)
    return FourierField(field.dim, field.truncation, series.coeffs[0]), float(means[0])


def rhs_series(field, depth, padding_factor=2.0):
    """-|k|^4 h - |k|^2 sum_{j=2}^{J} F_j, the series route to the right-hand side."""
    grids = mode_grids(field.dim, field.truncation)
    series, _mean = series_sum(field, depth, padding_factor)
    return FourierField(
        field.dim, field.truncation, -grids.k4 * field.coeffs - grids.ksq * series.coeffs
    )
