"""Oracles that the package is checked against.

The package sums the series route over whole trajectories (``taylor_sum``).
These are the definitions it is checked against, one field at a time: the
series term F_j on the padded grid, the series route to the right-hand
side and the scalar loop that resolves one node's series depth.  The
exponential route's single-field form, ``rhs_exponential``, stays in the
package.  ``duhamel_map`` is one application of the fixed-point map,
which ``solve_picard`` iterates on plain arrays.  ``duhamel_scan`` is the
Duhamel operator with its node-by-node scan written as plain indexing, the
exact (bit for bit) oracle of ``duhamel_Iplus``.
"""

import math

import numpy as np

from epitaxy.exceptions import NumericalError
from epitaxy.nonlinear import DEPTH_HARD_CAP, padded_grid_size, taylor_sum
from epitaxy.semigroup import Trajectory, duhamel_Iplus, exp_moment_weights, linear_trajectory
from epitaxy.spectral import FourierField, analyze, mode_grids, synthesize


def resolve_depth(depth, r):
    """One node's depth J, for ``TaylorDepth.resolve``: r^(J+1)/(J+1)! below tolerance."""
    if depth.max_j is not None:
        return depth.max_j
    j = 2
    tail = r**3 / 6.0  # r^(J+1) / (J+1)! at J = 2
    while tail >= depth.tail_tol:
        j += 1
        if j > DEPTH_HARD_CAP:
            raise NumericalError(
                f"adaptive depth exceeded the cap of {DEPTH_HARD_CAP} terms; "
                f"achieved tail bound {tail:.3e} >= tolerance {depth.tail_tol:g}"
            )
        tail *= r / (j + 1)
    return j


def taylor_term(field, j, padding_factor=2.0):
    """The series term F_j = ((-1)^j / j!) (lap h)^j; (mean-zero field, mean).

    The mean is the term's zero mode, which the Laplacian applied on top
    annihilates.
    """
    dim, n = field.dim, field.truncation
    m = padded_grid_size(n, padding_factor)
    lap = synthesize(FourierField(dim, n, -mode_grids(dim, n).ksq * field.coeffs), m)
    return analyze(((-1.0) ** j / math.factorial(j)) * lap**j, n)


def series_sum(field, depth, padding_factor=2.0):
    """``taylor_sum`` of the one-node trajectory holding ``field``; (field, mean)."""
    n = field.truncation
    one_node = Trajectory([0.0], field.coeffs[None, ..., n:])
    series, means = taylor_sum(one_node, depth, padding_factor)
    return series.fields[0], float(means[0])


def rhs_series(field, depth, padding_factor=2.0):
    """-|k|^4 h - |k|^2 sum_{j=2}^{J} F_j, the series route to the right-hand side."""
    grids = mode_grids(field.dim, field.truncation)
    series, _mean = series_sum(field, depth, padding_factor)
    return FourierField(
        field.dim, field.truncation, -grids.k4 * field.coeffs - grids.ksq * series.coeffs
    )


def duhamel_map(h0, h, depth, padding_factor=2.0):
    """T(h) = exp(-lap^2 t) h0 + I+ sum_{j>=2} F_j(h), one application of the map."""
    if h.dim != h0.dim or h.truncation != h0.truncation:
        raise ValueError("trajectory nodes must share dim and truncation with h0")
    series, _means = taylor_sum(h, depth, padding_factor)
    linear = linear_trajectory(h0, h.times).coeffs
    return Trajectory(h.times, linear + duhamel_Iplus(series).coeffs)


def duhamel_scan(traj):
    """``duhamel_Iplus(traj).coeffs`` with the scan indexed by node: the same operations."""
    grids = mode_grids(traj.dim, traj.truncation, half=True)
    stacked = traj.coeffs
    steps = np.diff(traj.times)
    distinct, which = np.unique(steps, return_inverse=True)
    z = distinct.reshape((-1,) + (1,) * traj.dim) * grids.k4
    wa, wb = exp_moment_weights(z)
    decay = np.exp(-z)
    acc = np.empty_like(stacked)
    acc[0] = 0.0
    np.multiply(stacked[1:], wb[which], out=acc[1:])
    acc[1:] += stacked[:-1] * wa[which]
    acc[1:] *= steps.reshape((-1,) + (1,) * traj.dim)
    for i, w in enumerate(which):
        acc[i + 1] += decay[w] * acc[i]
    acc *= -grids.ksq
    acc[0] = 0.0
    acc[(slice(None),) + (traj.truncation,) * (traj.dim - 1) + (0,)] = 0.0
    return acc
