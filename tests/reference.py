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

The package holds every field as its k_last >= 0 half box.  ``full_box``
rebuilds the whole (2N+1)^dim box, ``whole_ksq`` is its |k|^2, and
``random_decay_whole`` is the
``random-decay`` preset's whole-box draw as it was first defined.  The
field helpers ``zero``, ``coeff``, ``nonzero_modes``, ``max_abs``, ``add``,
``sub`` and ``neg`` are what the tests read and combine fields with.
"""

import math

import numpy as np

from epitaxy.exceptions import NumericalError
from epitaxy.nonlinear import DEPTH_HARD_CAP, padded_grid_size, taylor_sum
from epitaxy.semigroup import Trajectory, duhamel_Iplus, exp_moment_weights, linear_trajectory
from epitaxy.spectral import FourierField, analyze, hermitian_k0_line, mode_grids, synthesize


def full_box(half):
    """The ``(nodes,) + (2N+1,)*dim`` batch whose k_last >= 0 half is ``half``.

    Every other coefficient is written as conj(coeff(-k)) of the half box
    (see ``hermitian_k0_line`` for the k_last = 0 line), so each box is
    exactly Hermitian with a vanishing zero mode.  Index i is k = i - N.
    """
    dim = half.ndim - 1
    truncation = half.shape[-1] - 1
    out = np.empty(half.shape[:-1] + (2 * truncation + 1,), dtype=complex)
    out[..., truncation:] = half
    hermitian_k0_line(out[..., truncation:])
    flipped = out[(Ellipsis,) + (slice(None, None, -1),) * dim]  # k -> -k
    out[..., :truncation] = np.conj(flipped[..., :truncation])
    return out


def whole_ksq(dim, truncation):
    """|k|^2 over the whole (2N+1)^dim box, index i -> k = i - N along every axis."""
    axis = np.arange(-truncation, truncation + 1, dtype=float)
    if dim == 1:
        return axis**2
    kx, ky = np.meshgrid(axis, axis, indexing="ij")
    return kx**2 + ky**2


def random_decay_whole(truncation, seed, amplitude=0.2, decay=3.0, dim=1):
    """The whole box of ``presets.random_decay``, drawn and normalized as first defined.

    The envelope and the j = 2 norm use the whole box's |k|, and the norm
    is the whole-box sum with unit weights.
    """
    rng = np.random.default_rng(seed)
    n = 2 * truncation + 1
    shape = (n,) * dim
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    ksq = whole_ksq(dim, truncation)
    kmag = np.sqrt(ksq)
    raw *= np.exp(-decay * kmag)
    sl = tuple(slice(None, None, -1) for _ in range(dim))
    coeffs = 0.5 * (raw + np.conj(raw[sl]))
    coeffs[(truncation,) * dim] = 0.0
    pairs = np.broadcast_to(1.0, ksq.shape)
    norm = float(np.sum(pairs * kmag**2 * np.abs(coeffs), axis=tuple(range(-dim, 0))))
    return coeffs * float(amplitude / norm)


def zero(dim, truncation):
    """The zero field."""
    shape = (2 * truncation + 1,) * (dim - 1) + (truncation + 1,)
    return FourierField(dim, truncation, np.zeros(shape, dtype=complex))


def coeff(field, k):
    """Coefficient at mode ``k``, an int (1-d) or a tuple of ``dim`` ints.

    A k with k_last < 0 is read as conj(coeff(-k)) from the half box.
    """
    comps = (int(k),) if isinstance(k, (int, np.integer)) else tuple(int(c) for c in k)
    if len(comps) != field.dim:
        raise ValueError(f"mode {comps} has wrong dimension for dim={field.dim}")
    n = field.truncation
    if any(abs(c) > n for c in comps):
        raise ValueError(f"mode {comps} outside truncation {n}")
    if comps[-1] < 0:
        return complex(np.conj(coeff(field, tuple(-c for c in comps))))
    return complex(field.coeffs[tuple(c + n for c in comps[:-1]) + (comps[-1],)])


def nonzero_modes(field):
    """(components, amplitude) pairs for the nonzero modes of the whole box, lexicographic."""
    whole = full_box(field.coeffs[None])[0]
    return sorted(
        (tuple(int(p) - field.truncation for p in pos), complex(whole[tuple(pos)]))
        for pos in np.argwhere(whole != 0)
    )


def max_abs(field):
    """The largest coefficient modulus; a half box has the whole box's."""
    return float(np.max(np.abs(field.coeffs)))


def _check_compatible(f, g):
    if f.dim != g.dim or f.truncation != g.truncation:
        raise ValueError(
            f"incompatible fields: dim/truncation ({f.dim},{f.truncation}) "
            f"vs ({g.dim},{g.truncation})"
        )


def add(f, g):
    """The field f + g."""
    _check_compatible(f, g)
    return FourierField(f.dim, f.truncation, f.coeffs + g.coeffs)


def sub(f, g):
    """The field f - g."""
    _check_compatible(f, g)
    return FourierField(f.dim, f.truncation, f.coeffs - g.coeffs)


def neg(f):
    """The field -f."""
    return FourierField(f.dim, f.truncation, -f.coeffs)


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
    one_node = Trajectory([0.0], field.coeffs[None])
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
    grids = mode_grids(traj.dim, traj.truncation)
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
