"""The right-hand side lap(exp(-lap h)), evaluated two independent ways.

The exponential route synthesizes lap(h) on a padded grid, exponentiates
pointwise and transforms back.  The series route expands the exponential,

    lap(exp(-lap h)) = -lap^2 h + sum_{j>=2} lap F_j,
    F_j = ((-1)^j / j!) (lap h)^j,

and sums the terms to a fixed or adaptive depth.  The two routes serve as
mutual oracles: the exponential nonlinearity is not polynomial, so exact
dealiasing is impossible, and the cross-check (rather than a masking rule)
is the correctness guard for the default padding factor of 2.

Powers are formed in physical space on the padded grid: one synthesis, J
pointwise multiply-accumulates and one analysis, instead of J spectral
convolutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import NumericalError
from .norms import wiener_norm
from .semigroup import Trajectory
from .spectral import (
    FourierField,
    GridField,
    analyze,
    analyze_batch,
    bilaplacian_neg,
    laplacian,
    mode_grids,
    synthesize,
    synthesize_batch,
)

#: Adaptive depth resolution refuses to go past this many series terms.
DEPTH_HARD_CAP = 64

#: Pointwise exponentials with arguments above this certainly overflow.
_EXP_ARG_LIMIT = 700.0

#: A batched series sum works on at most this many padded grid points at a
#: time (16 MiB per complex array); longer trajectories are summed in chunks.
_BATCH_GRID_POINTS = 1 << 20


@dataclass(frozen=True)
class TaylorDepth:
    """Series depth: a fixed highest term, or adaptive with a tail tolerance.

    ``fixed(1)`` is the linear-only sentinel: the j >= 2 sum is empty, which
    switches the nonlinearity off entirely (used by the time stepper to test
    exact linear integration).
    """

    max_j: int | None = None
    tail_tol: float | None = None

    def __post_init__(self):
        if (self.max_j is None) == (self.tail_tol is None):
            raise ValueError("specify exactly one of max_j and tail_tol")
        if self.max_j is not None:
            if not isinstance(self.max_j, (int, np.integer)) or self.max_j < 1:
                raise ValueError(f"max_j must be an integer >= 1, got {self.max_j}")
            object.__setattr__(self, "max_j", int(self.max_j))
        if self.tail_tol is not None and not (0.0 < self.tail_tol < math.inf):
            raise ValueError(f"tail_tol must be a positive real, got {self.tail_tol}")

    @classmethod
    def fixed(cls, max_j: int) -> "TaylorDepth":
        return cls(max_j=max_j)

    @classmethod
    def adaptive(cls, tail_tol: float = 1e-12) -> "TaylorDepth":
        return cls(tail_tol=tail_tol)

    def resolve(self, r: float) -> int:
        """Depth J such that the remainder bound r^(J+1)/(J+1)! is below tolerance.

        ``r`` is the Wiener norm of lap(h) at the evaluation time; the bound
        is the standard Taylor remainder of exp combined with the algebra
        property of the norm.
        """
        if self.max_j is not None:
            return self.max_j
        j = 2
        tail = r**3 / 6.0  # r^(J+1) / (J+1)! at J = 2
        while tail >= self.tail_tol:
            j += 1
            if j > DEPTH_HARD_CAP:
                raise NumericalError(
                    f"adaptive depth exceeded the cap of {DEPTH_HARD_CAP} terms; "
                    f"achieved tail bound {tail:.3e} >= tolerance {self.tail_tol:g}"
                )
            tail *= r / (j + 1)
        return j


def padded_grid_size(truncation: int, padding_factor: float) -> int:
    """Grid resolution ceil(padding * (2N+1)), never below the 2N+1 floor."""
    if padding_factor < 1.0:
        raise ValueError(f"padding factor must be >= 1, got {padding_factor}")
    return max(math.ceil(padding_factor * (2 * truncation + 1)), 2 * truncation + 1)


def _laplacian_grid(field: FourierField, padding_factor: float) -> np.ndarray:
    m = padded_grid_size(field.truncation, padding_factor)
    return synthesize(laplacian(field), m).samples


def _laplacian_batch(coeffs: np.ndarray) -> np.ndarray:
    """-|k|^2 coeff(k) for every box of a ``(nodes,) + box`` batch, zero mode kept zero."""
    dim = coeffs.ndim - 1
    truncation = (coeffs.shape[1] - 1) // 2
    out = coeffs * -mode_grids(dim, truncation).ksq
    out[(slice(None),) + (truncation,) * dim] = 0.0
    return out


def taylor_term_Fj(
    field: FourierField, j: int, padding_factor: float = 2.0
) -> tuple[FourierField, float]:
    """The series term F_j = ((-1)^j / j!) (lap h)^j.

    Returns the mean-zero coefficient field together with the (generally
    nonzero) mean of the term; the Laplacian that a caller applies on top
    annihilates that mean, so it is reported for diagnostics only.
    """
    if j < 2:
        raise ValueError(f"series terms start at j = 2, got {j}")
    g = _laplacian_grid(field, padding_factor)
    values = ((-1.0) ** j / math.factorial(j)) * g**j
    return analyze(GridField(field.dim, values), field.truncation)


def _series_batch(coeffs: np.ndarray, depths: np.ndarray, m: int):
    """sum_{j=2}^{J_i} F_j on the M^dim grid for node i of a batch; (coeffs, means).

    Every node advances through the same powers, and term j is added only
    where j <= J_i, so each node's sum is exactly its own depth-J_i sum.
    """
    y = -synthesize_batch(_laplacian_batch(coeffs), m)
    term = 0.5 * y * y
    total = term.copy()
    live = depths.reshape((-1,) + (1,) * (coeffs.ndim - 1))
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(3, int(depths.max()) + 1):
            term *= y / j
            np.add(total, term, out=total, where=live >= j)
    bad = ~np.isfinite(total).reshape(total.shape[0], -1).all(axis=1)
    if np.any(bad):
        raise NumericalError(
            f"series sum overflowed at depth {int(depths[np.argmax(bad)])}: "
            f"max |lap h| on the grid is {float(np.max(np.abs(y[np.argmax(bad)]))):.6g}"
        )
    return analyze_batch(total, (coeffs.shape[1] - 1) // 2)


def taylor_sum(h, depth: TaylorDepth, padding_factor: float = 2.0):
    """sum_{j=2}^{J} F_j with J resolved from ``depth``; terms summed ascending.

    ``h`` is a FourierField, giving ``(field, mean)`` like ``taylor_term_Fj``,
    or a Trajectory, giving ``(trajectory, means)`` with one mean per node.
    A trajectory is summed as one batch: one transform pair over all nodes,
    with J resolved per node from that node's norm.  With the linear-only
    sentinel the sum is empty and zero is returned.  A non-finite partial sum
    raises NumericalError.
    """
    single = isinstance(h, FourierField)
    batch = h.coeffs[None] if single else h.coeffs
    norms = np.atleast_1d(wiener_norm(h, 2))
    depths = np.array([depth.resolve(float(r)) for r in norms], dtype=np.int64)
    out = np.zeros_like(batch)
    means = np.zeros(batch.shape[0])
    if depths.max() >= 2:
        m = padded_grid_size(h.truncation, padding_factor)
        chunk = max(1, _BATCH_GRID_POINTS // m**h.dim)
        for lo in range(0, batch.shape[0], chunk):
            hi = lo + chunk
            out[lo:hi], means[lo:hi] = _series_batch(batch[lo:hi], depths[lo:hi], m)
    if single:
        return FourierField(h.dim, h.truncation, out[0]), float(means[0])
    return Trajectory(h.times, out), means


def _rhs_exponential_coeffs(coeffs: np.ndarray, padding_factor: float) -> np.ndarray:
    """Array core of ``rhs_exponential`` on one coefficient box."""
    if not coeffs.any():
        return np.zeros_like(coeffs)  # exp(0) is constant; its Laplacian vanishes exactly
    truncation = (coeffs.shape[0] - 1) // 2
    m = padded_grid_size(truncation, padding_factor)
    g = synthesize_batch(_laplacian_batch(coeffs[None]), m)
    arg_max = float(np.max(-g))
    if arg_max > _EXP_ARG_LIMIT:
        raise NumericalError(
            f"pointwise exponential would overflow: max |lap h| on the grid is "
            f"{float(np.max(np.abs(g))):.6g}"
        )
    transformed, _means = analyze_batch(np.exp(-g), truncation)
    return _laplacian_batch(transformed)[0]


def rhs_exponential(field: FourierField, padding_factor: float = 2.0) -> FourierField:
    """lap(exp(-lap h)) via the pointwise exponential on a padded grid."""
    coeffs = _rhs_exponential_coeffs(field.coeffs, padding_factor)
    return FourierField(field.dim, field.truncation, coeffs)


def rhs_taylor(
    field: FourierField, depth: TaylorDepth, padding_factor: float = 2.0
) -> FourierField:
    """-lap^2 h + sum_{j=2}^{J} lap F_j, the series route to the right-hand side."""
    linear = bilaplacian_neg(field)
    series, _mean = taylor_sum(field, depth, padding_factor)
    return linear + laplacian(series)
