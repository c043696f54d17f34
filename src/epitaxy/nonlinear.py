"""The right-hand side lap(exp(-lap h)), evaluated two independent ways.

The exponential route puts y = -lap h on a padded grid, exponentiates
pointwise and takes the Laplacian of the result back in coefficient space.
The series route expands the exponential,

    lap(exp(-lap h)) = -lap^2 h + sum_{j>=2} lap F_j,
    F_j = ((-1)^j / j!) (lap h)^j,

and sums the terms to a fixed or adaptive depth by Horner's rule in
y = -lap h, never calling an exponential.  The two routes serve as mutual
oracles: the exponential nonlinearity is not polynomial, so exact
dealiasing is impossible, and the cross-check (rather than a masking rule)
is the correctness guard for the default padding factor of 2.

Both routes work on half boxes in the one real layout of
``spectral.as_parts``.  In 1-D they share no transform code.  In 2-D they
share one set of DFT matrices, ``spectral.dft_matrices``, built once per
(N, M), but no product code: the series route transforms through
``spectral.synthesize`` and ``analyze``, and the exponential route forms
its own products.  What still guards that set is that the routes evaluate
the exponential differently (a pointwise expm1 against a Horner polynomial,
the stiff part taken off on the grid against in coefficient space), that
the test suite checks the matrices against oracles on numpy's FFT, and
that it checks both engines against symmetries of the equation.

The series route, ``taylor_sum``, sums a whole trajectory in chunks, as the
Picard iteration needs it: one synthesis, J pointwise multiply-accumulates
and one analysis per chunk, instead of J spectral convolutions.  The
exponential route, ``rhs_exponential``, returns the remainder
lap(exp(-lap h)) + lap^2 h that the time stepper integrates, formed on the
grid as expm1(y) - y.  Its grids are tiny (66 points in 1-D at N = 16), so
it runs on real DFT matrices built once per (dim, N, padding)
(``exponential_route``), one small product each way per axis, and no FFT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exceptions import NumericalError
from .norms import wiener_norm
from .semigroup import Trajectory
from .spectral import (
    _waves,
    analyze,
    as_parts,
    dft_matrices,
    hermitian_k0_parts,
    mode_grids,
    parts_view,
    read_only,
    synthesize,
    tile_parts,
)

#: Adaptive depth resolution refuses to go past this many series terms.
DEPTH_HARD_CAP = 64

#: Pointwise exponentials with arguments above this certainly overflow.
_EXP_ARG_LIMIT = 700.0

#: A batched series sum works on at most this many padded grid points at a
#: time; longer trajectories are summed in chunks.  At 512 KiB per real
#: float64 grid array, a chunk's grid arrays and spectra fit in a 2 MiB
#: per-core L2 cache through the Horner sweep and the transforms, instead of
#: streaming through memory once per pass.  On a 2-core Xeon, a 2-D sum of
#: 101 nodes at N = 16 took 11-16 ms, against 18-23 ms at 1 << 20 (1 << 15
#: and 1 << 17 were alike).  Each node's sum depends on that node only, so
#: the chunking leaves every value unchanged.
_BATCH_GRID_POINTS = 1 << 16


@dataclass(frozen=True)
class TaylorDepth:
    """Series depth: a fixed highest term, or adaptive with a tail tolerance.

    ``max_j=1`` is the linear-only sentinel: the j >= 2 sum is empty, which
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
    def adaptive(cls, tail_tol: float = 1e-12) -> "TaylorDepth":
        return cls(tail_tol=tail_tol)

    def resolve(self, norms: np.ndarray) -> np.ndarray:
        """Per-node depths J_i (int64) whose remainder bound r_i^(J+1)/(J+1)! is below tolerance.

        ``norms`` holds one r_i per node, the Wiener norm of lap(h) at that
        node; the bound is the standard Taylor remainder of exp combined with
        the algebra property of the norm.  Every node runs the recurrence
        tail = r^3 / 6, then tail *= r / (j + 1), until its tail is below the
        tolerance; ``float_power`` is the C library's ``pow``, as Python's
        ``r**3`` is (numpy's ``power`` may differ from it in the last bit).
        """
        r = np.asarray(norms, dtype=float)
        if self.max_j is not None:
            return np.full(r.shape, self.max_j, dtype=np.int64)
        depths = np.full(r.shape, 2, dtype=np.int64)
        tail = np.float_power(r, 3) / 6.0  # r^(J+1) / (J+1)! at J = 2
        active = np.flatnonzero(tail >= self.tail_tol)
        j = 2
        while active.size:
            j += 1
            if j > DEPTH_HARD_CAP:
                raise NumericalError(
                    f"adaptive depth exceeded the cap of {DEPTH_HARD_CAP} terms; "
                    f"achieved tail bound {tail[active[0]]:.3e} >= tolerance {self.tail_tol:g}"
                )
            depths[active] = j
            tail[active] *= r[active] / (j + 1)
            active = active[tail[active] >= self.tail_tol]
        return depths


def padded_grid_size(truncation: int, padding_factor: float) -> int:
    """Grid resolution ceil(padding * (2N+1)), never below the 2N+1 floor."""
    if padding_factor < 1.0:
        raise ValueError(f"padding factor must be >= 1, got {padding_factor}")
    return max(math.ceil(padding_factor * (2 * truncation + 1)), 2 * truncation + 1)


def series_chunk_nodes(dim: int, m: int) -> int:
    """Nodes the series sum takes per batch on the M^dim grid: at least one."""
    return max(1, _BATCH_GRID_POINTS // m**dim)


def _series_batch(half: np.ndarray, depths: np.ndarray, m: int) -> np.ndarray:
    """sum_{j=2}^{J_i} F_j on the M^dim grid for node i of a complex half-box
    batch, returned in the layout of ``spectral.as_parts``.

    The batch is taken to the real layout and scaled by |k|^2 into
    y = -lap h on the grid.  One Horner sweep runs from the batch's top
    depth down to j = 2: acc = c_j + y * acc, then acc * y^2.  The
    coefficient column c_j is 1/j! for the nodes with j <= J_i and 0 for the
    others, so a node holds an exact 0 until its own depth is reached and
    each node's sum is its own depth-J_i polynomial.  The sum's zero mode,
    which the Laplacian applied on top annihilates, is set to 0.
    """
    dim, truncation = half.ndim - 1, half.shape[-1] - 1
    y = synthesize(tile_parts(mode_grids(dim, truncation).ksq) * as_parts(half), m)
    column = depths.reshape((-1,) + (1,) * dim)
    acc = np.zeros_like(y)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(int(depths.max()), 1, -1):
            acc *= y
            acc += np.where(column >= j, 1.0 / math.factorial(j), 0.0)
        acc *= y
        acc *= y
    bad = ~np.isfinite(acc).reshape(acc.shape[0], -1).all(axis=1)
    if np.any(bad):
        raise NumericalError(
            f"series sum overflowed at depth {int(depths[np.argmax(bad)])}: "
            f"max |lap h| on the grid is {float(np.max(np.abs(y[np.argmax(bad)]))):.6g}"
        )
    del y  # the analysis's spectra take its place
    series = analyze(acc, truncation)
    del acc  # numpy scales a strided view of the 1-D spectrum through a copy
    series *= 1.0 / m**dim  # by the reciprocal, as numpy's complex division by a real does
    hermitian_k0_parts(series)
    return series


def taylor_sum(
    traj: Trajectory,
    depth: TaylorDepth,
    padding_factor: float = 2.0,
    out: np.ndarray | None = None,
) -> Trajectory:
    """sum_{j=2}^{J} F_j at every node of ``traj``, mean-zero.

    Each chunk of ``series_chunk_nodes`` nodes takes one transform pair,
    with J resolved per node from that node's norm and one Horner sweep over
    those per-node depths, and is written into the complex output through
    ``parts_view``.  With the linear-only sentinel the sum is empty and zero
    is returned.  A non-finite sum raises NumericalError.

    The sum is written into ``out``, a C-contiguous complex array of the
    input's shape that must not share the input's memory; every entry is
    written, zeros included, so stale contents do not show.  The result then
    holds a read-only view of ``out``, and ``out`` stays writeable.  Without
    ``out`` a new array is allocated.
    """
    depths = depth.resolve(wiener_norm(traj, 2))
    sums = np.empty_like(traj.coeffs) if out is None else out
    if depths.max() < 2:
        sums[...] = 0.0
    else:
        m = padded_grid_size(traj.truncation, padding_factor)
        chunk = series_chunk_nodes(traj.dim, m)
        nodes = parts_view(sums)
        for lo in range(0, len(sums), chunk):
            hi = lo + chunk
            batch = nodes[lo:hi]
            batch[...] = _series_batch(traj.coeffs[lo:hi], depths[lo:hi], m).reshape(batch.shape)
    # every k_last = 0 line is exact, and _series_batch refused a non-finite sum
    return Trajectory._trusted(traj.times, sums if out is None else sums.view())


def route_floats(dim: int, truncation: int, m: int) -> int:
    """The float64 numbers the DFT matrices of one exponential route hold."""
    return 4 * m * (truncation + 1) + (dim - 1) * 8 * m * (2 * truncation + 1)


class _ExponentialRoute:
    """The real DFT matrices of ``rhs_exponential`` for one (dim, N, padding).

    In 1-D, ``trail_in`` takes the real and imaginary parts of the N+1
    half-box columns, interleaved as in the layout of ``spectral.as_parts``,
    to the M grid points, summing each k > 0 column with its conjugate
    partner (weight 2, the real part taken), and ``trail_out`` takes M grid
    points back to those parts; both are built from exp(-i k x), with the
    multipliers folded in: |k|^2 on the way in, which gives -lap h on the
    grid, and -|k|^2 / M on the way out, which applies the Laplacian and the
    transform's scale.

    In 2-D |k|^2 does not factor over the axes, so the multipliers
    ``to_grid`` and ``from_grid`` act on the half box, tiled over both parts
    of the layout, and the four matrices are the series sum's own,
    ``spectral.dft_matrices``: one set per (N, M) in memory.  The products
    are real only: with a complex product on the leading axis, paging in the
    complex BLAS kernels too raised a 2-D solve's peak memory by about
    0.2 MiB more.
    """

    __slots__ = ("to_grid", "from_grid", "lead_in", "lead_out", "trail_in", "trail_out")

    def __init__(self, dim: int, truncation: int, padding_factor: float):
        m = padded_grid_size(truncation, padding_factor)
        if dim == 1:
            last = np.arange(truncation + 1)
            weight = np.where(last == 0, 1.0, 2.0)
            waves = _waves(last, m)
            into, back = weight * last**2.0, -(last**2.0) / m
            self.to_grid = self.from_grid = self.lead_in = self.lead_out = None
            self.trail_in = read_only(np.ascontiguousarray((into * waves).view(float).T))
            self.trail_out = read_only((back * waves).view(float))
        else:
            ksq = mode_grids(dim, truncation).ksq
            self.to_grid = read_only(tile_parts(ksq))
            self.from_grid = read_only(tile_parts(-ksq / m**dim))
            self.lead_in, self.lead_out, self.trail_in, self.trail_out = dft_matrices(truncation, m)


@lru_cache(maxsize=None)
def exponential_route(dim: int, truncation: int, padding_factor: float) -> _ExponentialRoute:
    """The DFT matrices of the exponential route for one (dim, N, padding), built once."""
    return _ExponentialRoute(dim, truncation, padding_factor)


def rhs_exponential(parts: np.ndarray, route: _ExponentialRoute) -> np.ndarray:
    """lap(exp(-lap h)) + lap^2 h on a batch of half boxes h in the layout of
    ``spectral.as_parts``, returned in that layout.

    The stiff linear part that the integrating factor takes exactly is
    subtracted on the grid: with y = -lap h there, the remainder is
    lap(exp(y) - y), and the constant 1 of exp(y) is annihilated by the
    Laplacian, so the grid values are expm1(y) - y.  One product (two in
    2-D) takes the boxes to the padded grid of ``route`` and one (two)
    takes them back; no FFT runs.  A zero box gives exact zeros.
    NumericalError if the pointwise exponential would overflow.
    """
    if route.lead_in is None:
        rows = parts
    else:
        rows = (route.lead_in @ (route.to_grid * parts)).reshape(-1, route.trail_in.shape[0])
    # ``dot`` makes the BLAS call of ``@`` (the same bits) with about 1 µs less dispatch
    y = rows.dot(route.trail_in)
    if y.max() > _EXP_ARG_LIMIT:
        raise NumericalError(
            f"pointwise exponential would overflow: max |lap h| on the grid is "
            f"{float(np.max(np.abs(y))):.6g}"
        )
    grid = np.expm1(y)
    grid -= y
    out = grid.dot(route.trail_out)
    if route.lead_out is None:
        return out
    out = route.lead_out @ out.reshape(parts.shape[0], -1, parts.shape[-1])
    out *= route.from_grid
    return out
