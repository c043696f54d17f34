"""Trajectories, the linear flow exp(-lap^2 t) and the Duhamel integral operator.

Per mode the linear flow is the scalar factor exp(-|k|^4 t), and
``linear_trajectory`` evaluates it on a time grid.  The Duhamel operator
gains two derivatives,

    (I+ f)(t, k) = -|k|^2 * integral_0^t exp(-|k|^4 (t - s)) f(s, k) ds,

and on the weighted spacetime spaces its norm from weight j = 0 into weight
j = 2 is bounded by 1 / (1 - alpha) for alpha in (0, 1); the per-mode bound
is 1 / (1 - alpha / |k|^3), largest at |k| = 1.  ``operator_bound_probe``
measures this ratio numerically for a tuple of alphas: alpha enters only the
norms, so one Duhamel image serves them all.  It works on the trajectory's
support, the half-box entries nonzero at some node: the Duhamel recurrence
and the norms' tables run on those columns alone, and each norm is summed
over the half box in its order, so it keeps the bits of ``spacetime_norm``.

A trajectory is a time grid plus one complex array of k_last >= 0 half
boxes, shape (nodes,) + (2N+1,)*(dim-1) + (N+1,), piecewise-linear in time
per mode, validated when built (``check_half``).  Its JSON form lists the
written modes once, beside one float64 table array of their real and
imaginary parts per node; ``cli`` stores that array in a ``.npy`` file.
The Duhamel operator acts on the whole array; its result skips the checks
(``_trusted``).
The Duhamel integral of the interpolant is evaluated in closed form on each
subinterval (exponential moments of a linear function) and accumulated with
the recurrence g(t_{i+1}) = exp(-|k|^4 dt) g(t_i) + local, so the cost is
linear in the number of nodes.  One function, ``_duhamel_scan``, runs it,
for the whole box and for a probe's support.  The weights depend on the
grid and the box alone: ``duhamel_kernel`` makes them once, for a caller to
keep while it needs them (a Picard solve, a probe run, whose kernel is
built at its largest truncation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .norms import WeightParams, _log_amplitudes, _peak_norm, _weighted_peak
from .spectral import (
    FourierField,
    block_rows,
    box_header,
    check_half,
    coeffs_from_packed,
    hermitian_k0_line,
    mode_grids,
    packed_modes,
    read_only,
    sealed,
)


#: The smallest normal float; the linear flow holds no part below it.
_TINY = np.finfo(float).tiny


@dataclass(frozen=True, eq=False, init=False)
class Trajectory:
    """A time grid with one half box per node, piecewise-linear in t per mode.

    Attributes:
        times: strictly increasing nodes starting at exactly t = 0
        coeffs: complex half boxes, (nodes,) + (2N+1,)*(dim-1) + (N+1,); immutable
    """

    times: np.ndarray
    coeffs: np.ndarray

    def __init__(self, times, coeffs):
        """``coeffs`` holds one half box per time node."""
        times = sealed(times, float)
        if times.ndim != 1 or times.size == 0:
            raise ValueError("times must be a nonempty 1-d grid")
        coeffs = sealed(coeffs, complex)
        nodes = coeffs.shape[0] if coeffs.ndim else 0
        if times.size != nodes:
            raise ValueError(f"{times.size} times but {nodes} fields")
        if not np.all(np.isfinite(times)):
            raise ValueError("times must be finite")
        if times[0] != 0.0:
            raise ValueError(f"first node must sit at exactly t = 0, got {times[0]}")
        if times.size > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("times must be strictly increasing")
        check_half(coeffs)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def _trusted(cls, times: np.ndarray, coeffs: np.ndarray) -> "Trajectory":
        """Read-only, unchecked: for the series sum, Duhamel image and Picard iterates only."""
        traj = object.__new__(cls)
        object.__setattr__(traj, "times", read_only(times))
        object.__setattr__(traj, "coeffs", read_only(coeffs))
        return traj

    @property
    def dim(self) -> int:
        return self.coeffs.ndim - 1

    @property
    def truncation(self) -> int:
        return self.coeffs.shape[-1] - 1

    def to_json_dict(self) -> dict:
        """JSON form with an array: {"dim", "truncation", "times", "modes", "tables"}.

        ``modes`` and the float64 ``tables`` array are those of ``packed_modes``.
        """
        modes, tables = packed_modes(self.coeffs)
        return {
            "dim": self.dim,
            "truncation": self.truncation,
            "times": self.times.tolist(),
            "modes": modes,
            "tables": tables,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Trajectory":
        """Inverse of ``to_json_dict``; ``tables`` must be the float64 array."""
        dim, truncation = box_header(data)
        times = data["times"]
        # a string such as "0.5" or a bool is refused, never converted
        if not isinstance(times, list) or not all(type(t) in (int, float) for t in times):
            raise ValueError("times must be a list of JSON numbers")
        times = read_only(np.array(times, dtype=float))
        return cls(
            times, coeffs_from_packed(dim, truncation, times.size, data["modes"], data["tables"])
        )


def linear_trajectory(h0: FourierField, times) -> Trajectory:
    """Trajectory whose node i holds the linear flow of ``h0`` at times[i].

    Real and imaginary parts below the smallest normal float are zero: the
    flow has decayed past the float range there, and a subnormal operand
    slows the arithmetic it enters (the series sum of a 2-D flow with 1% of
    its parts subnormal ran twice as long).  They are flushed in row blocks
    of ``spectral.block_rows`` nodes.
    """
    times = np.ascontiguousarray(times, dtype=float)
    k4 = mode_grids(h0.dim, h0.truncation).k4
    column = times.reshape((-1,) + (1,) * h0.dim)
    flow = h0.coeffs * np.exp(-k4 * column)
    parts = flow.view(float).reshape(len(times), -1)
    rows = block_rows(parts)
    for lo in range(0, len(parts), rows):
        block = parts[lo : lo + rows]
        block[np.abs(block) < _TINY] = 0.0
    return Trajectory(times, read_only(flow))


# -- exponential moments of a linear function ---------------------------------
#
# The interval integral of exp(-z(1-u)) against the linear interpolant
# f0 (1-u) + f1 u splits into the two nonnegative kernel weights
#   wa(z) = (1 - (z+1) exp(-z)) / z^2    -> weight of the left value f0
#   wb(z) = (z - 1 + exp(-z)) / z^2      -> weight of the right value f1
# with limits 1/2 at z = 0.  Each is evaluated from its own alternating
# series below z = 1 and from the closed form above, so no catastrophic
# cancellation occurs at either end (in particular wa is never formed as a
# difference of the raw exponential moments, which agree to O(1/z) for
# large z).

_SERIES_TERMS = 22
_WA_COEFFS = tuple((m + 1.0) / math.factorial(m + 2) for m in range(_SERIES_TERMS))
_WB_COEFFS = tuple(1.0 / math.factorial(m + 2) for m in range(_SERIES_TERMS))


def exp_moment_weights(z):
    """Cancellation-safe kernel weights (wa, wb) for scalar or array z >= 0.

    With z = lam dt, the interval integral of exp(-lam (dt - s)) against the
    linear interpolant of f0 and f1 is dt (f0 wa + f1 wb), to better than
    1e-14 relative over z in [1e-8, 1e3].
    """
    z = np.asarray(z, dtype=float)
    small = z < 1.0
    zs = np.where(small, z, 0.0)
    wa_series = np.full_like(zs, _WA_COEFFS[-1])
    wb_series = np.full_like(zs, _WB_COEFFS[-1])
    for m in range(_SERIES_TERMS - 2, -1, -1):
        wa_series = _WA_COEFFS[m] - zs * wa_series
        wb_series = _WB_COEFFS[m] - zs * wb_series
    zl = np.where(small, 1.0, z)
    em = np.exp(-zl)
    zsq = zl * zl
    wa_closed = (1.0 - (zl + 1.0) * em) / zsq
    wb_closed = (zl - 1.0 + em) / zsq
    return np.where(small, wa_series, wa_closed), np.where(small, wb_series, wb_closed)


class DuhamelKernel:
    """The Duhamel operator's data on one time grid and half box: the grid, its
    steps, each interval's index among the sorted distinct steps, and per
    distinct step the weights ``wa``, ``wb`` and exp(-|k|^4 dt) as a complex
    half box."""

    __slots__ = ("times", "steps", "which", "wa", "wb", "decay_rows")

    def __init__(self, times, steps, which, wa, wb, decay_rows):
        self.times, self.steps, self.which = times, steps, which
        self.wa, self.wb, self.decay_rows = wa, wb, decay_rows

    def on_grid(self, times) -> bool:
        """Whether ``times`` is the kernel's grid, in its array or in another."""
        return self.times is times or np.array_equal(self.times, times)


def duhamel_kernel(times, dim: int, truncation: int) -> DuhamelKernel:
    """The Duhamel operator's data on the grid ``times`` and the half box of
    ``truncation``, once per distinct step (``linspace`` makes a few, differing
    in the last bits): 16 bytes a node, 32 per half-box entry and step."""
    times = sealed(times, float)
    grids = mode_grids(dim, truncation)
    steps = np.diff(times)
    # distinct step sizes, sorted, and each interval's index among them
    # (np.unique would do, but its first call imports numpy.ma, +1.7 MiB RSS)
    ordered = np.sort(steps)
    first = np.ones(ordered.size, dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    distinct = ordered[first]
    z = distinct.reshape((-1,) + (1,) * dim) * grids.k4
    wa, wb = exp_moment_weights(z)
    # cast once, not at every node: numpy multiplies a real row into a complex
    # one by the same complex loop, so the products keep their bits
    decay_rows = tuple(np.exp(-z).astype(complex))
    return DuhamelKernel(times, steps, np.searchsorted(distinct, steps), wa, wb, decay_rows)


def _duhamel_scan(stacked, acc, kernel, wa, wb, decay_rows, ksq) -> None:
    """Write into ``acc`` the Duhamel image of the nodes ``stacked``: the one
    accumulation of the operator, for the whole half box (``duhamel_Iplus``)
    or for some of its entries (``operator_bound_probe``).

    ``stacked`` and ``acc`` are (nodes,) + a layout of entries, which ``wa``,
    ``wb`` (one row per distinct step of ``kernel``), each of ``decay_rows``
    and ``ksq`` share; ``acc`` may be ``stacked`` itself.  Every operation is
    entry by entry, so an entry's bytes do not depend on the layout.
    """
    which = kernel.which
    column = kernel.steps.reshape((-1,) + (1,) * (stacked.ndim - 1))
    # acc[i + 1] starts as interval i's local term f_i wa + f_{i+1} wb, times
    # its step; the f_i wa of a block is formed before the block's rows of
    # acc are written, since acc may be the input
    rows = block_rows(stacked)
    for hi in range(len(stacked), 1, -rows):
        lo = max(1, hi - rows)
        intervals = which[lo - 1 : hi - 1]
        left = stacked[lo - 1 : hi - 1] * wa[intervals]
        np.multiply(stacked[lo:hi], wb[intervals], out=acc[lo:hi])
        acc[lo:hi] += left
        acc[lo:hi] *= column[lo - 1 : hi - 1]
    acc[0] = 0.0
    # acc[i + 1] then absorbs the decayed acc[i]
    nodes = iter(acc)  # one view at a time, no list of every row
    prev = next(nodes)
    for row, w in zip(nodes, which.tolist()):
        row += decay_rows[w] * prev
        prev = row
    acc *= -ksq
    acc[0] = 0.0


def duhamel_Iplus(
    traj: Trajectory, out: np.ndarray | None = None, kernel: DuhamelKernel | None = None
) -> Trajectory:
    """Apply the derivative-gaining Duhamel operator to a trajectory.

    Node i of the result holds, per mode k,

        g(t_i, k) = -|k|^2 integral_0^{t_i} exp(-|k|^4 (t_i - s)) f(s, k) ds

    with f the piecewise-linear interpolant of the input nodes.  Each
    subinterval is integrated in closed form, so the only discretization
    error is the linear-in-time representation of f itself.  The weights
    come from ``kernel`` (``duhamel_kernel``, made once per grid and box), or
    are made for this call; a kernel of another grid or box is refused
    (ValueError).  The intervals' local terms are formed in row blocks of
    ``spectral.block_rows`` nodes, with the weights gathered per block; only
    the accumulation runs node by node, over row views taken in turn.

    The image is written into ``out``, a C-contiguous complex array of the
    input's shape, which may be the input's own memory: the blocks run from
    the last node down, so each reads its node below before that node is
    overwritten.  The result then holds a read-only view of ``out``, and
    ``out`` stays writeable.  Without ``out`` a new array is allocated.  The
    bytes do not depend on ``out``, the blocks or the kernel's origin.
    """
    if kernel is None:
        kernel = duhamel_kernel(traj.times, traj.dim, traj.truncation)
    elif kernel.wa.shape[1:] != traj.coeffs.shape[1:] or not kernel.on_grid(traj.times):
        raise ValueError("the Duhamel kernel was built for another time grid or box")
    acc = np.empty_like(traj.coeffs) if out is None else out
    ksq = mode_grids(traj.dim, traj.truncation).ksq
    _duhamel_scan(traj.coeffs, acc, kernel, kernel.wa, kernel.wb, kernel.decay_rows, ksq)
    acc[(slice(None),) + (traj.truncation,) * (traj.dim - 1) + (0,)] = 0.0
    # real multipliers that depend on |k| only keep a valid input valid
    return Trajectory._trusted(traj.times, acc if out is None else acc.view())


def _support_image(columns, support, box, kernel: DuhamelKernel) -> None:
    """Overwrite ``columns``, a trajectory's (nodes, entries) of the flat
    half-box indices ``support`` in its half box ``box``, with their Duhamel
    image, from ``kernel``: built on its grid, for its box or a larger one."""
    # the support's entries in the kernel's box, centred on the same k = 0
    index = np.unravel_index(support, box)
    shift = kernel.wa.shape[-1] - box[-1]
    index = tuple(i + shift for i in index[:-1]) + index[-1:]
    at = np.ravel_multi_index(index, kernel.wa.shape[1:])
    wa, wb = (w.reshape(len(w), -1).take(at, axis=1) for w in (kernel.wa, kernel.wb))
    decay_rows = tuple(row.reshape(-1).take(at) for row in kernel.decay_rows)
    ksq = mode_grids(len(box), box[-1] - 1).ksq.reshape(-1)[support]
    _duhamel_scan(columns, columns, kernel, wa, wb, decay_rows, ksq)


#: A probe trajectory carries 1 to _PROBE_MAX_MODES modes, each decaying at a
#: rate drawn from [0, _PROBE_MAX_DECAY].
_PROBE_MAX_MODES = 5
_PROBE_MAX_DECAY = 8.0


def random_probe_trajectory(
    rng: np.random.Generator, dim: int, truncation: int, times
) -> Trajectory:
    """Random mode support with random exponentially decaying profiles.

    Feeds the operator-bound probe: a handful of modes drawn from the box,
    each carrying a complex Gaussian amplitude and its own decay rate in
    [0, _PROBE_MAX_DECAY].  Decay rates are kept moderate relative to the
    grid spacing so the piecewise-linear representation stays faithful.  It
    skips validation: the zero mode is never drawn, and ``hermitian_k0_line``
    makes the k_last = 0 line exact.
    """
    times = sealed(times, float)
    n = 2 * truncation + 1
    half = np.zeros((times.size,) + (n,) * (dim - 1) + (truncation + 1,), dtype=complex)
    n_modes = int(rng.integers(1, _PROBE_MAX_MODES + 1))
    count = 0
    while count < n_modes:
        comps = tuple(int(c) for c in rng.integers(-truncation, truncation + 1, size=dim))
        if all(c == 0 for c in comps):
            continue
        count += 1
        amp = complex(rng.standard_normal(), rng.standard_normal())
        gamma = float(rng.uniform(0.0, _PROBE_MAX_DECAY))
        profile = np.exp(-gamma * times)
        if comps[-1] < 0 or (comps[-1] == 0 and comps[0] < 0):  # -k is the half box's
            comps, amp = tuple(-c for c in comps), np.conj(amp)
        idx = tuple(c + truncation for c in comps[:-1]) + (comps[-1],)
        half[(slice(None),) + idx] += amp * profile
    hermitian_k0_line(half)
    return Trajectory._trusted(times, half)


@dataclass(frozen=True)
class ProbeReport:
    """Measured Duhamel operator-norm ratio against the certified bound."""

    ratio: float
    bound: float
    passed: bool


def operator_bound_probe(
    traj: Trajectory, alphas, kernel: DuhamelKernel | None = None
) -> tuple[ProbeReport, ...]:
    """Measure |I+ f|_{alpha,2} / |f|_{alpha,0} against 1 / (1 - alpha), one report per alpha.

    The probe works on the trajectory's support, the half-box entries that
    are nonzero at some node: off it the input and its Duhamel image vanish.
    The recurrence runs on those columns alone, with the kernel's weights
    gathered there, and so do the log-amplitude tables and their weighted
    peaks.  The image does not depend on alpha: it is made once, in the
    input's gathered columns once every denominator is taken, and a zero
    trajectory is refused before it.  Each norm's peaks are put back into a
    half box of -inf and summed in half-box order, so every ratio has the
    bits of the two ``spacetime_norm`` calls it stands for.  ``kernel``, made
    once per grid by ``duhamel_kernel`` at this truncation or a larger one,
    is indexed at the support's modes; without it one is made for this call.
    """
    alphas = tuple(float(alpha) for alpha in alphas)
    if not alphas:
        raise ValueError("operator probe needs at least one alpha")
    for alpha in alphas:
        if not (0.0 < alpha < 1.0):
            raise ValueError(f"alpha must lie strictly in (0, 1), got {alpha}")
    box = traj.coeffs.shape[1:]
    if kernel is None:
        kernel = duhamel_kernel(traj.times, traj.dim, traj.truncation)
    elif (
        kernel.wa.ndim != traj.coeffs.ndim
        or kernel.wa.shape[-1] < box[-1]
        or not kernel.on_grid(traj.times)
    ):
        raise ValueError("the Duhamel kernel was built for another time grid or box")
    nodes = traj.coeffs.reshape(len(traj.times), -1)
    support = np.flatnonzero(nodes.any(axis=0))
    kmag = mode_grids(traj.dim, traj.truncation).kmag.reshape(-1)[support]
    peaks = np.full(box, -np.inf)
    entries = peaks.reshape(-1)  # a view: the support's peaks land in the box

    def norms(coeffs: np.ndarray, j: int) -> list[float]:
        logamp = _log_amplitudes(coeffs)
        sums = []
        for alpha in alphas:
            entries[support] = _weighted_peak(logamp, traj.times, alpha, kmag)
            sums.append(_peak_norm(peaks, WeightParams(alpha, j)))
        return sums

    columns = nodes.take(support, axis=1)
    denoms = norms(columns, 0)
    if 0.0 in denoms:
        raise ValueError("operator probe needs a nonzero trajectory")
    _support_image(columns, support, box, kernel)
    reports = []
    for alpha, denom, numer in zip(alphas, denoms, norms(columns, 2)):
        ratio = numer / denom
        bound = 1.0 / (1.0 - alpha)
        reports.append(ProbeReport(ratio=ratio, bound=bound, passed=ratio <= bound * (1.0 + 1e-6)))
    return tuple(reports)
