"""The linear propagator exp(-lap^2 t) and the Duhamel integral operator.

Per mode the propagator is the scalar factor exp(-|k|^4 t).  The Duhamel
operator gains two derivatives,

    (I+ f)(t, k) = -|k|^2 * integral_0^t exp(-|k|^4 (t - s)) f(s, k) ds,

and on the weighted spacetime spaces its norm from weight j = 0 into weight
j = 2 is bounded by 1 / (1 - alpha) for alpha in (0, 1); the per-mode bound
is 1 / (1 - alpha / |k|^3), largest at |k| = 1.  ``operator_bound_probe``
measures this ratio numerically.

A trajectory is a time grid plus one complex coefficient array of shape
(nodes, 2N+1[, 2N+1]), piecewise-linear in time per mode.  The array is
validated once when the trajectory is built (finite, zero mode vanishing,
Hermitian per node), and the operators here act on the whole array at once.
The Duhamel integral of the interpolant is evaluated in closed form on each
subinterval (exponential moments of a linear function), with the kernel
weights computed once per distinct step size, and accumulated with the
recurrence g(t_{i+1}) = exp(-|k|^4 dt) g(t_i) + local, so the cost is linear
in the number of nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .norms import WeightParams, spacetime_norm
from .spectral import (
    FourierField,
    check_coefficients,
    coeffs_from_entries,
    mode_entries,
    mode_grids,
)


@dataclass(frozen=True, eq=False, init=False)
class Trajectory:
    """A time grid with one coefficient box per node, piecewise-linear in t per mode.

    Attributes:
        times: strictly increasing nodes starting at exactly t = 0
        coeffs: complex array of shape (nodes,) + (2N+1,)*dim; immutable
    """

    times: np.ndarray
    coeffs: np.ndarray

    def __init__(self, times, fields):
        """``fields`` is a sequence of FourierFields or a ``(nodes,) + box`` array."""
        times = np.ascontiguousarray(times, dtype=float)
        if times.ndim != 1 or times.size == 0:
            raise ValueError("times must be a nonempty 1-d grid")
        if not isinstance(fields, np.ndarray):
            fields = tuple(fields)
            if len({(f.dim, f.truncation) for f in fields}) > 1:
                raise ValueError("all node fields must share dim and truncation")
            fields = np.array([f.coeffs for f in fields])
        coeffs = np.ascontiguousarray(fields, dtype=complex)
        nodes = coeffs.shape[0] if coeffs.ndim else 0
        if times.size != nodes:
            raise ValueError(f"{times.size} times but {nodes} fields")
        if not np.all(np.isfinite(times)):
            raise ValueError("times must be finite")
        if times[0] != 0.0:
            raise ValueError(f"first node must sit at exactly t = 0, got {times[0]}")
        if times.size > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("times must be strictly increasing")
        dim = coeffs.ndim - 1
        if dim not in (1, 2) or coeffs.shape[1] < 3 or coeffs.shape[1] % 2 == 0:
            raise ValueError(f"coefficient array of shape {coeffs.shape} is not a batch of boxes")
        check_coefficients(coeffs, dim, (coeffs.shape[1] - 1) // 2)
        times.flags.writeable = False
        coeffs.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def dim(self) -> int:
        return self.coeffs.ndim - 1

    @property
    def truncation(self) -> int:
        return (self.coeffs.shape[1] - 1) // 2

    @cached_property
    def fields(self) -> tuple[FourierField, ...]:
        """One FourierField per node, each a read-only view into ``coeffs``."""
        dim, truncation = self.dim, self.truncation
        return tuple(FourierField._trusted(dim, truncation, c) for c in self.coeffs)

    def _check_same_grid(self, other: "Trajectory"):
        if not np.array_equal(self.times, other.times):
            raise ValueError("trajectories live on different time grids")
        if self.coeffs.shape != other.coeffs.shape:
            raise ValueError(
                f"incompatible trajectories: dim/truncation ({self.dim},{self.truncation}) "
                f"vs ({other.dim},{other.truncation})"
            )

    def __add__(self, other: "Trajectory") -> "Trajectory":
        self._check_same_grid(other)
        return Trajectory(self.times, self.coeffs + other.coeffs)

    def __sub__(self, other: "Trajectory") -> "Trajectory":
        self._check_same_grid(other)
        return Trajectory(self.times, self.coeffs - other.coeffs)

    def to_json_dict(self) -> dict:
        """JSON form: {"times": [...], "fields": [FourierField JSON form per node]}."""
        head = {"dim": self.dim, "truncation": self.truncation}
        return {
            "times": self.times.tolist(),
            "fields": [{**head, "coeffs": e} for e in mode_entries(self.coeffs, self.truncation)],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Trajectory":
        times = np.array([float(t) for t in data["times"]])
        fields = data["fields"]
        if not fields:
            return cls(times, ())
        dim, truncation = int(fields[0]["dim"]), int(fields[0]["truncation"])
        if any(int(f["dim"]) != dim or int(f["truncation"]) != truncation for f in fields):
            raise ValueError("all node fields must share dim and truncation")
        entries = [f["coeffs"] for f in fields]
        return cls(times, coeffs_from_entries(dim, truncation, entries))


def propagate(field: FourierField, t: float) -> FourierField:
    """Apply the solution operator of the linear flow: coeff(k) *= exp(-|k|^4 t)."""
    t = float(t)
    if t < 0:
        raise ValueError(f"propagation time must be nonnegative, got {t}")
    k4 = mode_grids(field.dim, field.truncation).k4
    return FourierField(field.dim, field.truncation, field.coeffs * np.exp(-k4 * t))


def linear_trajectory(h0: FourierField, times) -> Trajectory:
    """Trajectory whose node i holds the linear flow of ``h0`` at times[i]."""
    times = np.ascontiguousarray(times, dtype=float)
    k4 = mode_grids(h0.dim, h0.truncation).k4
    column = times.reshape((-1,) + (1,) * h0.dim)
    return Trajectory(times, h0.coeffs * np.exp(-k4 * column))


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
    """Cancellation-safe kernel weights (wa, wb) for scalar or array z >= 0."""
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


def stable_expm_moments(lam: float, dt: float, f0: complex, f1: complex) -> complex:
    """integral_0^dt exp(-lam (dt - s)) (f0 + (f1 - f0) s / dt) ds.

    Accurate to better than 1e-14 relative over lam*dt in [1e-8, 1e3]; this
    is the single-interval kernel inside the Duhamel accumulation.
    """
    lam = float(lam)
    dt = float(dt)
    if lam <= 0:
        raise ValueError(f"lam must be positive, got {lam}")
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    wa, wb = exp_moment_weights(lam * dt)
    return complex(dt * (complex(f0) * wa + complex(f1) * wb))


def duhamel_Iplus(traj: Trajectory) -> Trajectory:
    """Apply the derivative-gaining Duhamel operator to a trajectory.

    Node i of the result holds, per mode k,

        g(t_i, k) = -|k|^2 integral_0^{t_i} exp(-|k|^4 (t_i - s)) f(s, k) ds

    with f the piecewise-linear interpolant of the input nodes.  Each
    subinterval is integrated in closed form, so the only discretization
    error is the linear-in-time representation of f itself.  The kernel
    weights are evaluated once per distinct step size (a uniform grid built
    by ``linspace`` has only a few, differing in the last bits), and every
    interval's local term is formed in one array operation; only the
    accumulation runs node by node.
    """
    grids = mode_grids(traj.dim, traj.truncation)
    stacked = traj.coeffs
    steps = np.diff(traj.times)
    # distinct step sizes, sorted, and each interval's index among them
    # (np.unique would do, but its first call imports numpy.ma, +1.7 MiB RSS)
    ordered = np.sort(steps)
    first = np.ones(ordered.size, dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    distinct = ordered[first]
    which = np.searchsorted(distinct, steps)
    z = distinct.reshape((-1,) + (1,) * traj.dim) * grids.k4
    wa, wb = exp_moment_weights(z)
    decay = np.exp(-z)
    # acc[i + 1] starts as interval i's local term and then absorbs the
    # decayed acc[i]; the products are formed in place to bound temporaries
    acc = np.empty_like(stacked)
    acc[0] = 0.0
    np.multiply(stacked[1:], wb[which], out=acc[1:])
    acc[1:] += stacked[:-1] * wa[which]
    acc[1:] *= steps.reshape((-1,) + (1,) * traj.dim)
    for i, w in enumerate(which):
        acc[i + 1] += decay[w] * acc[i]
    acc *= -grids.ksq
    acc[0] = 0.0
    acc[(slice(None),) + (traj.truncation,) * traj.dim] = 0.0
    return Trajectory(traj.times, acc)


def random_probe_trajectory(
    rng: np.random.Generator,
    dim: int,
    truncation: int,
    times,
    max_modes: int = 5,
    max_decay: float = 8.0,
) -> Trajectory:
    """Random mode support with random exponentially decaying profiles.

    Feeds the operator-bound probe: a handful of modes drawn from the box,
    each carrying a complex Gaussian amplitude and its own decay rate in
    [0, max_decay].  Decay rates are kept moderate relative to the grid
    spacing so the piecewise-linear representation stays faithful.
    """
    times = np.ascontiguousarray(times, dtype=float)
    n = 2 * truncation + 1
    stacked = np.zeros((times.size,) + (n,) * dim, dtype=complex)
    n_modes = int(rng.integers(1, max_modes + 1))
    count = 0
    while count < n_modes:
        comps = tuple(int(c) for c in rng.integers(-truncation, truncation + 1, size=dim))
        if all(c == 0 for c in comps):
            continue
        count += 1
        amp = complex(rng.standard_normal(), rng.standard_normal())
        gamma = float(rng.uniform(0.0, max_decay))
        profile = np.exp(-gamma * times)
        idx = tuple(c + truncation for c in comps)
        nidx = tuple(-c + truncation for c in comps)
        stacked[(slice(None),) + idx] += amp * profile
        stacked[(slice(None),) + nidx] += np.conj(amp) * profile
    return Trajectory(times, stacked)


@dataclass(frozen=True)
class ProbeReport:
    """Measured Duhamel operator-norm ratio against the certified bound."""

    ratio: float
    bound: float
    passed: bool


def operator_bound_probe(traj: Trajectory, alpha: float) -> ProbeReport:
    """Measure |I+ f|_{alpha,2} / |f|_{alpha,0} against 1 / (1 - alpha)."""
    alpha = float(alpha)
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie strictly in (0, 1), got {alpha}")
    denom = spacetime_norm(traj, WeightParams(alpha, 0))
    if denom == 0.0:
        raise ValueError("operator probe needs a nonzero trajectory")
    num = spacetime_norm(duhamel_Iplus(traj), WeightParams(alpha, 2))
    ratio = num / denom
    bound = 1.0 / (1.0 - alpha)
    return ProbeReport(ratio=ratio, bound=bound, passed=ratio <= bound * (1.0 + 1e-6))
