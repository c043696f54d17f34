"""Integrating-factor RK4 time stepper, the cross-validation engine.

Marches h_t = -lap^2 h + R(h) with R(h) = lap(exp(-lap h)) + lap^2 h, the
stiff fourth-order part handled exactly per mode: classical fourth-order
Runge-Kutta is applied to the integrating factor variable
exp(|k|^4 t) h(t, k), written so that only decaying exponentials ever
appear (Kassam & Trefethen, SIAM J. Sci. Comput. 26, 2005).

With the nonlinearity switched off (Taylor depth fixed at 1) the stepper
reproduces the exact linear flow to roundoff, which pins down the stiff part
of the implementation in isolation.

One kernel per (dim, N, padding), built once, is shared by
``solve_timestep`` and its single-step form ``step``.  It marches only the
half box k_last >= 0 of the real field, through the half-box exponential
route of ``nonlinear``, with |k|^4 on the half box fixed and the decay
weights built once per distinct step size of a march.  The recorded half
boxes are the trajectory, which validates them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache

import numpy as np

from .exceptions import NumericalError
from .nonlinear import TaylorDepth, exponential_route
from .semigroup import Trajectory
from .spectral import FourierField, hermitian_k0_line, mode_grids, read_only

def default_dt(truncation: int) -> float:
    """Accuracy-driven default step; stability is handled by the integrating factor."""
    return min(1e-3, 0.5 / truncation**4 * 10.0)


@dataclass(frozen=True)
class SolverConfig:
    """Shared solver settings: truncation, time grid, tolerances, series depth."""

    truncation: int
    dt: float | None = None
    t_final: float = 4.0
    padding: float = 2.0
    taylor: TaylorDepth = dataclass_field(default_factory=TaylorDepth.adaptive)
    tol: float = 1e-10
    max_iter: int = 200

    def __post_init__(self):
        if not isinstance(self.truncation, (int, np.integer)) or self.truncation < 1:
            raise ValueError(f"truncation must be a positive integer, got {self.truncation}")
        object.__setattr__(self, "truncation", int(self.truncation))
        if not (self.t_final > 0 and math.isfinite(self.t_final)):
            raise ValueError(f"t_final must be a positive real, got {self.t_final}")
        if self.dt is None:
            # snap the accuracy target so it divides the horizon exactly
            target = default_dt(self.truncation)
            object.__setattr__(self, "dt", self.t_final / math.ceil(self.t_final / target))
        else:
            object.__setattr__(self, "dt", float(self.dt))
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be a positive real, got {self.dt}")
        # the padded grid, ceil(padding * (2N+1)) points a side, must be finite too
        if not (1.0 <= self.padding and self.padding * (2 * self.truncation + 1) < math.inf):
            raise ValueError(f"padding must be a finite real >= 1, got {self.padding}")
        if not (0.0 < self.tol < math.inf):
            raise ValueError(f"tol must be a positive real, got {self.tol}")
        if not isinstance(self.max_iter, (int, np.integer)) or self.max_iter < 1:
            raise ValueError(f"max_iter must be a positive integer, got {self.max_iter}")
        steps = self.n_steps()
        if abs(steps * self.dt - self.t_final) > 1e-9 * max(1.0, self.t_final):
            raise ValueError(
                f"dt = {self.dt} does not divide t_final = {self.t_final} "
                f"(nearest step count {steps})"
            )

    def n_steps(self) -> int:
        return max(1, int(round(self.t_final / self.dt)))

    def time_grid(self) -> np.ndarray:
        return np.linspace(0.0, self.t_final, self.n_steps() + 1)


class _Kernel:
    """IF-RK4 steps on the k_last >= 0 half box for one (dim, N, padding).

    A state is a ``(1,) + half box`` array.  Each step leaves the k_last = 0
    line of the new state exactly Hermitian with a zero mode of 0.
    """

    __slots__ = ("route", "k4")

    def __init__(self, dim: int, truncation: int, padding: float):
        self.route = exponential_route(dim, truncation, padding)
        self.k4 = mode_grids(dim, truncation).k4

    def start(self, coeffs: np.ndarray) -> np.ndarray:
        """The state of one field's half box, with its k_last = 0 line made exact."""
        state = coeffs[None].copy()
        hermitian_k0_line(state)
        return state

    def remainder(self, half: np.ndarray, linear_only: bool) -> np.ndarray:
        """rhs(h) + lap^2 h on the half box; zero for the linear-only sentinel."""
        if linear_only:
            return np.zeros_like(half)
        return self.route(half) + self.k4 * half

    def weights(self, dt: float) -> tuple:
        """The per-mode constants of one step of size ``dt``."""
        half = np.exp(-self.k4 * (dt / 2.0))
        return half, half * half, dt * half, 2.0 * half

    def advance(self, a: np.ndarray, dt: float, weights: tuple, linear_only: bool) -> np.ndarray:
        """One step from state ``a``; NumericalError if the new state is not finite."""
        remainder = self.remainder
        half, full, dt_half, two_half = weights
        full_a = full * a
        na = remainder(a, linear_only)
        nb = remainder(half * (a + (dt / 2.0) * na), linear_only)
        nc = remainder(half * a + (dt / 2.0) * nb, linear_only)
        nd = remainder(full_a + dt_half * nc, linear_only)
        new = full_a + (dt / 6.0) * (full * na + two_half * (nb + nc) + nd)
        if not np.isfinite(new).all():
            raise NumericalError("step rejected: amplitudes became non-finite")
        hermitian_k0_line(new)
        return new


@lru_cache(maxsize=None)
def _kernel(dim: int, truncation: int, padding: float) -> _Kernel:
    return _Kernel(dim, truncation, padding)


def step(field: FourierField, dt: float, config: SolverConfig) -> FourierField:
    """Advance one IF-RK4 time step.

    The stages are formed on the half-box arrays of the shared kernel; only
    the result is built (and checked) as a field.
    """
    dt = float(dt)
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    kernel = _kernel(field.dim, field.truncation, config.padding)
    new = kernel.advance(
        kernel.start(field.coeffs), dt, kernel.weights(dt), config.taylor.max_j == 1
    )
    return FourierField(field.dim, field.truncation, new[0])


def solve_timestep(h0: FourierField, config: SolverConfig) -> Trajectory:
    """March from 0 to t_final, recording every node of the time grid."""
    times = config.time_grid()
    kernel = _kernel(h0.dim, h0.truncation, config.padding)
    linear_only = config.taylor.max_j == 1
    weights = {}
    state = kernel.start(h0.coeffs)
    states = [state]
    for i, dt in enumerate(np.diff(times).tolist()):
        w = weights.get(dt)
        if w is None:
            w = weights[dt] = kernel.weights(dt)
        try:
            state = kernel.advance(state, dt, w, linear_only)
        except NumericalError as err:
            raise NumericalError(
                f"{err}; last good time t = {float(times[i])!r}"
            ) from err
        states.append(state)
    return Trajectory(times, read_only(np.concatenate(states)))
