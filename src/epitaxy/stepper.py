"""Exponential-integrator time stepper, the cross-validation engine.

Marches h_t = -lap^2 h + R(h) with R(h) = lap(exp(-lap h)) + lap^2 h, the
stiff fourth-order part handled exactly per mode.  Two schemes:

* ``if-rk4``: classical fourth-order Runge-Kutta applied to the integrating
  factor variable exp(|k|^4 t) h(t, k), written so that only decaying
  exponentials ever appear;
* ``etd-euler``: first-order exponential time differencing,
  h <- exp(-z) h + dt phi1(-z) R(h) with z = |k|^4 dt and the phi weight
  evaluated cancellation-safely.

With the nonlinearity switched off (Taylor depth fixed at 1) both schemes
reproduce the exact linear flow to roundoff, which pins down the stiff part
of the implementation in isolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .exceptions import NumericalError
from .nonlinear import TaylorDepth, _rhs_exponential_coeffs
from .semigroup import Trajectory, phi_one
from .spectral import FourierField, mode_grids

SCHEMES = ("if-rk4", "etd-euler")


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
    scheme: str = "if-rk4"

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
        if self.padding < 1.0:
            raise ValueError(f"padding must be >= 1, got {self.padding}")
        if not (self.tol > 0):
            raise ValueError(f"tol must be positive, got {self.tol}")
        if not isinstance(self.max_iter, (int, np.integer)) or self.max_iter < 1:
            raise ValueError(f"max_iter must be a positive integer, got {self.max_iter}")
        scheme = str(self.scheme).lower()
        if scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        object.__setattr__(self, "scheme", scheme)
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


def _remainder_coeffs(
    coeffs: np.ndarray, k4: np.ndarray, depth: TaylorDepth, padding: float
) -> np.ndarray:
    """Array core of ``nonlinear_remainder`` on one coefficient box."""
    if depth.max_j == 1:
        return np.zeros_like(coeffs)
    return _rhs_exponential_coeffs(coeffs, padding) + k4 * coeffs


def nonlinear_remainder(
    field: FourierField, depth: TaylorDepth, padding: float = 2.0
) -> FourierField:
    """The series part of the right-hand side: rhs(h) + lap^2 h.

    Evaluated via the exponential route minus the linear term, keeping this
    engine structurally independent of the series route it is checked
    against.  ``depth`` only matters through the linear-only sentinel
    (fixed depth 1), which returns the zero field.
    """
    k4 = mode_grids(field.dim, field.truncation).k4
    coeffs = _remainder_coeffs(field.coeffs, k4, depth, padding)
    return FourierField(field.dim, field.truncation, coeffs)


def step(field: FourierField, dt: float, config: SolverConfig) -> FourierField:
    """Advance one time step with the configured scheme.

    The stages are formed on coefficient arrays; only the result is built
    (and checked) as a field.
    """
    dt = float(dt)
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    k4 = mode_grids(field.dim, field.truncation).k4
    remainder = lambda c: _remainder_coeffs(c, k4, config.taylor, config.padding)

    if config.scheme == "if-rk4":
        half = np.exp(-k4 * (dt / 2.0))
        full = half * half
        a = field.coeffs
        na = remainder(a)
        b = half * (a + (dt / 2.0) * na)
        nb = remainder(b)
        c = half * a + (dt / 2.0) * nb
        nc = remainder(c)
        d = full * a + dt * half * nc
        nd = remainder(d)
        new = full * a + (dt / 6.0) * (full * na + 2.0 * half * (nb + nc) + nd)
    else:  # etd-euler
        z = k4 * dt
        new = np.exp(-z) * field.coeffs + dt * phi_one(z) * remainder(field.coeffs)

    if not np.all(np.isfinite(new)):
        raise NumericalError("step rejected: amplitudes became non-finite")
    return FourierField(field.dim, field.truncation, new)


def solve_timestep(
    h0: FourierField, config: SolverConfig, output_every: int = 1
) -> Trajectory:
    """March from 0 to t_final, recording every ``output_every``-th node."""
    if output_every < 1:
        raise ValueError(f"output_every must be >= 1, got {output_every}")
    times = config.time_grid()
    state = h0
    recorded = [0]
    states = [state.coeffs]
    for i in range(times.size - 1):
        dt = times[i + 1] - times[i]
        try:
            state = step(state, dt, config)
        except NumericalError as err:
            raise NumericalError(
                f"{err}; last good time t = {float(times[i])!r}"
            ) from err
        if (i + 1) % output_every == 0 or i + 1 == times.size - 1:
            recorded.append(i + 1)
            states.append(state.coeffs)
    return Trajectory(times[recorded], np.stack(states))
