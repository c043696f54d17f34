"""Integrating-factor RK4 time stepper, the cross-validation engine.

Marches h_t = -lap^2 h + R(h) with R(h) = lap(exp(-lap h)) + lap^2 h, the
stiff fourth-order part handled exactly per mode: classical fourth-order
Runge-Kutta is applied to the integrating factor variable
exp(|k|^4 t) h(t, k), written so that only decaying exponentials ever
appear (Kassam & Trefethen, SIAM J. Sci. Comput. 26, 2005).

With the nonlinearity switched off (Taylor depth fixed at 1) the stepper
reproduces the exact linear flow to roundoff, which pins down the stiff part
of the implementation in isolation.

``solve_timestep`` marches only the half box k_last >= 0 of the real
field, one ``step`` at a time, as a real array in the one real layout of
``spectral.as_parts``, which the DFT matrices of ``nonlinear``'s
exponential route read and write.  So no stage converts between complex
and real.  The decay weights are built in the layout once per
distinct step size of a march.  Each stage takes R(h) whole from the
route, ``rhs_exponential``, which forms it on the padded grid as
lap(expm1(y) - y), y = -lap h, through the matrices and no FFT.  Each new
state is copied exactly into its node of one complex trajectory array,
which ``Trajectory`` validates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .exceptions import NumericalError
from .nonlinear import TaylorDepth, exponential_route, rhs_exponential
from .semigroup import Trajectory
from .spectral import (
    FourierField,
    as_parts,
    hermitian_k0_parts,
    mode_grids,
    parts_view,
    read_only,
    tile_parts,
)


def default_dt(truncation: int) -> float:
    """Accuracy-driven default step; stability is handled by the integrating factor."""
    return min(1e-3, 0.5 / truncation**4 * 10.0)


def divides(dt: float, t_final: float, steps: int) -> bool:
    """Whether ``steps`` steps of ``dt`` make ``t_final``, to 1e-9 relative to
    max(1, t_final): how closely a time grid's step must divide its horizon."""
    return abs(steps * dt - t_final) <= 1e-9 * max(1.0, t_final)


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
        if not divides(self.dt, self.t_final, steps):
            raise ValueError(
                f"dt = {self.dt} does not divide t_final = {self.t_final} "
                f"(nearest step count {steps})"
            )

    def n_steps(self) -> int:
        return max(1, int(round(self.t_final / self.dt)))

    def time_grid(self) -> np.ndarray:
        return np.linspace(0.0, self.t_final, self.n_steps() + 1)


def step_weights(k4: np.ndarray, dt: float) -> tuple:
    """The per-mode decay factors of one step of size ``dt``, for |k|^4 = ``k4``.

    They come in the layout of ``k4``: the stepper passes ``spectral.tile_parts``
    of the half box's |k|^4, a one-box state's shape.
    """
    half = np.exp(-k4 * (dt / 2.0))
    return half, half * half, dt * half, 2.0 * half


def step(a: np.ndarray, dt: float, weights: tuple, route) -> np.ndarray:
    """One IF-RK4 step from the state ``a``, one half box in the real layout of
    ``spectral.as_parts``.  The new state comes in the same layout.

    ``weights`` are those of ``step_weights`` for ``dt``, in that layout.
    Each stage's remainder R = lap(exp(-lap h)) + lap^2 h is
    ``rhs_exponential`` on ``route``; with ``route`` None (the linear-only
    sentinel) R is zero and the step is the exact decay.  The new state's
    k_last = 0 line is exactly Hermitian with a zero mode of 0;
    NumericalError if it is not finite.
    """
    half, full, dt_half, two_half = weights
    new = full * a
    if route is not None:
        na = rhs_exponential(a, route)
        nb = rhs_exponential(half * (a + (dt / 2.0) * na), route)
        nc = rhs_exponential(half * a + (dt / 2.0) * nb, route)
        nd = rhs_exponential(new + dt_half * nc, route)
        new += (dt / 6.0) * (full * na + two_half * (nb + nc) + nd)
    if not np.isfinite(new).all():
        raise NumericalError("step rejected: amplitudes became non-finite")
    hermitian_k0_parts(new)
    return new


def solve_timestep(h0: FourierField, config: SolverConfig) -> Trajectory:
    """March from 0 to t_final, recording every node of the time grid.

    The march runs in the real layout of ``spectral.as_parts``; each new
    node is copied exactly into its place in the complex trajectory.
    """
    times = config.time_grid()
    k4 = tile_parts(mode_grids(h0.dim, h0.truncation).k4)
    linear_only = config.taylor.max_j == 1  # the sentinel switches the nonlinearity off
    route = None if linear_only else exponential_route(h0.dim, h0.truncation, config.padding)
    weights = {}
    coeffs = np.empty((times.size,) + h0.coeffs.shape, dtype=complex)
    nodes = parts_view(coeffs)
    node_shape = nodes.shape[1:]
    state = as_parts(h0.coeffs[None])
    hermitian_k0_parts(state)
    nodes[0] = state.reshape(node_shape)
    for i, dt in enumerate(np.diff(times).tolist()):
        w = weights.get(dt)
        if w is None:
            w = weights[dt] = step_weights(k4, dt)
        try:
            state = step(state, dt, w, route)
        except NumericalError as err:
            raise NumericalError(
                f"{err}; last good time t = {float(times[i])!r}"
            ) from err
        nodes[i + 1] = state.reshape(node_shape)
    return Trajectory(times, read_only(coeffs))
