"""The Duhamel fixed-point map and its iteration to a mild solution.

One application of the map sends a candidate trajectory h to

    T(h)(t) = exp(-lap^2 t) h0 + (I+ S)(t),   S(s) = sum_{j>=2} F_j(h(s)),

where the Laplacian of the Duhamel integrand is the -|k|^2 factor inside the
I+ operator.  The integral operator is linear, so the series is summed into
a single trajectory first (one batched transform pair over all nodes) and I+
is applied once per iteration.

Iteration starts from the linear flow (the center of the certificate ball)
and contracts geometrically whenever the certificate passed: the ratios of
successive update norms are bounded by the certified contraction constant,
and every iterate stays within the ball radius r1 of the center.  Both facts
are recorded per iteration and checked by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exceptions import CertificateError, NumericalError, PicardConvergenceError
from .nonlinear import TaylorDepth, taylor_sum
from .norms import Certificate, WeightParams, spacetime_norm
from .semigroup import Trajectory, duhamel_Iplus, linear_trajectory
from .spectral import FourierField
from .stepper import SolverConfig


@dataclass(frozen=True)
class PicardDiagnostics:
    """Per-iteration contraction record for one fixed-point solve."""

    iterations: int
    deltas: tuple[float, ...]
    empirical_ratios: tuple[float, ...]
    ball_distances: tuple[float, ...]
    certified_constant: float
    converged: bool

    def csv_lines(self) -> list[str]:
        """Rows ``iter,delta,ratio,ball_distance`` (ratio empty on the first)."""
        lines = ["iter,delta,ratio,ball_distance"]
        for i, (delta, ball) in enumerate(zip(self.deltas, self.ball_distances)):
            ratio = repr(self.empirical_ratios[i - 1]) if i >= 1 and i - 1 < len(
                self.empirical_ratios
            ) else ""
            lines.append(f"{i + 1},{delta!r},{ratio},{ball!r}")
        return lines


def duhamel_map(
    h0: FourierField, h: Trajectory, depth: TaylorDepth, padding: float = 2.0
) -> Trajectory:
    """One application of the fixed-point map T to the trajectory ``h``."""
    if h.dim != h0.dim or h.truncation != h0.truncation:
        raise ValueError("trajectory nodes must share dim and truncation with h0")
    series, _means = taylor_sum(h, depth, padding)
    return linear_trajectory(h0, h.times) + duhamel_Iplus(series)


def solve_picard(
    h0: FourierField,
    cert: Certificate,
    config: SolverConfig,
    allow_uncertified: bool = False,
) -> tuple[Trajectory, PicardDiagnostics]:
    """Iterate T from the linear flow until the update norm drops below tol.

    Requires a passing certificate unless ``allow_uncertified`` is set (for
    experiments past the threshold, where no contraction guarantee exists).
    On convergence with a passing certificate, membership of the solution in
    the certificate ball is asserted; a violation indicates a discretization
    too coarse for the claimed bound.
    """
    if not cert.passed and not allow_uncertified:
        raise CertificateError(
            f"certificate failed (r0 = {cert.r0:.6g}); pass allow_uncertified to iterate anyway"
        )
    params = WeightParams(cert.alpha, 2)
    times = config.time_grid()
    center = linear_trajectory(h0, times)
    current = center
    deltas: list[float] = []
    ratios: list[float] = []
    balls: list[float] = []
    converged = False
    iterations = 0
    for _ in range(config.max_iter):
        iterations += 1
        updated = duhamel_map(h0, current, config.taylor, config.padding)
        delta = spacetime_norm(updated - current, params)
        deltas.append(delta)
        balls.append(spacetime_norm(updated - center, params))
        if len(deltas) >= 2 and deltas[-2] > 0.0:
            ratios.append(deltas[-1] / deltas[-2])
        current = updated
        if delta < config.tol:
            converged = True
            break
    diag = PicardDiagnostics(
        iterations=iterations,
        deltas=tuple(deltas),
        empirical_ratios=tuple(ratios),
        ball_distances=tuple(balls),
        certified_constant=cert.contraction_constant,
        converged=converged,
    )
    if not converged:
        raise PicardConvergenceError(
            f"no convergence within {config.max_iter} iterations "
            f"(last update norm {deltas[-1]:.3e}, tol {config.tol:g})",
            diag,
        )
    if cert.passed and balls[-1] > cert.r1:
        raise NumericalError(
            f"solution left the certificate ball: distance {balls[-1]:.6g} > r1 = "
            f"{cert.r1:.6g}; the time grid is too coarse for the certified bound"
        )
    return current, diag
