"""The Duhamel fixed-point map and its iteration to a mild solution.

One application of the map sends a candidate trajectory h to

    T(h)(t) = exp(-lap^2 t) h0 + (I+ S)(t),   S(s) = sum_{j>=2} F_j(h(s)),

where the Laplacian of the Duhamel integrand is the -|k|^2 factor inside the
I+ operator.  The integral operator is linear, so the series is summed into
a single trajectory first (one transform pair per chunk of nodes) and I+ is
applied once per iteration.

Iteration starts from the linear flow (the center of the certificate ball),
computed once, and runs on plain coefficient arrays; only the solution is
built, and validated, as a ``Trajectory``.  Beside the linear flow it keeps
two trajectory-sized buffers for the whole solve, the iterate and a work
array, and the Duhamel operator's kernel (``duhamel_kernel``), whose weights
depend only on the time grid and the box's |k|^2.  Each iteration writes
the series sum into the work array (``taylor_sum(..., out=)``), turns it
into its Duhamel image in place (``duhamel_Iplus(..., out=, kernel=)``) and
adds the linear flow, which makes the new iterate; both norm differences
are formed in the old iterate's buffer, and the two buffers swap.  The Duhamel
operator's interval terms and the norms' log-amplitude tables go by row
blocks (``spectral.block_rows``) and the series sum's grids by chunks of
nodes, so those temporaries stop growing with the trajectory.

The iteration contracts geometrically whenever the certificate passed: the
ratios of successive update norms are bounded by the certified contraction
constant, and every iterate stays within the ball radius r1 of the center.
Both facts are recorded per iteration and checked by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import CertificateError, NumericalError, PicardConvergenceError
from .nonlinear import taylor_sum
from .norms import Certificate, WeightParams, spacetime_norm
from .semigroup import Trajectory, duhamel_Iplus, duhamel_kernel, linear_trajectory
from .spectral import FourierField, mode_grids, read_only
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
    times = config.times
    center = linear_trajectory(h0, times)
    # the two buffers: the iterate, and the work array that becomes the next one
    current = center.coeffs.copy()
    work = np.empty_like(current)
    kernel = duhamel_kernel(times, mode_grids(h0.dim, h0.truncation).ksq)
    deltas: list[float] = []
    ratios: list[float] = []
    balls: list[float] = []
    converged = False
    iterations = 0
    for _ in range(config.max_iter):
        iterations += 1
        series = taylor_sum(
            Trajectory._trusted(times, current.view()), config.taylor, config.padding, out=work
        )
        np.add(center.coeffs, duhamel_Iplus(series, out=work, kernel=kernel).coeffs, out=work)
        # the old iterate's buffer holds each difference in turn
        np.subtract(work, current, out=current)
        delta = spacetime_norm(Trajectory._trusted(times, current.view()), params)
        deltas.append(delta)
        np.subtract(work, center.coeffs, out=current)
        balls.append(spacetime_norm(Trajectory._trusted(times, current.view()), params))
        if len(deltas) >= 2 and deltas[-2] > 0.0:
            ratios.append(deltas[-1] / deltas[-2])
        current, work = work, current
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
    solution = Trajectory(times, read_only(current))
    if cert.passed and balls[-1] > cert.r1:
        raise NumericalError(
            f"solution left the certificate ball: distance {balls[-1]:.6g} > r1 = "
            f"{cert.r1:.6g}; the time grid is too coarse for the certified bound"
        )
    return solution, diag
