"""Wiener and weighted spacetime norms, radius estimation, certificates.

The spatial norm is the weighted ell^1 sum over modes,

    wiener_norm(h, j) = sum_k |k|^j |coeff(k)|,

so j = 2 measures the Laplacian of the field.  The spacetime norm adds the
exponential weight exp(alpha * t * |k|) and takes the supremum over the time
grid before summing; a finite value forces analyticity of the represented
function with strip radius at least alpha * t.

``certify`` packages the quantitative smallness conditions that make the
Duhamel fixed-point map a contraction: writing r0 for the j = 2 norm of the
initial data and r1 = r0 for the ball radius, the map is admissible when

    r0 < 1/4,
    r0 <= (1 - alpha) / (2 (2 - alpha)),
    (exp(r0 + r1) - 1) / (1 - alpha) < 1        (contraction constant),
    (exp(r0 + r1) - 1 - (r0 + r1)) / (1 - alpha) <= r1   (ball mapping).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .exceptions import NumericalError
from .spectral import FourierField, mode_grids

if TYPE_CHECKING:  # pragma: no cover - annotation only, avoids an import cycle
    from .semigroup import Trajectory

#: Smallness threshold on the j = 2 norm of the initial data.
SMALLNESS_THRESHOLD = 0.25


@dataclass(frozen=True)
class WeightParams:
    """The pair (alpha, j): exponential rate and derivative weight."""

    alpha: float
    j: int

    def __post_init__(self):
        if not (self.alpha >= 0.0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be a finite nonnegative real, got {self.alpha}")
        if not isinstance(self.j, (int, np.integer)) or self.j < 0:
            raise ValueError(f"j must be a nonnegative integer, got {self.j}")
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "j", int(self.j))


def wiener_norm(h, j: int = 0):
    """sum_k |k|^j |coeff(k)|; j = 2 equals the Wiener norm of the Laplacian.

    ``h`` is a FourierField (the result is a float) or a Trajectory (the
    result is an array with one norm per node).
    """
    if j < 0:
        raise ValueError(f"j must be nonnegative, got {j}")
    kmag = mode_grids(h.dim, h.truncation).kmag
    box_axes = tuple(range(-h.dim, 0))
    norms = np.sum(kmag**j * np.abs(h.coeffs), axis=box_axes)
    return float(norms) if isinstance(h, FourierField) else norms


def spacetime_norm(traj: "Trajectory", params: WeightParams) -> float:
    """sum_k |k|^j max_i exp(alpha t_i |k|) |coeff_i(k)|, computed in log domain.

    The per-mode weighted amplitude is maximized over the grid nodes as
    alpha*t*|k| + log|coeff| so that large exponents cannot overflow before
    the maximum is taken; the result may still be ``inf`` if the norm itself
    is not finite at this alpha.  Trajectories are finite by construction.
    """
    grids = mode_grids(traj.dim, traj.truncation)
    times = traj.times.reshape((-1,) + (1,) * traj.dim)
    with np.errstate(divide="ignore"):
        logamp = np.log(np.abs(traj.coeffs))
    weighted = params.alpha * times * grids.kmag + logamp
    peak = weighted.max(axis=0)
    with np.errstate(over="ignore"):
        amps = np.exp(peak)
    return float(np.sum(grids.kmag**params.j * amps))


def _line_fit(x, y) -> tuple[float, float, float]:
    """Least-squares line y ~ intercept + slope * x; returns (intercept, slope, R^2)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    design = np.vstack([np.ones_like(x), x]).T
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    fitted = design @ coef
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(coef[0]), float(coef[1]), r_squared


@dataclass(frozen=True)
class RadiusFit:
    """Least-squares decay-rate estimate: |coeff(k)| ~ exp(-rho |k|)."""

    rho: float
    r_squared: float
    n_shells: int


def analyticity_radius(field: FourierField, floor: float = 1e-13) -> RadiusFit:
    """Estimate the analyticity radius from the decay of the coefficients.

    Modes are grouped into shells of equal |k| (equal integer |k|^2), each
    shell represented by its largest amplitude; shells below ``floor`` are
    dropped.  The slope of -log(amplitude) against |k| over the surviving
    shells is the radius estimate; the fit R^2 is reported alongside because
    truncation noise can corrupt the smallest coefficients.
    """
    if floor <= 0:
        raise ValueError(f"floor must be positive, got {floor}")
    grids = mode_grids(field.dim, field.truncation)
    ksq_int = np.rint(grids.ksq).astype(np.int64).ravel()
    amps = np.abs(field.coeffs).ravel()
    shells: dict[int, float] = {}
    for r2, a in zip(ksq_int, amps):
        if r2 == 0:
            continue
        if a > shells.get(r2, 0.0):
            shells[r2] = a
    points = [(math.sqrt(r2), a) for r2, a in shells.items() if a > floor]
    if len(points) < 3:
        raise ValueError(
            f"radius fit needs at least 3 shells above floor {floor:g}, got {len(points)}"
        )
    points.sort()
    _, rho, r_squared = _line_fit([p[0] for p in points], [-math.log(p[1]) for p in points])
    return RadiusFit(rho=rho, r_squared=r_squared, n_shells=len(points))


def max_alpha(r0: float) -> float:
    """Largest alpha in (0, 1) with r0 <= (1 - alpha) / (2 (2 - alpha))."""
    if not (0.0 <= r0 < SMALLNESS_THRESHOLD):
        raise ValueError(
            f"r0 = {r0} is not below the smallness threshold {SMALLNESS_THRESHOLD}"
        )
    alpha = (1.0 - 4.0 * r0) / (1.0 - 2.0 * r0)
    # substituting back must reproduce r0 at the boundary
    residual = abs(r0 - (1.0 - alpha) / (2.0 * (2.0 - alpha)))
    if not residual <= 1e-12:
        raise NumericalError(
            f"max_alpha({r0!r}) = {alpha!r} does not reproduce r0 (residual {residual:.3e})"
        )
    return alpha


@dataclass(frozen=True)
class Certificate:
    """Quantitative admissibility report for initial data.

    ``passed`` is the conjunction of the threshold, the alpha constraint, the
    contraction constant being below one and the ball-mapping bound.
    """

    r0: float
    alpha: float
    r1: float
    contraction_constant: float
    mapping_lhs: float
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "r0": self.r0,
            "alpha": self.alpha,
            "r1": self.r1,
            "contraction_constant": self.contraction_constant,
            "mapping_lhs": self.mapping_lhs,
            "pass": self.passed,
            "smallness_threshold": SMALLNESS_THRESHOLD,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Certificate":
        return cls(
            r0=float(data["r0"]),
            alpha=float(data["alpha"]),
            r1=float(data["r1"]),
            contraction_constant=float(data["contraction_constant"]),
            mapping_lhs=float(data["mapping_lhs"]),
            passed=bool(data["pass"]),
        )


def certify(h0: FourierField, alpha: float | None = None) -> Certificate:
    """Evaluate the smallness conditions for initial data ``h0``.

    When alpha is not supplied it defaults to the midpoint of the admissible
    interval (0, max_alpha(r0)), balancing radius growth against contraction
    speed; data at or past the threshold gets alpha = 0.5 purely to fill in
    the report (such certificates always fail).
    """
    r0 = wiener_norm(h0, 2)
    below_threshold = r0 < SMALLNESS_THRESHOLD
    if alpha is None:
        alpha = max_alpha(r0) / 2.0 if below_threshold else 0.5
    else:
        alpha = float(alpha)
        if not (0.0 < alpha < 1.0):
            raise ValueError(f"alpha must lie strictly in (0, 1), got {alpha}")
    r1 = r0
    s = r0 + r1
    contraction = math.expm1(s) / (1.0 - alpha)
    mapping_lhs = (math.expm1(s) - s) / (1.0 - alpha)
    passed = (
        below_threshold
        and r0 <= (1.0 - alpha) / (2.0 * (2.0 - alpha))
        and contraction < 1.0
        and mapping_lhs <= r1
    )
    if passed and not math.exp(s) < 2.0 - alpha:
        raise NumericalError(
            "certificate inconsistency: exp(r0 + r1) < 2 - alpha must hold when passing"
        )
    return Certificate(
        r0=r0,
        alpha=alpha,
        r1=r1,
        contraction_constant=contraction,
        mapping_lhs=mapping_lhs,
        passed=passed,
    )
