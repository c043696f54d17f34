"""Wiener and weighted spacetime norms, radius estimation, certificates.

The spatial norm is the weighted ell^1 sum over modes,

    wiener_norm(h, j) = sum_k |k|^j |coeff(k)|,

so j = 2 measures the Laplacian of the field.  The spacetime norm adds the
exponential weight exp(alpha * t * |k|) and takes the supremum over the time
grid before summing; a finite value forces analyticity of the represented
function with strip radius at least alpha * t.

``analyticity_radius`` fits |coeff(k)| ~ exp(-rho |k|) on the trailing
half-box axes, like ``wiener_norm``: one fit for a FourierField, and for a
Trajectory one per node, from one shell-maximum reduction over modes sorted
by shell (``_shells``) and one closed-form line per node (``_line_fit``).

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
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .exceptions import NumericalError
from .spectral import FourierField, block_rows, mode_grids, read_only

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

    ``h`` is a FourierField (the result is a numpy float) or a Trajectory (an
    array with one norm per node).  The sum runs over the half box, where each
    k_last > 0 entry stands for its conjugate partner too.
    """
    if j < 0:
        raise ValueError(f"j must be nonnegative, got {j}")
    grids = mode_grids(h.dim, h.truncation)
    with np.errstate(over="ignore"):  # past the float range the norm is inf; a certificate fails
        return np.sum(grids.pairs * grids.kmag**j * np.abs(h.coeffs), axis=tuple(range(-h.dim, 0)))


def spacetime_norm(traj: "Trajectory", params: WeightParams) -> float:
    """sum_k |k|^j max_i exp(alpha t_i |k|) |coeff_i(k)|, computed in log domain.

    The per-mode weighted amplitude is maximized over the grid nodes as
    alpha*t*|k| + log|coeff| so that large exponents cannot overflow before
    the maximum is taken; the result may still be ``inf`` if the norm itself
    is not finite at this alpha.  Trajectories are finite by construction.
    The table is formed in row blocks of ``spectral.block_rows`` nodes and
    the maxima gathered with ``np.maximum``, which is exact, so the norm does
    not depend on the blocks.
    """
    coeffs, times = traj.coeffs, traj.times
    kmag = mode_grids(traj.dim, traj.truncation).kmag
    rows = block_rows(coeffs)
    peak = np.full(coeffs.shape[1:], -np.inf)
    for lo in range(0, len(times), rows):
        block = _log_amplitudes(coeffs[lo : lo + rows])
        block = _weighted_peak(block, times[lo : lo + rows], params.alpha, kmag)
        np.maximum(peak, block, out=peak)
    return float(_peak_norm(peak.reshape(-1), traj.dim, traj.truncation, params.j))


def _log_amplitudes(coeffs: np.ndarray) -> np.ndarray:
    """log|coeff|, with -inf at the zero modes."""
    with np.errstate(divide="ignore"):
        return np.log(np.abs(coeffs))


def _weighted_peak(logamp: np.ndarray, times: np.ndarray, alpha: float, kmag) -> np.ndarray:
    """max over the nodes of alpha t |k| + log|coeff|, per column of the table
    ``logamp`` = log|coeff| of (nodes,) + the layout of ``kmag``, its columns' |k|."""
    return (alpha * times.reshape((-1,) + (1,) * kmag.ndim) * kmag + logamp).max(axis=0)


def _peak_norm(peaks: np.ndarray, dim: int, truncation: int, j: int) -> np.ndarray:
    """sum_k |k|^j exp(peak(k)) along the last axis of ``peaks``, one flat half
    box of that dim and truncation per row, counting each k_last > 0 entry with
    its partner.  A row's sum does not depend on the rows beside it."""
    grids = mode_grids(dim, truncation)
    # past the float range a term, or the sum, is inf, and so is the norm
    with np.errstate(over="ignore"):
        return ((grids.pairs * grids.kmag**j).reshape(-1) * np.exp(peaks)).sum(axis=-1)


def _line_fit(x, y, kept) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Least-squares lines y ~ intercept + slope * x through the points ``kept`` marks,
    one per row of the last axis, in closed form: (intercept, slope, R^2) arrays.
    R^2 is 1 where the kept y are constant; under two points the slope is NaN."""
    count = kept.sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        x_mean = np.where(kept, x, 0.0).sum(axis=-1) / count
        y_mean = np.where(kept, y, 0.0).sum(axis=-1) / count
        dx = np.where(kept, x - x_mean[..., None], 0.0)
        dy = np.where(kept, y - y_mean[..., None], 0.0)
        slope = np.einsum("...i,...i", dx, dy) / np.einsum("...i,...i", dx, dx)
        ss_tot = np.einsum("...i,...i", dy, dy)
        dy -= slope[..., None] * dx  # the residuals
        r_squared = np.where(ss_tot > 0, 1.0 - np.einsum("...i,...i", dy, dy) / ss_tot, 1.0)
    return y_mean - slope * x_mean, slope, r_squared


@lru_cache(maxsize=None)
def _shells(dim: int, truncation: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The half box's flat mode indices sorted by |k|^2 (an integer), k = 0 left
    out; where each shell of equal |k| starts in that order; and each shell's |k|."""
    ksq = np.rint(mode_grids(dim, truncation).ksq).astype(np.int64).ravel()
    order = np.argsort(ksq, kind="stable")[1:]  # k = 0 sorts first, alone
    shell_ksq, starts = np.unique(ksq[order], return_index=True)
    return read_only(order), read_only(starts), read_only(np.sqrt(shell_ksq))


@dataclass(frozen=True)
class RadiusFit:
    """Decay-rate fits |coeff(k)| ~ exp(-rho |k|): numpy scalars, or one per node."""

    rho: np.ndarray
    r_squared: np.ndarray
    n_shells: np.ndarray


def analyticity_radius(h, floor: float = 1e-13) -> RadiusFit:
    """Estimate the analyticity radius from the decay of the coefficients.

    ``h`` is a FourierField (one fit) or a Trajectory (one per node, in one
    pass).  Modes are grouped into shells of equal |k|, each represented by its
    largest amplitude; shells below ``floor``, a finite real > 0, are dropped.
    The half box holds every shell, and its maxima are those of the whole box,
    since |conj z| == |z|.  The slope of -log(amplitude) against |k| over the
    surviving ``n_shells`` is the radius estimate, with the fit's R^2 because
    truncation noise can corrupt the smallest coefficients; both are NaN
    where ``n_shells`` < 3.
    """
    if not 0.0 < floor < math.inf:
        raise ValueError(f"floor must be a finite real > 0, got {floor}")
    order, starts, radii = _shells(h.dim, h.truncation)
    flat = h.coeffs.reshape(h.coeffs.shape[: h.coeffs.ndim - h.dim] + (-1,))
    peaks = np.maximum.reduceat(np.abs(flat)[..., order], starts, axis=-1)
    kept = peaks > floor
    # log in place where kept; a dropped shell keeps its amplitude, which the fit ignores
    _, slope, r_squared = _line_fit(radii, np.log(peaks, out=peaks, where=kept), kept)
    n_shells = kept.sum(axis=-1)
    few = n_shells < 3
    rho = np.where(few, np.nan, -slope)[()]  # [()] makes a field's 0-d results scalars
    return RadiusFit(rho, np.where(few, np.nan, r_squared)[()], n_shells)


def max_alpha(r0: float) -> float:
    """Largest alpha in (0, 1) with r0 <= (1 - alpha) / (2 (2 - alpha))."""
    if not (0.0 <= r0 < SMALLNESS_THRESHOLD):
        raise ValueError(
            f"r0 = {r0} is not below the smallness threshold {SMALLNESS_THRESHOLD}"
        )
    return (1.0 - 4.0 * r0) / (1.0 - 2.0 * r0)


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
        """The report as JSON; a number that is not finite (data far past the
        threshold overflows ``r0 + r1``) is null, which JSON can hold."""
        names = ("r0", "alpha", "r1", "contraction_constant", "mapping_lhs")
        numbers = {name: getattr(self, name) for name in names}
        body = {name: x if math.isfinite(x) else None for name, x in numbers.items()}
        return {**body, "pass": self.passed, "smallness_threshold": SMALLNESS_THRESHOLD}


def certify(h0: FourierField, alpha: float | None = None) -> Certificate:
    """Evaluate the smallness conditions for initial data ``h0``.

    When alpha is not supplied it defaults to the midpoint of the admissible
    interval (0, max_alpha(r0)), balancing radius growth against contraction
    speed; data at or past the threshold gets alpha = 0.5 purely to fill in
    the report (such certificates always fail).
    """
    r0 = float(wiener_norm(h0, 2))
    below_threshold = r0 < SMALLNESS_THRESHOLD
    if alpha is None:
        alpha = max_alpha(r0) / 2.0 if below_threshold else 0.5
    else:
        alpha = float(alpha)
        if not (0.0 < alpha < 1.0):
            raise ValueError(f"alpha must lie strictly in (0, 1), got {alpha}")
    r1 = r0
    s = r0 + r1
    try:
        growth = math.expm1(s)
    except OverflowError:  # e^s is past the float range: the certificate fails
        growth = math.inf
    contraction = growth / (1.0 - alpha)
    mapping_lhs = (growth - s) / (1.0 - alpha)
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
