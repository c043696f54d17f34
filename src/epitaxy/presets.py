"""Built-in mean-zero initial data families.

Every preset is normalized so that its ``amplitude`` parameter, a finite
real > 0, equals the j = 2 Wiener norm of the generated field (the quantity
the certificate thresholds), which makes sweeps across the smallness
threshold read off directly in amplitude.  The command line's config schema
checks the range of each parameter; a preset checks only what depends on the
truncation or on the draw.
"""

from __future__ import annotations

import math

import numpy as np

from .spectral import FourierField


def single_mode(truncation: int, amplitude: float = 0.2, k: int = 1, dim: int = 1) -> FourierField:
    """a * cos(k x1) scaled so the j = 2 norm equals ``amplitude``."""
    if k < 1 or k > truncation:
        raise ValueError(f"mode k = {k} must satisfy 1 <= k <= truncation {truncation}")
    half = amplitude / (2.0 * k * k)
    mode = (k,) if dim == 1 else (k, 0)
    return FourierField.from_modes(dim, truncation, {mode: half})


def two_mode(truncation: int, amplitude: float = 0.2, dim: int = 1) -> FourierField:
    """A fixed two-frequency profile with j = 2 norm equal to ``amplitude``.

    In 1-d: 0.8a cos(x) + 0.05a cos(2x); in 2-d the modes are (1, 0) and
    (1, 1) with the same norm split.  Most of the norm sits in the lowest
    mode so that the default time grids resolve the relaxation of every
    component the data excites.
    """
    if truncation < 2:
        raise ValueError(f"two-mode preset needs truncation >= 2, got {truncation}")
    if dim == 1:
        modes = {(1,): 0.4 * amplitude, (2,): 0.025 * amplitude}
    else:
        modes = {(1, 0): 0.4 * amplitude, (1, 1): 0.05 * amplitude}
    return FourierField.from_modes(dim, truncation, modes)


def random_decay(
    truncation: int,
    seed: int,
    amplitude: float = 0.2,
    decay: float = 3.0,
    dim: int = 1,
) -> FourierField:
    """Random phases under an exp(-decay |k|) envelope, rescaled to ``amplitude``.

    The draw is deterministic in ``seed``, and the rescaling fixes the j = 2
    norm summed over the whole box (the half-box sum of ``wiener_norm`` may
    differ in the last bits), so certificates on this preset are
    reproducible.  The default
    envelope rate keeps high-mode content small enough that the transient
    layer it excites stays resolved at the default time steps; the rate must
    be a finite real >= 0.
    """
    # the draw, its symmetrization and the normalizing sum run over a local
    # whole (2N+1)^dim box, as the preset was first defined, so a seed's data
    # keep their bits; the field holds the k_last >= 0 half
    rng = np.random.default_rng(seed)
    n = 2 * truncation + 1
    shape = (n,) * dim
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    axis = np.arange(-truncation, truncation + 1, dtype=float)
    ksq = axis**2 if dim == 1 else axis[:, None] ** 2 + axis**2
    kmag = np.sqrt(ksq)
    raw *= np.exp(-decay * kmag)
    sl = tuple(slice(None, None, -1) for _ in range(dim))
    coeffs = 0.5 * (raw + np.conj(raw[sl]))
    coeffs[(truncation,) * dim] = 0.0
    field = FourierField(dim, truncation, coeffs[..., truncation:])
    norm = float(np.sum(kmag**2 * np.abs(coeffs)))
    if norm == 0.0:
        raise ValueError("degenerate random draw produced the zero field")
    scale = amplitude / norm
    if not math.isfinite(scale):
        raise ValueError(f"amplitude {amplitude} is too large: scaling this draw to it overflows")
    return field * scale


PRESETS = {
    "single-mode": single_mode,
    "two-mode": two_mode,
    "random-decay": random_decay,
}
