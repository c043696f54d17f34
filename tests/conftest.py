"""Shared helpers for the test suite."""

import numpy as np
import pytest

from epitaxy.norms import wiener_norm
from epitaxy.semigroup import Trajectory
from epitaxy.spectral import FourierField, mode_grids


def random_field(rng, dim=1, truncation=8, decay=1.0, scale=1.0):
    """Random Hermitian mean-zero field under an exponential envelope."""
    n = 2 * truncation + 1
    raw = rng.standard_normal((n,) * dim) + 1j * rng.standard_normal((n,) * dim)
    raw *= np.exp(-decay * mode_grids(dim, truncation).kmag)
    sl = tuple(slice(None, None, -1) for _ in range(dim))
    coeffs = 0.5 * (raw + np.conj(raw[sl])) * scale
    coeffs[(truncation,) * dim] = 0.0
    return FourierField(dim, truncation, coeffs)


def random_field_with_norm(rng, target, j=2, dim=1, truncation=8, decay=1.0):
    """Random field rescaled so wiener_norm(field, j) == target exactly."""
    field = random_field(rng, dim=dim, truncation=truncation, decay=decay)
    norm = wiener_norm(field, j)
    assert norm > 0
    return field * (target / norm)


def trajectory_of(times, fields):
    """The trajectory whose node i holds ``fields[i]``."""
    return Trajectory(times, np.array([f.coeffs for f in fields]))


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
