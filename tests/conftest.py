"""Shared helpers for the test suite."""

import hashlib
import json

import numpy as np
import pytest

from epitaxy.norms import wiener_norm
from epitaxy.semigroup import Trajectory
from epitaxy.spectral import FourierField

from reference import whole_ksq


def random_field(rng, dim=1, truncation=8, decay=1.0, scale=1.0):
    """Random Hermitian mean-zero field under an exponential envelope, drawn on the whole box."""
    n = 2 * truncation + 1
    raw = rng.standard_normal((n,) * dim) + 1j * rng.standard_normal((n,) * dim)
    raw *= np.exp(-decay * np.sqrt(whole_ksq(dim, truncation)))
    sl = tuple(slice(None, None, -1) for _ in range(dim))
    coeffs = 0.5 * (raw + np.conj(raw[sl])) * scale
    coeffs[(truncation,) * dim] = 0.0
    return FourierField(dim, truncation, coeffs[..., truncation:])


def random_field_with_norm(rng, target, j=2, dim=1, truncation=8, decay=1.0):
    """Random field rescaled so wiener_norm(field, j) == target exactly."""
    field = random_field(rng, dim=dim, truncation=truncation, decay=decay)
    norm = wiener_norm(field, j)
    assert norm > 0
    return field * (target / norm)


def trajectory_of(times, fields):
    """The trajectory whose node i holds ``fields[i]``, by its k_last >= 0 half box."""
    return Trajectory(times, np.array([f.coeffs for f in fields]))


def save_trajectory(path, data):
    """Write a trajectory file as ``solve`` does, independently of the CLI.

    The JSON manifest goes to ``path`` and the tables, by ``np.save``, beside
    it with the suffix ``.npy``.  ``data`` is a ``Trajectory`` or its
    ``to_json_dict()`` form, possibly edited; its ``tables`` may be any array.
    """
    body = dict(data.to_json_dict() if isinstance(data, Trajectory) else data)
    tables = path.with_suffix(".npy")
    np.save(tables, body["tables"], allow_pickle=True)
    digest = hashlib.sha256(tables.read_bytes()).hexdigest()
    body["tables"] = {"file": tables.name, "sha256": digest}
    path.write_text(json.dumps(body), encoding="utf-8")
    return path


def load_trajectory(path):
    """Read a trajectory file as the README tells a user to: ``np.load`` the tables."""
    body = json.loads(path.read_text(encoding="utf-8"))
    tables = path.parent / body["tables"]["file"]
    assert hashlib.sha256(tables.read_bytes()).hexdigest() == body["tables"]["sha256"]
    return Trajectory.from_json_dict({**body, "tables": np.load(tables, allow_pickle=False)})


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
