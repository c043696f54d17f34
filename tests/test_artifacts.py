"""JSON artifact layout: ``write_json`` against ``json.dumps(indent=2, sort_keys=True)``.

The writer streams its own chunks and formats number lists with ``repr``;
``json.dumps`` is the oracle it must match byte for byte.
"""

import json

import numpy as np
import pytest

from epitaxy.cli import RunSpec, write_json
from epitaxy.norms import certify
from epitaxy.presets import random_decay
from epitaxy.semigroup import linear_trajectory
from epitaxy.stepper import SolverConfig, solve_timestep


def make_spec(output_dir="out"):
    return RunSpec(
        mode="solve",
        initial_data={"preset": "random-decay", "amplitude": 0.2, "seed": 7},
        solver=SolverConfig(truncation=6, dt=0.01, t_final=0.1),
        alpha=None,
        seed=7,
        output_dir=output_dir,
        mode_options={"amplitudes": [0.2, 0.3], "solve": False},
        override_certificate=False,
    )


def assert_oracle_layout(tmp_path, payload, spec=None):
    spec = spec or make_spec()
    path = tmp_path / "artifact.json"
    write_json(path, payload, spec)
    body = {**payload, "runspec": spec.to_json_dict()}
    expected = json.dumps(body, indent=2, sort_keys=True) + "\n"
    assert path.read_bytes() == expected.encode("utf-8")


@pytest.mark.parametrize("dim", [1, 2])
def test_trajectory_layout(tmp_path, dim):
    h0 = random_decay(6, seed=3, amplitude=0.2, dim=dim)
    # the stepper fills every mode; the linear flow underflows the high ones,
    # so its later nodes hold fewer entries than its first
    marched = solve_timestep(h0, SolverConfig(truncation=6, dt=0.01, t_final=0.05))
    assert_oracle_layout(tmp_path, marched.to_json_dict())
    linear = linear_trajectory(h0, np.linspace(0.0, 2.0, 5))
    assert_oracle_layout(tmp_path, linear.to_json_dict())


def test_field_and_certificate_layout(tmp_path):
    h0 = random_decay(8, seed=5, amplitude=0.2, dim=2)
    assert_oracle_layout(tmp_path, h0.to_json_dict())
    assert_oracle_layout(tmp_path, certify(h0).to_json_dict())
    assert_oracle_layout(tmp_path, certify(h0 * 2.0).to_json_dict())  # "pass": false


@pytest.mark.parametrize(
    "payload",
    [
        {"list": [], "dict": {}},
        {"nested": [[], [[]], {}, [{}], {"a": []}, [[1.0], []], [[], [2]]]},
        {"flags": [True, False, 1, 0.5], "rows": [[1, True], [0.5, 2]], "flag": False},
        {"numbers": [-0.0, 1e16, 5e-324, 1.5, -7], "rows": [[-0.0, 1e16], [5e-324, 0]]},
        {"nonfinite": [float("nan"), 1.0], "rows": [[1, float("inf")], [0, -float("inf")]]},
        {"mixed": [1, [2, 3]], "deep": [[[1.0, 2.0]]], "tuple": (1, 2), "none": [None, 1]},
        {"strings": ["a", "é"], "int_keys": {2: "b", 1: "a"}, "float": 2.5, "null": None},
    ],
    ids=["empty", "nested-empty", "bools", "float-edges", "non-finite", "shapes", "scalars"],
)
def test_edge_payload_layout(tmp_path, payload):
    assert_oracle_layout(tmp_path, payload)


def test_non_ascii_output_dir_layout(tmp_path):
    spec = make_spec(output_dir=str(tmp_path / "résultats-π"))
    assert_oracle_layout(tmp_path, {"mode": "solve"}, spec)
