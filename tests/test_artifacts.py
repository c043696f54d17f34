"""Artifact layout: ``write_json`` against ``json.dumps(indent=2, sort_keys=True)``
(which refuses NaN and Infinity, as strict JSON does),
trajectory manifests and their ``.npy`` tables against ``np.save``, and the
half-box tables of solved trajectories read back through the CLI.
"""

import contextlib
import hashlib
import io
import json

import numpy as np
import pytest

from conftest import load_trajectory
from epitaxy.cli import RunSpec, main, write_json, write_trajectory
from epitaxy.norms import certify
from epitaxy.picard import solve_picard
from epitaxy.presets import random_decay
from epitaxy.semigroup import linear_trajectory
from epitaxy.spectral import FourierField
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


def oracle_bytes(payload, spec):
    body = {**payload, "runspec": spec.to_json_dict()}
    return (json.dumps(body, indent=2, sort_keys=True, allow_nan=False) + "\n").encode("utf-8")


def assert_oracle_layout(tmp_path, payload, spec=None):
    spec = spec or make_spec()
    path = tmp_path / "artifact.json"
    try:
        expected = oracle_bytes(payload, spec)
    except ValueError:  # NaN and Infinity are not JSON: refused, and no file is left
        with pytest.raises(ValueError, match="not JSON compliant"):
            write_json(path, payload, spec)
        assert not path.exists()
        return
    write_json(path, payload, spec)
    assert path.read_bytes() == expected


@pytest.mark.parametrize("dim", [1, 2])
def test_trajectory_layout(tmp_path, dim):
    # the manifest is the json.dumps layout of the trajectory's JSON form with
    # the table array swapped for the .npy file's name and digest, and the
    # .npy file holds the bytes np.save writes for that array
    h0 = random_decay(6, seed=3, amplitude=0.2, dim=dim)
    spec = make_spec()
    # the stepper fills every mode; the linear flow underflows the high ones
    marched = solve_timestep(h0, SolverConfig(truncation=6, dt=0.01, t_final=0.05))
    linear = linear_trajectory(h0, np.linspace(0.0, 2.0, 5))
    for traj in (marched, linear):
        write_trajectory(tmp_path / "traj.json", traj, spec)
        body = traj.to_json_dict()
        np.save(tmp_path / "oracle.npy", body["tables"])
        table_bytes = (tmp_path / "oracle.npy").read_bytes()
        assert (tmp_path / "traj.npy").read_bytes() == table_bytes
        digest = hashlib.sha256(table_bytes).hexdigest()
        manifest = {**body, "tables": {"file": "traj.npy", "sha256": digest}}
        assert (tmp_path / "traj.json").read_bytes() == oracle_bytes(manifest, spec)


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


# -- half-box trajectories, solved and read back through the CLI --------------

SOLVER = {"truncation": 5, "dt": 0.01, "t_final": 0.05}
TRAJECTORY_FILES = ("picard_trajectory.json", "stepper_trajectory.json")


def run_quietly(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return main(list(argv))


def write_run_config(path, out, **settings):
    initial = {"preset": "random-decay", "amplitude": 0.2, "seed": 7}
    config = {"initial_data": initial, "solver": SOLVER, "seed": 7, "output_dir": str(out)}
    path.write_text(json.dumps({**config, **settings}), encoding="utf-8")
    return str(path)


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.fixture(scope="module", params=[1, 2], ids=["1d", "2d"])
def solved(request, tmp_path_factory):
    """(dim, output directory, config path) of one CLI solve."""
    dim = request.param
    work = tmp_path_factory.mktemp(f"solve{dim}d")
    initial = {"preset": "random-decay", "amplitude": 0.2, "seed": 7, "dim": dim}
    cfg = write_run_config(work / "run.json", work / "out", initial_data=initial)
    assert run_quietly("solve", "--config", cfg) == 0
    return dim, work / "out", cfg


def test_compare_reads_back_the_solve_gap(solved, tmp_path):
    _, out, _ = solved
    paths = dict(zip(("trajectory_a", "trajectory_b"), (str(out / n) for n in TRAJECTORY_FILES)))
    cfg = write_run_config(tmp_path / "compare.json", tmp_path / "cmp", mode_options=paths)
    assert run_quietly("compare", "--config", cfg) == 0
    got = read_json(tmp_path / "cmp" / "summary.json")["max_wiener2_diff"]
    assert got == read_json(out / "summary.json")["max_engine_difference"]


def test_files_read_back_to_the_solution(solved):
    dim, out, _ = solved
    h0 = random_decay(SOLVER["truncation"], amplitude=0.2, dim=dim, seed=7)
    config = SolverConfig(**SOLVER)
    picard, _ = solve_picard(h0, certify(h0), config)
    marched = solve_timestep(h0, config)
    for name, solution in zip(TRAJECTORY_FILES, (picard, marched)):
        back = load_trajectory(out / name)
        np.testing.assert_array_equal(back.times, solution.times)
        np.testing.assert_array_equal(back.coeffs, solution.coeffs)
    field = FourierField.from_json_dict(read_json(out / "initial_field.json"))
    np.testing.assert_array_equal(field.coeffs, h0.coeffs)


def test_only_the_half_box_is_written(solved):
    # one mode per Hermitian pair: k_last > 0, or k_last = 0 and k_0 > 0
    _, out, _ = solved
    written = [entry[:-2] for entry in read_json(out / "initial_field.json")["coeffs"]]
    for name in TRAJECTORY_FILES:
        body = read_json(out / name)
        modes = body["modes"]
        # listed once per file, in lexicographic order, one column per node row
        assert all(a < b for a, b in zip(modes, modes[1:]))
        tables = np.load(out / body["tables"]["file"], allow_pickle=False)
        assert tables.shape == (2, len(body["times"]), len(modes))
        written += modes
    assert written
    outside = [k for k in written if not (k[-1] > 0 or (k[-1] == 0 and k[0] > 0))]
    assert outside == []


def test_repeated_solve_is_byte_identical(solved):
    _, out, cfg = solved
    first = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    assert run_quietly("solve", "--config", cfg) == 0
    assert {path.name: path.read_bytes() for path in sorted(out.iterdir())} == first
