"""End-to-end CLI runs: modes, exit codes, artifacts, determinism."""

import dataclasses
import hashlib
import io
import json
import math
import os
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import load_trajectory, save_trajectory
from reference import probe_rows
from epitaxy import cli, semigroup, stepper
from epitaxy.cli import EXIT_CERTIFICATE, EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION, main
from epitaxy.nonlinear import route_floats, series_chunk_nodes
from epitaxy.norms import certify, wiener_norm
from epitaxy.picard import solve_picard
from epitaxy.presets import random_decay
from epitaxy.semigroup import Trajectory, linear_trajectory
from epitaxy.spectral import FourierField
from epitaxy.stepper import SolverConfig


def write_config(path, **overrides):
    config = {
        "schema_version": 1,
        "initial_data": {"preset": "single-mode", "amplitude": 0.2, "k": 1, "dim": 1},
        "solver": {"truncation": 8, "dt": 0.01, "t_final": 0.5},
        "seed": 7,
        "output_dir": str(path.parent / "out"),
    }
    config.update(overrides)
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(out)


# A stored field whose coefficient list is a number: iterating it is a TypeError.
SCALAR_COEFFS = {"dim": 1, "truncation": 2, "coeffs": 5}


def write_scalar_trajectory(path):
    # the trajectory counterpart: a mode list that is a number has no length
    body = {"dim": 1, "truncation": 2, "times": [0.0], "modes": 5, "tables": np.zeros((2, 1, 0))}
    return save_trajectory(path, body)


def small_trajectory(nodes=5, truncation=4):
    """The linear flow of 0.1 cos(x) on ``nodes`` nodes of [0, 1]: one listed mode, [1]."""
    h0 = FourierField.from_modes(1, truncation, {(1,): 0.1})
    return linear_trajectory(h0, np.linspace(0.0, 1.0, nodes))


class TestCertifyMode:
    def test_passing_certificate(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.json")
        code, status = run_cli(capsys, "certify", "--config", str(cfg))
        assert code == EXIT_OK
        assert status["pass"] is True
        cert = json.loads((tmp_path / "out" / "certificate.json").read_text())
        assert cert["r0"] == pytest.approx(0.2)
        assert cert["smallness_threshold"] == 0.25
        assert cert["runspec"]["mode"] == "certify"

    def test_failing_certificate_still_reports(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "run.json",
            initial_data={"preset": "single-mode", "amplitude": 0.3},
        )
        code, status = run_cli(capsys, "certify", "--config", str(cfg))
        assert code == EXIT_OK  # certify reports; it does not gate
        assert status["pass"] is False

    @pytest.mark.parametrize(
        "initial,nulls",
        [
            # r0 + r1 overflows, and then inf - inf: Infinity and NaN were written
            (
                {"preset": "single-mode", "amplitude": 1e308},
                {"contraction_constant", "mapping_lhs"},
            ),
            # r0 itself overflows: "r0": Infinity in the file and the status line
            (
                {"path": "field.json"},
                {"r0", "r1", "contraction_constant", "mapping_lhs"},
            ),
        ],
        ids=["huge-amplitude", "huge-stored-coefficient"],
    )
    def test_overflowing_certificate_is_strict_json(self, tmp_path, capsys, initial, nulls):
        # Python's json reads NaN and Infinity back; a strict parser refuses them
        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        field = {"dim": 2, "truncation": 3, "coeffs": [[1, 1, 1e308, 0.0]]}
        (tmp_path / "field.json").write_text(json.dumps(field), encoding="utf-8")
        if "path" in initial:
            initial = {"path": str(tmp_path / initial["path"])}
        cfg = write_config(tmp_path / "run.json", initial_data=initial)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflowing norm is inf, quietly
            code = main(["certify", "--config", str(cfg)])
        status = json.loads(capsys.readouterr().out.strip().splitlines()[-1], parse_constant=refuse)
        assert code == EXIT_OK and status["pass"] is False
        text = (tmp_path / "out" / "certificate.json").read_text(encoding="utf-8")
        cert = json.loads(text, parse_constant=refuse)
        assert cert["pass"] is False
        assert {key for key, value in cert.items() if value is None} == nulls
        assert status["r0"] == cert["r0"]

    def test_scalar_coeffs_in_initial_data_path_is_validation_error(self, tmp_path, capsys):
        (tmp_path / "field.json").write_text(json.dumps(SCALAR_COEFFS), encoding="utf-8")
        cfg = write_config(tmp_path / "run.json", initial_data={"path": str(tmp_path / "field.json")})
        code, status = run_cli(capsys, "certify", "--config", str(cfg))
        assert code == EXIT_VALIDATION
        assert status["error"]["type"] == "ValidationError"
        assert "field.json" in status["error"]["message"]

    def test_fractional_mode_in_initial_data_path_is_validation_error(self, tmp_path, capsys):
        # int() read the mode 1.7 as k = 1 and certified that field
        field = {"dim": 1, "truncation": 2, "coeffs": [[1.7, 0.25, 0.0]]}
        (tmp_path / "field.json").write_text(json.dumps(field), encoding="utf-8")
        cfg = write_config(tmp_path / "run.json", initial_data={"path": str(tmp_path / "field.json")})
        code, status = run_cli(capsys, "certify", "--config", str(cfg))
        assert code == EXIT_VALIDATION
        assert "(1.7,) has a component that is not an integer" in status["error"]["message"]

    @pytest.mark.parametrize(
        "field,words",
        [
            ({"dim": 1, "truncation": 2, "coeffs": [[1, 0.25, 0.0, 0.0]]}, "wrong length for dim=1"),
            # int() read dim 1.9 as 1 and took true as truncation 1
            ({"dim": 1.9, "truncation": 2, "coeffs": []}, "must be integers, got 1.9 and 2"),
            ({"dim": 1, "truncation": True, "coeffs": []}, "must be integers, got 1 and True"),
            # float() read "1" as mode 1 and true as amplitude 1
            (
                {"dim": 1, "truncation": 4, "coeffs": [["1", "0.05", "0"]]},
                "coefficient entry ['1', '0.05', '0'] must hold JSON numbers only",
            ),
            (
                {"dim": 1, "truncation": 4, "coeffs": [[2, True, False]]},
                "coefficient entry [2, True, False] must hold JSON numbers only",
            ),
        ],
        ids=["ragged-entry", "fractional-dim", "bool-truncation", "string-entry", "bool-entry"],
    )
    def test_malformed_initial_data_path_is_validation_error(self, tmp_path, capsys, field, words):
        (tmp_path / "field.json").write_text(json.dumps(field), encoding="utf-8")
        cfg = write_config(tmp_path / "run.json", initial_data={"path": str(tmp_path / "field.json")})
        code, status = run_cli(capsys, "certify", "--config", str(cfg))
        assert code == EXIT_VALIDATION
        assert words in status["error"]["message"]

    def test_alpha_flag_overrides_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.json", alpha=0.1)
        code, _ = run_cli(capsys, "certify", "--config", str(cfg), "--alpha", "0.25")
        cert = json.loads((tmp_path / "out" / "certificate.json").read_text())
        assert cert["alpha"] == 0.25

    def test_seed_flag_overrides_config(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "run.json",
            initial_data={"preset": "random-decay", "amplitude": 0.2},
            seed=1,
        )
        code, _ = run_cli(capsys, "certify", "--config", str(cfg), "--seed", "99")
        cert = json.loads((tmp_path / "out" / "certificate.json").read_text())
        assert cert["runspec"]["seed"] == 99


class TestSweepMode:
    def test_threshold_pattern(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "run.json",
            mode_options={"amplitudes": [0.20, 0.24, 0.249, 0.251, 0.30]},
        )
        code, status = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == EXIT_OK
        assert status["pass_pattern"] == [True, True, True, False, False]
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("# runspec:")
        assert lines[1].split(",")[:2] == ["amplitude", "r0"]
        assert len(lines) == 7
        certs = sorted(p.name for p in (tmp_path / "out" / "certificates").iterdir())
        assert certs == [
            "amp_0.2.json",
            "amp_0.24.json",
            "amp_0.249.json",
            "amp_0.251.json",
            "amp_0.3.json",
        ]

    def test_sweep_with_solve_outcomes(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "run.json",
            solver={"truncation": 4, "dt": 0.02, "t_final": 0.2},
            mode_options={"amplitudes": [0.1, 0.3], "solve": True},
        )
        code, _ = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == EXIT_OK
        rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()[2:]
        outcomes = [r.split(",")[7] for r in rows]
        assert outcomes[0] == "converged"
        assert outcomes[1] in ("converged", "no-convergence", "numerical-error")

    def test_solving_sweep_ignores_the_base_amplitude(self, tmp_path, capsys):
        # every row replaces the amplitude, so a base value the preset would
        # reject (random-decay needs amplitude > 0) must not stop the sweep
        cfg = write_config(
            tmp_path / "run.json",
            initial_data={"preset": "random-decay", "amplitude": 0.0, "seed": 3},
            solver={"truncation": 4, "dt": 0.02, "t_final": 0.2},
            mode_options={"amplitudes": [0.1], "solve": True},
        )
        code, status = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == EXIT_OK
        assert status["pass_pattern"] == [True]

    def test_series_overflow_is_recorded_per_amplitude(self, tmp_path, capsys):
        # a fixed depth of 40 overflows the series past the threshold; the
        # sweep records that row as a numerical error and keeps the others
        cfg = write_config(
            tmp_path / "run.json",
            solver={"truncation": 8, "dt": 0.01, "t_final": 0.5, "taylor": {"max_j": 40}},
            mode_options={"amplitudes": [0.2, 2.0], "solve": True},
        )
        code, status = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == EXIT_OK
        rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()[2:]
        assert [r.split(",")[7] for r in rows] == ["converged", "numerical-error"]

    def test_close_amplitudes_keep_separate_certificates(self, tmp_path, capsys):
        # six significant digits would name both amp_0.249.json
        amplitudes = [0.249, 0.2490001]
        cfg = write_config(tmp_path / "run.json", mode_options={"amplitudes": amplitudes})
        code, _ = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == EXIT_OK
        certs = tmp_path / "out" / "certificates"
        assert len(list(certs.iterdir())) == 2
        r0 = [json.loads((certs / f"amp_{a!r}.json").read_text())["r0"] for a in amplitudes]
        assert r0[0] != r0[1]


class TestSolveMode:
    def test_full_run_artifacts(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "run.json",
            solver={"truncation": 6, "dt": 0.01, "t_final": 0.3},
        )
        code, status = run_cli(capsys, "solve", "--config", str(cfg))
        assert code == EXIT_OK
        out = tmp_path / "out"
        for name in (
            "certificate.json",
            "initial_field.json",
            "picard_trajectory.json",
            "picard_trajectory.npy",
            "stepper_trajectory.json",
            "stepper_trajectory.npy",
            "picard_diagnostics.csv",
            "engine_comparison.csv",
            "summary.json",
        ):
            assert (out / name).exists()
        assert sorted(status["artifacts"]) == sorted(path.name for path in out.iterdir())
        summary = json.loads((out / "summary.json").read_text())
        # quadrature error scales with dt^2; the tight 1e-6 agreement is
        # checked at dt = 1e-3 in the acceptance suite
        assert summary["max_engine_difference"] <= 1e-5
        picard = load_trajectory(out / "picard_trajectory.json")
        assert picard.times[-1] == pytest.approx(0.3)

    def test_failing_certificate_exits_three(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "run.json",
            initial_data={"preset": "single-mode", "amplitude": 0.3},
            solver={"truncation": 4, "dt": 0.02, "t_final": 0.1},
        )
        code, status = run_cli(capsys, "solve", "--config", str(cfg))
        assert code == EXIT_CERTIFICATE
        assert status["error"]["type"] == "CertificateError"
        # the certificate artifact is still written for inspection
        assert (tmp_path / "out" / "certificate.json").exists()

    def test_override_certificate_flag(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "run.json",
            initial_data={"preset": "single-mode", "amplitude": 0.26},
            solver={"truncation": 4, "dt": 0.02, "t_final": 0.1},
        )
        code, _ = run_cli(
            capsys, "solve", "--config", str(cfg), "--override-certificate"
        )
        assert code == EXIT_OK


    def test_series_overflow_exits_four(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "run.json",
            initial_data={"preset": "single-mode", "amplitude": 2.0},
            solver={"truncation": 8, "dt": 0.01, "t_final": 0.5, "taylor": {"max_j": 40}},
        )
        code, status = run_cli(
            capsys, "solve", "--config", str(cfg), "--override-certificate"
        )
        assert code == EXIT_NUMERICAL
        assert status["error"]["type"] == "NumericalError"
        assert "overflow" in status["error"]["message"]

    def test_solution_outside_the_ball_exits_four(self, tmp_path, capsys, monkeypatch):
        # a certificate whose r1 is three quarters of the distance the
        # solution reaches: the solve fails before any trajectory is written
        h0 = FourierField.from_modes(1, 8, {(1,): 0.1})  # the config's single mode
        config = SolverConfig(truncation=8, dt=0.01, t_final=0.5)
        cert = certify(h0)
        _, diag = solve_picard(h0, cert, config)
        shrunk = dataclasses.replace(cert, r1=0.75 * diag.ball_distances[-1])
        monkeypatch.setattr(cli, "certify", lambda field, alpha: shrunk)
        cfg = write_config(tmp_path / "run.json")
        code, status = run_cli(capsys, "solve", "--config", str(cfg))
        assert code == EXIT_NUMERICAL
        assert "left the certificate ball" in status["error"]["message"]
        assert not (tmp_path / "out" / "picard_trajectory.json").exists()


class TestProbeMode:
    def test_small_probe_suite(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "run.json",
            mode_options={
                "trajectories": 6,
                "alphas": [0.1, 0.5, 0.9],
                "dims": [1, 2],
                "max_truncation": 6,
                "t_final": 1.0,
                "dt": 0.01,
            },
        )
        code, status = run_cli(capsys, "probe-operator", "--config", str(cfg))
        assert code == EXIT_OK
        assert status["all_pass"] is True
        rows = (tmp_path / "out" / "operator_probe.csv").read_text().splitlines()
        assert rows[1] == "index,dim,truncation,alpha,ratio,bound,pass"
        assert len(rows) == 2 + 6 * 3

    @pytest.mark.parametrize(
        "seed,trajectories,dims,max_truncation",
        [
            (42, 100, [1, 2], 16),
            (3, 100, [1, 2], 16),
            (11, 100, [1, 2], 16),
            (5, 60, [1, 2], 2),
            (8, 50, [1], 2),
            (9, 40, [1], 9),
            (13, 40, [2], 9),
        ],
        ids=["benchmark-42", "benchmark-3", "benchmark-11", "n2", "1d-n2", "1d-n9", "2d-n9"],
    )
    def test_table_equals_the_per_trajectory_loop(
        self, tmp_path, capsys, seed, trajectories, dims, max_truncation
    ):
        # sparse draws probed in batches, one kernel per dim read at each
        # entry's mode, and unvalidated probe trajectories: the bytes of the
        # whole-box draw and probe, one validated trajectory and one kernel
        # at a time.  At a largest truncation of 2 the batches split.
        options = {
            "trajectories": trajectories,
            "alphas": [0.1, 0.5, 0.9],
            "dims": dims,
            "max_truncation": max_truncation,
            "t_final": 0.5,
            "dt": 0.01,
        }
        cfg = write_config(tmp_path / "run.json", seed=seed, mode_options=options)
        code, status = run_cli(capsys, "probe-operator", "--config", str(cfg))
        assert code == EXIT_OK
        rows = (tmp_path / "out" / "operator_probe.csv").read_text().splitlines()
        assert rows[2:] == probe_rows(seed, **options)

    @pytest.mark.parametrize(
        "dt,t_final",
        [(5.0, 0.5), (1.0, 0.4), (0.3, 0.5), (0.4, 1.0), (0.1 * (1 + 1e-8), 1.0)],
        ids=["dt-5", "dt-1", "dt-0.3", "dt-0.4", "dt-0.1-off-1e-8"],
    )
    def test_one_node_grid_is_refused(self, tmp_path, capsys, dt, t_final):
        # t_final / dt rounds to 0 steps: on one node every ratio read 0.0,
        # and the run passed with all_pass true; or dt does not divide
        # t_final, and the run took the step of the nearest step count
        cfg = write_config(tmp_path / "run.json", mode_options={"dt": dt, "t_final": t_final})
        code, status = run_cli(capsys, "probe-operator", "--config", str(cfg))
        assert code == EXIT_VALIDATION
        assert status["error"]["type"] == "ValidationError"
        message = status["error"]["message"]
        assert "mode_options.dt" in message and "mode_options.t_final" in message
        assert not (tmp_path / "out" / "operator_probe.csv").exists()

    def test_step_off_by_rounding_alone_is_accepted(self, tmp_path, capsys):
        # 3 * 0.1 is 0.30000000000000004: the probe runs on the 4 nodes of [0, 0.3]
        options = {
            "trajectories": 4,
            "alphas": [0.5],
            "dims": [1, 2],
            "max_truncation": 4,
            "t_final": 0.3,
            "dt": 0.1,
        }
        cfg = write_config(tmp_path / "run.json", mode_options=options)
        code, status = run_cli(capsys, "probe-operator", "--config", str(cfg))
        assert code == EXIT_OK
        rows = (tmp_path / "out" / "operator_probe.csv").read_text().splitlines()
        assert rows[2:] == probe_rows(7, **options)

    @pytest.mark.parametrize("alpha", [math.nan, 0.0, 1.0, 1.5], ids=["nan", "0", "1", "1.5"])
    def test_alpha_outside_unit_interval_refused_before_probing(
        self, tmp_path, capsys, monkeypatch, alpha
    ):
        def undrawn(*args):
            pytest.fail("a probe trajectory was drawn before the alphas were checked")

        monkeypatch.setattr(semigroup, "_draw_probe_case", undrawn)
        cfg = write_config(tmp_path / "run.json", mode_options={"alphas": [0.5, alpha]})
        code, status = run_cli(capsys, "probe-operator", "--config", str(cfg))
        assert code == EXIT_VALIDATION
        assert status["error"]["type"] == "ValidationError"
        message = status["error"]["message"]
        assert "mode_options.alphas" in message and f"got {alpha}" in message


class TestCompareMode:
    def test_difference_norms(self, tmp_path, capsys):
        h0 = FourierField.from_modes(1, 4, {(1,): 0.1})
        times = np.linspace(0.0, 1.0, 11)
        a = linear_trajectory(h0, times)
        b = linear_trajectory(h0 * 1.001, times)
        save_trajectory(tmp_path / "a.json", a)
        save_trajectory(tmp_path / "b.json", b)
        cfg = write_config(
            tmp_path / "run.json",
            mode_options={
                "trajectory_a": str(tmp_path / "a.json"),
                "trajectory_b": str(tmp_path / "b.json"),
            },
        )
        code, status = run_cli(capsys, "compare", "--config", str(cfg))
        assert code == EXIT_OK
        assert status["max_wiener2_diff"] == pytest.approx(2e-4, rel=1e-6)

    def test_only_shared_nodes_are_compared(self):
        h0 = FourierField.from_modes(1, 4, {(1,): 0.1})
        a = linear_trajectory(h0, np.linspace(0.0, 1.0, 11))
        b = linear_trajectory(h0 * 1.001, np.linspace(0.0, 1.0, 11))
        expected = wiener_norm(Trajectory(a.times, a.coeffs - b.coeffs), 2)
        rows, worst = cli._comparison(a, b)
        assert rows == [f"{t!r},{gap!r}" for t, gap in zip(a.times.tolist(), expected.tolist())]
        assert worst == max(expected)
        # a coarser grid: only the nodes both hold are compared
        coarse = linear_trajectory(h0 * 1.001, np.linspace(0.0, 1.0, 6))
        rows, worst = cli._comparison(a, coarse)
        shared = zip(a.times.tolist()[::2], expected[::2].tolist())
        assert rows == [f"{t!r},{gap!r}" for t, gap in shared]
        assert worst == max(expected[::2])

    def test_missing_option_is_validation_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.json", mode_options={})
        code, status = run_cli(capsys, "compare", "--config", str(cfg))
        assert code == EXIT_VALIDATION
        assert "trajectory_a" in status["error"]["message"]

    @staticmethod
    def compare_with_bad_b(tmp_path, capsys, write_bad):
        """Run ``compare`` on a good file a.json and a file b.json that
        ``write_bad(path, data)`` writes from the good file's JSON form."""
        traj = small_trajectory(nodes=11)
        data = traj.to_json_dict()
        assert data["modes"] == [[1]]
        save_trajectory(tmp_path / "a.json", traj)
        write_bad(tmp_path / "b.json", data)
        cfg = write_config(
            tmp_path / "run.json",
            mode_options={
                "trajectory_a": str(tmp_path / "a.json"),
                "trajectory_b": str(tmp_path / "b.json"),
            },
        )
        code, status = run_cli(capsys, "compare", "--config", str(cfg))
        assert code == EXIT_VALIDATION
        assert status["error"]["type"] == "ValidationError"
        assert "b.json" in status["error"]["message"]
        return status["error"]["message"]

    def test_ragged_coefficient_entry_is_validation_error(self, tmp_path, capsys):
        # a ragged table can only be saved as an object array, which the
        # reader refuses rather than unpickle
        def ragged(path, data):
            rows = data["tables"].tolist()
            rows[0][3].append(0.0)  # one node row longer than the mode list
            save_trajectory(path, {**data, "tables": np.array(rows, dtype=object)})

        message = self.compare_with_bad_b(tmp_path, capsys, ragged)
        assert "Object arrays cannot be loaded when allow_pickle=False" in message

    @staticmethod
    def saving(edit):
        """A writer of b.json, and b.npy beside it, from ``edit(data)``."""
        return lambda path, data: save_trajectory(path, edit(data))

    @staticmethod
    def editing_manifest(edit):
        """A writer of a good b.json whose manifest is then replaced by ``edit(manifest)``."""

        def write(path, data):
            save_trajectory(path, data)
            path.write_text(json.dumps(edit(json.loads(path.read_text()))))

        return write

    @staticmethod
    def with_reference(**changes):
        return lambda m: {**m, "tables": {**m["tables"], **changes}}

    @staticmethod
    def header_claiming(shape):
        """A writer of a b.npy whose NPY header claims ``shape`` over the good data."""

        def write(path, data):
            header = io.BytesIO()
            fields = {"descr": "<f8", "fortran_order": False, "shape": shape}
            np.lib.format.write_array_header_1_0(header, fields)
            path.with_suffix(".npy").write_bytes(header.getvalue() + data["tables"].tobytes())
            digest = hashlib.sha256(path.with_suffix(".npy").read_bytes()).hexdigest()
            manifest = {**data, "tables": {"file": "b.npy", "sha256": digest}}
            path.write_text(json.dumps(manifest))

        return write

    @staticmethod
    def writing(body):
        return lambda path, data: path.write_text(json.dumps(body))

    @staticmethod
    def clashing_partners(data):
        # mode -1 listed beside 1 with a real part 0.5 off conj(coeff(1))
        re, im = data["tables"]
        tables = np.stack((np.hstack((re + 0.5, re)), np.hstack((-im, im))))
        return {**data, "modes": [[-1], [1]], "tables": tables}

    # a good trajectory file edited into a malformed one, and the words of the
    # refusal; the linear flow of 0.1 cos(x) at N = 4 lists the one mode [1]
    # at 11 nodes, so its tables have shape (2, 11, 1)
    MALFORMED_FILES = {
        # the re and the im rows of a table are one array, so both have the wrong shape
        "re-wider-than-modes": (
            saving(lambda d: {**d, "tables": np.concatenate((d["tables"],) * 2, axis=2)}),
            "tables have shape (2, 11, 2), expected (2, 11, 1)",
        ),
        "im-shorter-than-times": (
            saving(lambda d: {**d, "tables": d["tables"][:, :-1]}),
            "tables have shape (2, 10, 1), expected (2, 11, 1)",
        ),
        "float32-table": (
            saving(lambda d: {**d, "tables": d["tables"].astype(np.float32)}),
            "tables must be a little-endian float64 array, got float32",
        ),
        "big-endian-table": (
            saving(lambda d: {**d, "tables": d["tables"].astype(">f8")}),
            "tables must be a little-endian float64 array, got >f8",
        ),
        # NPY headers that claim more data than the file holds
        "header-beyond-address-space": (header_claiming((2, 10**15, 1)), "Unable to allocate"),
        "header-beyond-int64": (header_claiming((2, 10**30, 1)), "too large to convert"),
        "partner-clash": (saving(clashing_partners), "not conjugate partners"),
        # float() read "0.1" as 0.1, and true as 1.0
        "string-times": (
            saving(lambda d: {**d, "times": [repr(t) for t in d["times"]]}),
            "times must be a list of JSON numbers",
        ),
        "bool-times": (
            saving(lambda d: {**d, "times": [False] + [True] * (len(d["times"]) - 1)}),
            "times must be a list of JSON numbers",
        ),
        "mode-outside-box": (saving(lambda d: {**d, "modes": [[5]]}), "outside truncation 4"),
        "zero-mode": (saving(lambda d: {**d, "modes": [[0]]}), "zero mode must vanish"),
        "repeated-mode": (
            saving(
                lambda d: {
                    **d,
                    "modes": [[1], [1]],
                    "tables": np.concatenate((d["tables"],) * 2, axis=2),
                }
            ),
            "more than once",
        ),
        # int() read 1.7 as 1 and -0.5 as the zero mode
        "packed-fractional-mode": (saving(lambda d: {**d, "modes": [[1.7]]}), "not an integer"),
        # float() read "1" and true as the mode 1
        "string-mode": (
            saving(lambda d: {**d, "modes": [["1"]]}),
            "mode ['1'] must hold JSON numbers only",
        ),
        "bool-mode": (
            saving(lambda d: {**d, "modes": [[True]]}),
            "mode [True] must hold JSON numbers only",
        ),
        # int() read dim 1.9 as 1 and took true as truncation 1
        "fractional-dim": (saving(lambda d: {**d, "dim": 1.9}), "must be integers, got 1.9 and 4"),
        "bool-truncation": (
            saving(lambda d: {**d, "truncation": True}),
            "dim and truncation must be integers, got 1 and True",
        ),
        "digest-mismatch": (
            editing_manifest(with_reference(sha256="0" * 64)),
            "b.npy does not match the sha256 digest its manifest records",
        ),
        "missing-table-file": (
            editing_manifest(with_reference(file="gone.npy")),
            "No such file or directory",
        ),
        "table-file-in-subfolder": (
            editing_manifest(with_reference(file="sub/b.npy")),
            "tables.file must name a file beside the manifest, got 'sub/b.npy'",
        ),
        "table-file-in-parent": (
            editing_manifest(with_reference(file="../b.npy")),
            "tables.file must name a file beside the manifest, got '../b.npy'",
        ),
        "table-file-dotdot": (
            editing_manifest(with_reference(file="..")),
            "tables.file must name a file beside the manifest, got '..'",
        ),
        "earlier-fields-form": (
            writing(
                {
                    "times": [0.0, 0.1],
                    "fields": [{"dim": 1, "truncation": 4, "coeffs": [[1, 0.25, 0.0]]}] * 2,
                }
            ),
            "holds the per-node 'fields' form written by an earlier version",
        ),
        # the form is refused before any entry is read, so a malformed entry
        # does not turn the refusal into a parse error
        "fields-fractional-mode": (
            writing(
                {
                    "times": [0.0, 0.1],
                    "fields": [{"dim": 1, "truncation": 4, "coeffs": [[1.7, 0.25, 0.0]]}] * 2,
                }
            ),
            "holds the per-node 'fields' form written by an earlier version",
        ),
        "earlier-packed-json-form": (
            writing(
                {
                    "dim": 1,
                    "truncation": 4,
                    "times": [0.0, 0.1],
                    "modes": [[1]],
                    "re": [[0.25], [0.2]],
                    "im": [[0.0], [0.0]],
                }
            ),
            "holds the packed JSON-table ('re' and 'im') form written by an earlier version",
        ),
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED_FILES))
    def test_malformed_trajectory_is_validation_error(self, tmp_path, capsys, case):
        write_bad, words = self.MALFORMED_FILES[case]
        assert words in self.compare_with_bad_b(tmp_path, capsys, write_bad)

    def test_scalar_coeffs_is_validation_error(self, tmp_path, capsys):
        good = linear_trajectory(FourierField.from_modes(1, 2, {(1,): 0.1}), [0.0])
        save_trajectory(tmp_path / "a.json", good)
        cfg = write_config(
            tmp_path / "run.json",
            mode_options={
                "trajectory_a": str(tmp_path / "a.json"),
                "trajectory_b": str(write_scalar_trajectory(tmp_path / "b.json")),
            },
        )
        code, status = run_cli(capsys, "compare", "--config", str(cfg))
        assert code == EXIT_VALIDATION
        assert status["error"]["type"] == "ValidationError"
        assert "b.json" in status["error"]["message"]


class TestRadiusMode:
    def test_radius_artifacts_from_solve(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "run.json",
            solver={"truncation": 8, "dt": 0.01, "t_final": 1.5},
        )
        code, _ = run_cli(capsys, "solve", "--config", str(cfg))
        assert code == EXIT_OK
        cert = json.loads((tmp_path / "out" / "certificate.json").read_text())
        cfg2 = write_config(
            tmp_path / "run2.json",
            output_dir=str(tmp_path / "radius-out"),
            mode_options={
                "trajectory": str(tmp_path / "out" / "picard_trajectory.json"),
                "alpha": cert["alpha"],
                "fit_window": [0.5, 1.5],
            },
        )
        code, status = run_cli(capsys, "radius", "--config", str(cfg2))
        assert code == EXIT_OK
        fit = json.loads((tmp_path / "radius-out" / "radius_fit.json").read_text())
        assert fit["slope"] >= cert["alpha"] - 0.05
        assert fit["r_squared"] >= 0.99
        rows = (tmp_path / "radius-out" / "radius.csv").read_text().splitlines()
        assert rows[1] == "t,rho,r_squared,n_shells"

    def test_alpha_required(self, tmp_path, capsys):
        traj = linear_trajectory(
            FourierField.from_modes(1, 4, {(1,): 0.1}), np.linspace(0, 1, 5)
        )
        save_trajectory(tmp_path / "t.json", traj)
        cfg = write_config(
            tmp_path / "run.json", mode_options={"trajectory": str(tmp_path / "t.json")}
        )
        code, status = run_cli(capsys, "radius", "--config", str(cfg))
        assert code == EXIT_VALIDATION
        assert "alpha" in status["error"]["message"]

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "1.5"])
    def test_alpha_flag_outside_unit_interval_refused(self, tmp_path, capsys, value):
        # nan and inf exited 0, with NaN or Infinity in the status line and radius_fit.json
        save_trajectory(tmp_path / "t.json", small_trajectory())
        cfg = write_config(
            tmp_path / "run.json", mode_options={"trajectory": str(tmp_path / "t.json")}
        )
        code, status = run_cli(capsys, "radius", "--config", str(cfg), "--alpha", value)
        assert code == EXIT_VALIDATION
        assert "alpha must lie strictly in (0, 1)" in status["error"]["message"]
        assert not (tmp_path / "out" / "radius_fit.json").exists()

    def test_nodes_with_too_few_shells_are_skipped(self, tmp_path, capsys):
        # 0.1 cos(x) has one shell at every node: each node is skipped, and
        # the refusal is the empty fit window, not the floor
        save_trajectory(tmp_path / "t.json", small_trajectory())
        cfg = write_config(
            tmp_path / "run.json",
            mode_options={"trajectory": str(tmp_path / "t.json"), "alpha": 0.5},
        )
        code, status = run_cli(capsys, "radius", "--config", str(cfg))
        assert code == EXIT_VALIDATION
        assert "contains 0 usable nodes" in status["error"]["message"]

    def test_scalar_coeffs_is_validation_error(self, tmp_path, capsys):
        path = write_scalar_trajectory(tmp_path / "t.json")
        cfg = write_config(
            tmp_path / "run.json", alpha=0.5, mode_options={"trajectory": str(path)}
        )
        code, status = run_cli(capsys, "radius", "--config", str(cfg))
        assert code == EXIT_VALIDATION
        assert status["error"]["type"] == "ValidationError"
        assert "t.json" in status["error"]["message"]


class TestMemoryGuard:
    # 4e9 time nodes of 1,089 modes: hundreds of TB, more than any host holds
    HUGE_SOLVER = {"truncation": 16, "dt": 1e-9, "t_final": 4.0}
    TWO_D = {"preset": "two-mode", "amplitude": 0.2, "dim": 2}

    @pytest.fixture(autouse=True)
    def no_time_grid(self, monkeypatch):
        def refuse(dt, t_final):
            pytest.fail("a time grid was built for a run the guard should refuse")

        # the one builder, under each name the solver config and the probe call
        monkeypatch.setattr(stepper, "uniform_grid", refuse)
        monkeypatch.setattr(cli, "uniform_grid", refuse)

    def test_solve_refused_before_allocating(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.json", initial_data=self.TWO_D, solver=self.HUGE_SOLVER)
        code, status = run_cli(capsys, "solve", "--config", str(cfg))
        assert code == EXIT_VALIDATION
        assert status["error"]["type"] == "ValidationError"
        assert "GiB" in status["error"]["message"]
        assert "4000000001 time nodes" in status["error"]["message"]
        assert not (tmp_path / "out" / "certificate.json").exists()

    def test_solving_sweep_refused_before_allocating(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "run.json",
            initial_data=self.TWO_D,
            solver=self.HUGE_SOLVER,
            mode_options={"amplitudes": [0.1, 0.2], "solve": True},
        )
        code, status = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == EXIT_VALIDATION
        assert "GiB" in status["error"]["message"]
        assert not (tmp_path / "out" / "certificates").exists()

    def test_write_peak_is_counted(self, tmp_path, capsys, monkeypatch):
        # 51 nodes of 17 modes, the series sum's 3 grids of 51 x 34 points and
        # the route's matrices.  The guard counts the larger of the Picard peak
        # and the write peak: one byte less than that estimate is refused, and
        # exactly that estimate fits
        trajectory = 51 * 17 * 16
        grids = cli.SERIES_GRID_ARRAYS * 51 * 34 + cli.ROUTE_BUILD_ARRAYS * 4 * 34 * 9
        high = max(cli.PICARD_LIVE_TRAJECTORIES, cli.WRITE_LIVE_TRAJECTORIES)
        cfg = write_config(tmp_path / "run.json")  # N = 8, dt = 0.01, T = 0.5
        pages = {"SC_PHYS_PAGES": high * trajectory + grids * 8 - 1, "SC_PAGE_SIZE": 1}
        monkeypatch.setattr(cli.os, "sysconf", pages.__getitem__)
        code, status = run_cli(capsys, "solve", "--config", str(cfg))
        assert code == EXIT_VALIDATION
        assert (
            f"51 time nodes ({high} trajectories of 17 modes plus {grids} padded-grid points)"
            in status["error"]["message"]
        )
        assert not (tmp_path / "out" / "certificate.json").exists()
        pages["SC_PHYS_PAGES"] += 1
        cli.check_memory(SolverConfig(truncation=8, dt=0.01, t_final=0.5), dim=1)

    def test_padded_grids_are_counted(self, tmp_path, capsys, monkeypatch):
        # 11 nodes of a 2-D box at N = 16 and padding 4: the series sum works on
        # chunks of 132^2-point grids, and a Picard solve peaked at 6.54
        # trajectory sizes under tracemalloc.  With room for 6, an estimate of
        # the coefficient arrays alone would let it through; the grids refuse it
        trajectory = 11 * 33**2 * 16
        grids = cli.SERIES_GRID_ARRAYS * series_chunk_nodes(2, 132) * 132**2
        grids += cli.ROUTE_BUILD_ARRAYS * route_floats(2, 16, 132)
        live = max(cli.PICARD_LIVE_TRAJECTORIES, cli.WRITE_LIVE_TRAJECTORIES)
        pages = {"SC_PHYS_PAGES": 6 * trajectory, "SC_PAGE_SIZE": 1}
        assert live * trajectory <= pages["SC_PHYS_PAGES"] < live * trajectory + grids * 8
        monkeypatch.setattr(cli.os, "sysconf", pages.__getitem__)
        cfg = write_config(
            tmp_path / "run.json",
            initial_data=self.TWO_D,
            solver={"truncation": 16, "dt": 0.01, "t_final": 0.1, "padding": 4.0},
        )
        code, status = run_cli(capsys, "solve", "--config", str(cfg))
        assert code == EXIT_VALIDATION
        assert (
            f"11 time nodes ({live} trajectories of 1089 modes plus {grids} padded-grid points)"
            in status["error"]["message"]
        )
        assert not (tmp_path / "out" / "certificate.json").exists()

    def test_route_matrices_are_counted(self, monkeypatch):
        # 2 nodes at N = 4096 in 1-D: the trajectories and the series grids take
        # about 2 MB, but the route's DFT matrices grow as N^2: 4 x 16386 x 4097
        # floats, counted twice for the build
        config = SolverConfig(truncation=4096, dt=0.1, t_final=0.1)
        route = cli.ROUTE_BUILD_ARRAYS * 4 * 16386 * 4097 * 8
        pages = {"SC_PHYS_PAGES": route, "SC_PAGE_SIZE": 1}
        monkeypatch.setattr(cli.os, "sysconf", pages.__getitem__)
        with pytest.raises(cli.ValidationError, match="GiB"):
            cli.check_memory(config, dim=1)
        pages["SC_PHYS_PAGES"] += 2**22
        cli.check_memory(config, dim=1)

    def test_certify_preset_refused_before_allocating(self, tmp_path, capsys):
        # one 2-D box at N = 10**8 is about 6e17 bytes
        cfg = write_config(
            tmp_path / "run.json", initial_data=self.TWO_D, solver={"truncation": 10**8}
        )
        code, status = run_cli(capsys, "certify", "--config", str(cfg))
        assert code == EXIT_VALIDATION
        assert "GiB for 1 time nodes" in status["error"]["message"]
        assert not (tmp_path / "out" / "certificate.json").exists()

    @pytest.mark.parametrize(
        "stored,solver_truncation,reason",
        [
            ({"dim": 1, "truncation": 10**12}, 8, "exceeds solver truncation 8"),
            ({"dim": 2, "truncation": 10**8}, 10**8, "GiB for 1 time nodes"),
        ],
        ids=["wider-than-solver", "solver-box-too-large"],
    )
    def test_certify_field_file_refused_before_allocating(
        self, tmp_path, capsys, stored, solver_truncation, reason
    ):
        path = tmp_path / "field.json"
        path.write_text(json.dumps({**stored, "coeffs": []}), encoding="utf-8")
        cfg = write_config(
            tmp_path / "run.json",
            initial_data={"path": str(path)},
            solver={"truncation": solver_truncation},
        )
        code, status = run_cli(capsys, "certify", "--config", str(cfg))
        assert code == EXIT_VALIDATION
        assert status["error"]["type"] == "ValidationError"
        assert reason in status["error"]["message"]

    @pytest.mark.parametrize(
        "options,reason",
        [
            ({"dt": 1e-15, "t_final": 2.0}, "2000000000000001 time nodes (2 trajectories"),
            ({"max_truncation": 1e308}, "trajectories of "),  # exact, not an overflow
            # its table's rows grew without bound, one case after another
            ({"trajectories": 10**18}, "plus 3000000000000000000 table rows"),
        ],
        ids=["tiny-dt", "huge-truncation", "huge-table"],
    )
    def test_probe_refused_before_allocating(self, tmp_path, capsys, options, reason):
        cfg = write_config(tmp_path / "run.json", mode_options=options)
        code, status = run_cli(capsys, "probe-operator", "--config", str(cfg))
        assert code == EXIT_VALIDATION
        assert status["error"]["type"] == "ValidationError"
        assert "GiB" in status["error"]["message"]
        assert reason in status["error"]["message"]
        assert not (tmp_path / "out" / "operator_probe.csv").exists()

    @pytest.mark.parametrize("dim", [1, 2])
    def test_trajectory_file_refused_before_allocating(self, tmp_path, capsys, monkeypatch, dim):
        # a 1-D file with truncation 10**12 died in numpy with "Unable to
        # allocate 14.2 PiB" and exit code 1
        save_trajectory(tmp_path / "t.json", {**small_trajectory().to_json_dict(), "dim": dim})
        manifest = json.loads((tmp_path / "t.json").read_text())
        (tmp_path / "t.json").write_text(json.dumps({**manifest, "truncation": 10**12}))

        def unread(*args):
            pytest.fail("the tables were read for a trajectory the guard should refuse")

        monkeypatch.setattr(cli, "_read_tables", unread)
        cfg = write_config(
            tmp_path / "run.json", alpha=0.5, mode_options={"trajectory": str(tmp_path / "t.json")}
        )
        code, status = run_cli(capsys, "radius", "--config", str(cfg))
        assert code == EXIT_VALIDATION
        assert status["error"]["type"] == "ValidationError"
        modes = (2 * 10**12 + 1) ** dim
        reads = cli.READ_LIVE_TRAJECTORIES
        assert f"GiB for 5 time nodes ({reads} trajectories of {modes} modes)" in (
            status["error"]["message"]
        )

    def test_certificate_sweep_is_not_guarded(self, tmp_path, capsys):
        # without solving, a sweep builds no trajectory and needs no estimate
        cfg = write_config(
            tmp_path / "run.json",
            initial_data=self.TWO_D,
            solver=self.HUGE_SOLVER,
            mode_options={"amplitudes": [0.1, 0.2]},
        )
        code, status = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == EXIT_OK
        assert status["pass_pattern"] == [True, True]


@pytest.mark.parametrize("dim", [1, 2])
def test_picard_peak_is_within_the_memory_estimate(monkeypatch, dim):
    # one whole solve_picard under tracemalloc, after a solve that builds
    # the cached grids and matrices: with physical memory one byte below
    # its peak the guard refuses the run, so its estimate covers the peak
    h0 = random_decay(8, 7, 0.2, dim=dim)
    cert = certify(h0)
    config = SolverConfig(truncation=8, dt=1e-3, t_final=0.1)
    solve_picard(h0, cert, config)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        solve_picard(h0, cert, config)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    pages = {"SC_PHYS_PAGES": peak - 1, "SC_PAGE_SIZE": 1}
    monkeypatch.setattr(cli.os, "sysconf", pages.__getitem__)
    with pytest.raises(cli.ValidationError, match="GiB"):
        cli.check_memory(config, dim)


@pytest.mark.parametrize(
    "trajectories,dims,max_truncation,t_final",
    [(2, [1], 2, 500.0), (2, [2], 16, 10.0), (200, [1, 2], 2, 5.0)],
    ids=["1d-n2", "2d-n16", "n2-many"],
)
def test_probe_peak_is_within_the_memory_estimate(
    tmp_path, capsys, monkeypatch, trajectories, dims, max_truncation, t_final
):
    # one whole probe run under tracemalloc, after a short run that builds
    # the cached grids: with physical memory one byte below its peak the
    # guard refuses the run, so its estimate covers the peak.  At N = 2 in
    # 1-D, over 50,001 nodes, the kernel and the grid weigh most beside the
    # boxes.  200 trajectories at N = 2 fill and close the batches over 60
    # times, a few trajectories each
    options = {
        "trajectories": trajectories,
        "dims": dims,
        "max_truncation": max_truncation,
        "dt": 0.01,
    }
    cfg = write_config(tmp_path / "run.json", mode_options={**options, "t_final": 0.1})
    assert run_cli(capsys, "probe-operator", "--config", str(cfg))[0] == EXIT_OK
    cfg = write_config(tmp_path / "run.json", mode_options={**options, "t_final": t_final})
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        code, _ = run_cli(capsys, "probe-operator", "--config", str(cfg))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    pages = {"SC_PHYS_PAGES": peak - 1, "SC_PAGE_SIZE": 1}
    monkeypatch.setattr(cli.os, "sysconf", pages.__getitem__)
    code, status = run_cli(capsys, "probe-operator", "--config", str(cfg))
    assert code == EXIT_VALIDATION
    assert "GiB" in status["error"]["message"]


class TestConfigValidation:
    @pytest.mark.parametrize(
        "solver,key",
        [
            ({"truncation": 4, "tfinal": 0.5}, "tfinal"),
            ({"truncation": 8, "dt": 0.01, "t_final": 0.5, "scheme": "if-rk4"}, "scheme"),
        ],
        ids=["misspelt", "removed"],
    )
    def test_unknown_solver_key_is_refused(self, tmp_path, capsys, solver, key):
        cfg = write_config(tmp_path / "run.json", solver=solver)
        code, status = run_cli(capsys, "certify", "--config", str(cfg))
        assert code == EXIT_VALIDATION
        assert status["error"]["type"] == "ValidationError"
        assert f"unknown solver key {key!r}" in status["error"]["message"]

    # mode, config entries, the key the refusal must name, and any flags; a
    # radius run also gets a stored trajectory and an alpha in its mode_options
    MALFORMED = {
        "probe-dt-zero": ("probe-operator", {"mode_options": {"dt": 0}}, "dt"),
        "probe-alphas-scalar": ("probe-operator", {"mode_options": {"alphas": 5}}, "alphas"),
        "probe-dims-three": ("probe-operator", {"mode_options": {"dims": [1, 3]}}, "dims"),
        "probe-truncation-one": (
            "probe-operator", {"mode_options": {"max_truncation": 1}}, "max_truncation"
        ),
        "sweep-amplitudes-scalar": ("sweep", {"mode_options": {"amplitudes": 5}}, "amplitudes"),
        "radius-window-short": ("radius", {"mode_options": {"fit_window": [0.1]}}, "fit_window"),
        "radius-window-scalar": ("radius", {"mode_options": {"fit_window": 3}}, "fit_window"),
        # NaN and Infinity in radius_fit.json are not JSON
        "radius-alpha-nan": ("radius", {"mode_options": {"alpha": math.nan}}, "mode_options.alpha"),
        "radius-alpha-inf": ("radius", {"mode_options": {"alpha": math.inf}}, "mode_options.alpha"),
        "radius-alpha-above-one": (
            "radius", {"mode_options": {"alpha": 1.5}}, "mode_options.alpha"
        ),
        "radius-config-alpha-zero": ("radius", {"alpha": 0.0, "mode_options": {}}, "alpha"),
        # a bad floor was swallowed at every node, then reported as 0 usable nodes
        "radius-floor-negative": ("radius", {"mode_options": {"floor": -1}}, "mode_options.floor"),
        "radius-floor-nan": ("radius", {"mode_options": {"floor": math.nan}}, "mode_options.floor"),
        "radius-floor-inf": ("radius", {"mode_options": {"floor": math.inf}}, "mode_options.floor"),
        "initial-data-list": ("certify", {"initial_data": [1, 2]}, "initial_data"),
        "mode-options-list": ("certify", {"mode_options": [1]}, "mode_options"),
        "taylor-scalar": ("certify", {"solver": {"truncation": 8, "taylor": 5}}, "taylor"),
        # the default dt 0.5 / truncation**4 overflows a float
        "truncation-overflow": ("certify", {"solver": {"truncation": 1e300}}, "solver config"),
        # strings are truthy: "false" must not iterate past a failed certificate
        "override-certificate-string": (
            "solve",
            {
                "override_certificate": "false",
                "initial_data": {"preset": "single-mode", "amplitude": 0.3},
            },
            "override_certificate",
        ),
        "sweep-solve-string": (
            "sweep", {"mode_options": {"amplitudes": [0.2], "solve": "no"}}, "mode_options.solve"
        ),
        # int() would truncate a fraction and take true as 1
        "truncation-fraction": ("certify", {"solver": {"truncation": 8.7}}, "solver.truncation"),
        "seed-bool": ("certify", {"seed": True}, "seed"),
        "k-fraction": (
            "certify",
            {"initial_data": {"preset": "single-mode", "amplitude": 0.2, "k": 1.9}},
            "initial_data.k",
        ),
        "max-j-fraction": (
            "certify",
            {"solver": {"truncation": 8, "taylor": {"max_j": 2.5}}},
            "solver.taylor.max_j",
        ),
        # nan passed a `padding < 1` test; inf padding overflowed mid-solve
        "padding-infinite": (
            "solve", {"solver": {"truncation": 8, "padding": math.inf}}, "padding"
        ),
        "padding-nan": ("solve", {"solver": {"truncation": 8, "padding": math.nan}}, "padding"),
        "tol-infinite": ("solve", {"solver": {"truncation": 8, "tol": math.inf}}, "tol"),
        # float() would read a numeric string and take true as 1.0
        "amplitude-string": (
            "certify",
            {"initial_data": {"preset": "single-mode", "amplitude": "0.2"}},
            "initial_data.amplitude",
        ),
        "amplitude-bool": (
            "certify",
            {"initial_data": {"preset": "single-mode", "amplitude": True}},
            "initial_data.amplitude",
        ),
        "dt-string": ("certify", {"solver": {"truncation": 8, "dt": "0.001"}}, "solver.dt"),
        # numpy's "expected non-negative integer" came after run.json, naming no key
        "seed-flag-negative": ("probe-operator", {}, "seed must be", "--seed", "-1"),
        "seed-negative": ("certify", {"seed": -1}, "seed must be"),
        # certify's own check raised a bare ValueError
        "alpha-flag-above-one": ("certify", {}, "alpha must lie", "--alpha", "1.5"),
        "alpha-above-one": ("certify", {"alpha": 1.5}, "alpha must lie"),
        # a misspelt or misplaced key was ignored, and its default used
        "amplitude-misspelt": (
            "certify",
            {"initial_data": {"preset": "single-mode", "amplitude": 0.2, "amplitud": 0.3}},
            "unknown initial_data key 'amplitud'",
        ),
        "probe-trajectories-misspelt": (
            "probe-operator", {"mode_options": {"trajectorie": 2}}, "key 'trajectorie'"
        ),
        "certify-options-misspelt": (
            "certify", {"mode_options": {"trajectorie": 2}}, "key 'trajectorie'"
        ),
        "certify-options-out-of-range": (
            "certify", {"mode_options": {"alphas": [1.5]}}, "mode_options.alphas"
        ),
        "seed-misspelt": ("certify", {"seeed": 3}, "unknown top-level key 'seeed'"),
        "two-mode-k": (
            "certify", {"initial_data": {"preset": "two-mode", "k": 2}}, "initial_data key 'k'"
        ),
        "two-mode-seed": (
            "certify", {"initial_data": {"preset": "two-mode", "seed": 2}}, "data key 'seed'"
        ),
        "preset-beside-path": (
            "certify",
            {"initial_data": {"path": "field.json", "preset": "single-mode"}},
            "initial_data key 'preset'",
        ),
        "sweep-solve-misspelt": (
            "sweep", {"mode_options": {"amplitudes": [0.2], "solv": True}}, "key 'solv'"
        ),
        "max-j-misspelt": (
            "certify", {"solver": {"truncation": 8, "taylor": {"max_jj": 4}}}, "key 'max_jj'"
        ),
        # max_j won, and tail_tol was ignored
        "taylor-both": (
            "certify",
            {"solver": {"truncation": 8, "taylor": {"max_j": 4, "tail_tol": 1e-12}}},
            "exactly one of max_j and tail_tol",
        ),
        # an int64 overflow escaped main; a depth of 10**18 never ended
        "max-j-huge": (
            "certify", {"solver": {"truncation": 8, "taylor": {"max_j": 1e18}}}, "taylor.max_j"
        ),
        # ceil(padding * (2N+1)) overflowed past main in the memory guard
        "padding-huge": ("solve", {"solver": {"truncation": 8, "padding": 1e308}}, "padding"),
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_value_is_validation_error(self, tmp_path, capsys, case):
        mode, overrides, key, *flags = self.MALFORMED[case]
        if mode == "radius":
            traj = linear_trajectory(
                FourierField.from_modes(1, 4, {(1,): 0.1}), np.linspace(0, 1, 5)
            )
            save_trajectory(tmp_path / "t.json", traj)
            extra = {"trajectory": str(tmp_path / "t.json"), "alpha": 0.5}
            overrides = {**overrides, "mode_options": {**extra, **overrides["mode_options"]}}
        cfg = write_config(tmp_path / "run.json", **overrides)
        code, status = run_cli(capsys, mode, "--config", str(cfg), *flags)
        assert code == EXIT_VALIDATION
        assert status["error"]["type"] == "ValidationError"
        assert key in status["error"]["message"]
        # only a check that spans keys runs after run.json is written
        assert (tmp_path / "out" / "run.json").exists() == (case == "radius-window-short")

    @pytest.mark.parametrize("decay", [math.inf, -1000.0, math.nan], ids=["inf", "negative", "nan"])
    def test_random_decay_rate_is_checked_before_the_draw(self, tmp_path, capsys, decay):
        # an infinite rate gave 0 * inf warnings and a misleading "zero field"
        # refusal, a large negative one overflowed the envelope
        cfg = write_config(
            tmp_path / "run.json",
            initial_data={"preset": "random-decay", "amplitude": 0.2, "decay": decay},
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["certify", "--config", str(cfg)])
        captured = capsys.readouterr()
        status = json.loads(captured.out.strip().splitlines()[-1])
        assert code == EXIT_VALIDATION
        assert "decay" in status["error"]["message"]
        assert captured.err == ""
        assert not caught, [str(w.message) for w in caught]

    @pytest.mark.parametrize("preset", ["single-mode", "two-mode", "random-decay"])
    def test_preset_amplitude_must_be_finite_and_positive(self, tmp_path, capsys, preset):
        # single-mode certified -0.1 as r0 = 0.1, and nan or inf ended in a
        # "coefficients must all be finite" that did not name the key
        for amplitude in (-0.1, 0.0, math.nan, math.inf):
            cfg = write_config(
                tmp_path / "run.json", initial_data={"preset": preset, "amplitude": amplitude}
            )
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code, status = run_cli(capsys, "certify", "--config", str(cfg))
            assert code == EXIT_VALIDATION, (amplitude, status)
            assert "amplitude must be a finite real > 0" in status["error"]["message"]
            assert not caught, [str(w.message) for w in caught]
            assert not (tmp_path / "out" / "certificate.json").exists()

    def test_random_decay_amplitude_that_overflows_is_refused_quietly(self, tmp_path, capfd):
        # 1e308 is finite, but scaling the draw to it overflowed: numpy warned
        # on stderr and the refusal named no key
        cfg = write_config(
            tmp_path / "run.json",
            initial_data={"preset": "random-decay", "amplitude": 1e308},
        )
        code = main(["certify", "--config", str(cfg)])
        captured = capfd.readouterr()
        status = json.loads(captured.out.strip().splitlines()[-1])
        assert code == EXIT_VALIDATION
        assert "amplitude 1e+308 is too large" in status["error"]["message"]
        assert captured.err == ""

    def test_readme_example_config_certifies(self, tmp_path, capsys):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        text = readme.read_text(encoding="utf-8")
        example = re.search(r"Example configuration \(JSON\):\s*```json\n(.*?)```", text, re.S)
        assert example, "README has no example configuration block"
        cfg = tmp_path / "readme.json"
        cfg.write_text(example.group(1), encoding="utf-8")
        code, status = run_cli(capsys, "certify", "--config", str(cfg), "--out", str(tmp_path))
        assert code == EXIT_OK, status
        assert status["pass"] is True

    def test_readme_schema_table_lists_the_schema(self):
        # the README's one table of config keys must hold exactly the keys of
        # the schema's tables, section by section
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        header = r"\| section \| key \| default \| range \|\n\|.*\|\n"
        table = re.search(header + r"((?:\|.*\|\n)+)", text)
        assert table, "README has no table of config keys"
        presets = [f"initial_data, {form}" for form in cli.INITIAL_DATA if form != "path"]
        listed = set()
        for line in table.group(1).splitlines():
            section, key = (cell.strip().replace("`", "") for cell in line.split("|")[1:3])
            sections = presets if "every preset" in section else [section]
            listed |= {(name, key) for name in sections}
        tables = {"top level": cli.TOP, "solver": cli.SOLVER, "solver.taylor": cli.TAYLOR}
        tables |= {f"initial_data, {form}": table for form, table in cli.INITIAL_DATA.items()}
        modes = {mode: table for mode, table in cli.MODE_OPTIONS.items() if mode != "certify"}
        tables |= {f"mode_options, {mode}": table for mode, table in modes.items()}
        schema = {(section, key) for section, table in tables.items() for key in table}
        assert listed == schema, (sorted(listed - schema), sorted(schema - listed))
        # certify takes every other mode's keys, none of them required
        assert cli.MODE_OPTIONS["certify"].keys() == {k for t in modes.values() for k in t}
        assert all(key.default is None for key in cli.MODE_OPTIONS["certify"].values())

    def test_certify_takes_a_config_of_any_mode(self, tmp_path, capsys):
        # a probe's config is certified as it stands, as perfbench's set-up does
        options = {"trajectories": 2, "alphas": [0.5], "dims": [1], "t_final": 0.1, "dt": 0.01}
        cfg = write_config(tmp_path / "run.json", mode_options=options)
        code, status = run_cli(capsys, "certify", "--config", str(cfg))
        assert code == EXIT_OK, status

    def test_programming_error_is_not_a_validation_error(self, tmp_path, capsys, monkeypatch):
        # every ValueError from inside the package exited 2, as if the user erred
        def broken(*args):
            raise ValueError("a bug")

        monkeypatch.setattr(cli, "certify", broken)
        cfg = write_config(tmp_path / "run.json")
        with pytest.raises(ValueError, match="a bug"):
            main(["certify", "--config", str(cfg)])


class TestValidationAndDeterminism:
    def test_bad_config_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, status = run_cli(capsys, "certify", "--config", str(bad))
        assert code == EXIT_VALIDATION
        assert status["error"]["type"] == "ValidationError"

    def test_missing_config_file(self, tmp_path, capsys):
        code, status = run_cli(capsys, "certify", "--config", str(tmp_path / "nope.json"))
        assert code == EXIT_VALIDATION

    def test_config_that_is_a_directory_is_validation_error(self, tmp_path, capsys):
        # IsADirectoryError is an OSError, which exits 4 as a numerical failure
        code, status = run_cli(capsys, "certify", "--config", str(tmp_path))
        assert code == EXIT_VALIDATION
        assert status["error"]["type"] == "ValidationError"
        assert f"cannot read config file {tmp_path}" in status["error"]["message"]

    @pytest.mark.parametrize("value", [None, 12], ids=["null", "number"])
    def test_non_string_output_dir_is_refused(self, tmp_path, capsys, monkeypatch, value):
        # str() turned null into ./None and 12 into ./12
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "run.json", output_dir=value)
        code, status = run_cli(capsys, "certify", "--config", str(cfg))
        assert code == EXIT_VALIDATION
        assert status["error"]["type"] == "ValidationError"
        assert "output_dir must be a file path string" in status["error"]["message"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]

    @pytest.mark.parametrize(
        "mode,section,key",
        [
            ("certify", "initial_data", "path"),
            ("compare", "mode_options", "trajectory_a"),
            ("compare", "mode_options", "trajectory_b"),
            ("radius", "mode_options", "trajectory"),
        ],
    )
    def test_non_string_path_is_refused(self, tmp_path, capsys, mode, section, key):
        # 0 would open file descriptor 0: read stdin, then close it
        traj = linear_trajectory(FourierField.from_modes(1, 2, {(1,): 0.1}), [0.0, 1.0])
        save_trajectory(tmp_path / "t.json", traj)
        # each mode gets only the path keys it reads: any other is refused as unknown
        reads = {"compare": ["trajectory_a", "trajectory_b"], "radius": ["trajectory"]}
        settings = {"mode_options": dict.fromkeys(reads.get(mode, []), str(tmp_path / "t.json"))}
        settings.setdefault(section, {})[key] = 0
        cfg = write_config(tmp_path / "run.json", alpha=0.5, **settings)
        code, status = run_cli(capsys, mode, "--config", str(cfg))
        assert code == EXIT_VALIDATION
        assert status["error"]["type"] == "ValidationError"
        assert f"{section}.{key} must be a file path string" in status["error"]["message"]
        os.fstat(0)  # still open

    def test_uncreatable_output_dir_is_validation_error(self, tmp_path, capsys):
        blocker = tmp_path / "taken"
        blocker.write_text("a file, not a directory")
        cfg = write_config(tmp_path / "run.json")
        code, status = run_cli(capsys, "certify", "--config", str(cfg), "--out", str(blocker))
        assert code == EXIT_VALIDATION
        assert status["error"]["type"] == "ValidationError"
        assert f"cannot create output directory {blocker}" in status["error"]["message"]

    def test_unknown_preset(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.json", initial_data={"preset": "sawtooth"})
        code, status = run_cli(capsys, "certify", "--config", str(cfg))
        assert code == EXIT_VALIDATION
        assert "sawtooth" in status["error"]["message"]

    def test_identical_runspecs_are_byte_identical(self, tmp_path, capsys):
        for sub in ("one", "two"):
            cfg = write_config(
                tmp_path / f"{sub}.json",
                output_dir=str(tmp_path / sub),
                initial_data={"preset": "random-decay", "amplitude": 0.2, "seed": 11},
                mode_options={"amplitudes": [0.1, 0.2, 0.3]},
            )
            # output_dir differs between the two specs, so compare artifacts
            # produced by configs that only differ in that path
            code, _ = run_cli(capsys, "sweep", "--config", str(cfg))
            assert code == EXIT_OK
        a = (tmp_path / "one" / "sweep.csv").read_text().splitlines()
        b = (tmp_path / "two" / "sweep.csv").read_text().splitlines()
        assert a[1:] == b[1:]  # identical apart from the embedded output path

    def test_rerun_replaces_artifacts_instead_of_rewriting_them(self, tmp_path, capsys):
        # each artifact is unlinked before it is written: a hard link to the
        # old file keeps the old bytes, and the new file is a new inode
        cfg = write_config(tmp_path / "run.json", solver={"truncation": 4, "dt": 0.02, "t_final": 0.1})
        assert run_cli(capsys, "solve", "--config", str(cfg))[0] == EXIT_OK
        out = tmp_path / "out"
        names = sorted(path.name for path in out.iterdir())
        assert "picard_trajectory.npy" in names and "engine_comparison.csv" in names
        (tmp_path / "old").mkdir()
        for name in names:
            os.link(out / name, tmp_path / "old" / name)
        run_json = (out / "run.json").read_bytes()
        assert run_cli(capsys, "solve", "--config", str(cfg), "--seed", "8")[0] == EXIT_OK
        for name in names:
            assert os.stat(out / name).st_ino != os.stat(tmp_path / "old" / name).st_ino, name
        assert (tmp_path / "old" / "run.json").read_bytes() == run_json
        assert (out / "run.json").read_bytes() != run_json  # it records seed 8

    def test_rerun_replaces_read_only_and_symlinked_artifacts(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.json")
        assert run_cli(capsys, "certify", "--config", str(cfg))[0] == EXIT_OK
        out = tmp_path / "out"
        # a read-only artifact in a writable directory is replaced
        (out / "certificate.json").chmod(0o444)
        # a symlinked artifact is replaced by a regular file; its target stays
        target = tmp_path / "elsewhere.json"
        target.write_text("keep me")
        (out / "run.json").unlink()
        (out / "run.json").symlink_to(target)
        assert run_cli(capsys, "certify", "--config", str(cfg), "--seed", "8")[0] == EXIT_OK
        assert json.loads((out / "certificate.json").read_text())["runspec"]["seed"] == 8
        assert not (out / "run.json").is_symlink()
        assert json.loads((out / "run.json").read_text())["runspec"]["seed"] == 8
        assert target.read_text() == "keep me"

    def test_true_byte_determinism_same_spec(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "run.json",
            output_dir=str(tmp_path / "same"),
            initial_data={"preset": "random-decay", "amplitude": 0.15, "seed": 3},
            solver={"truncation": 6, "dt": 0.01, "t_final": 0.2},
        )
        blobs = []
        for _ in range(2):
            code, _ = run_cli(capsys, "solve", "--config", str(cfg))
            assert code == EXIT_OK
            blobs.append((tmp_path / "same" / "picard_trajectory.json").read_bytes())
        assert blobs[0] == blobs[1]
