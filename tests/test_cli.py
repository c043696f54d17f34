"""End-to-end CLI runs: modes, exit codes, artifacts, determinism."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from epitaxy import cli
from epitaxy.cli import EXIT_CERTIFICATE, EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION, main
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
    path.write_text(json.dumps({"times": [0.0], "fields": [SCALAR_COEFFS]}), encoding="utf-8")
    return path


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

    def test_scalar_coeffs_in_initial_data_path_is_validation_error(self, tmp_path, capsys):
        (tmp_path / "field.json").write_text(json.dumps(SCALAR_COEFFS), encoding="utf-8")
        cfg = write_config(tmp_path / "run.json", initial_data={"path": str(tmp_path / "field.json")})
        code, status = run_cli(capsys, "certify", "--config", str(cfg))
        assert code == EXIT_VALIDATION
        assert status["error"]["type"] == "ValidationError"
        assert "field.json" in status["error"]["message"]

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
            "stepper_trajectory.json",
            "picard_diagnostics.csv",
            "engine_comparison.csv",
            "summary.json",
        ):
            assert (out / name).exists()
        summary = json.loads((out / "summary.json").read_text())
        # quadrature error scales with dt^2; the tight 1e-6 agreement is
        # checked at dt = 1e-3 in the acceptance suite
        assert summary["max_engine_difference"] <= 1e-5
        picard = Trajectory.from_json_dict(
            json.loads((out / "picard_trajectory.json").read_text())
        )
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


class TestCompareMode:
    def test_difference_norms(self, tmp_path, capsys):
        h0 = FourierField.from_modes(1, 4, {(1,): 0.1})
        times = np.linspace(0.0, 1.0, 11)
        a = linear_trajectory(h0, times)
        b = linear_trajectory(h0 * 1.001, times)
        (tmp_path / "a.json").write_text(json.dumps(a.to_json_dict()))
        (tmp_path / "b.json").write_text(json.dumps(b.to_json_dict()))
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

    def test_missing_option_is_validation_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.json", mode_options={})
        code, status = run_cli(capsys, "compare", "--config", str(cfg))
        assert code == EXIT_VALIDATION
        assert "trajectory_a" in status["error"]["message"]

    def test_ragged_coefficient_entry_is_validation_error(self, tmp_path, capsys):
        traj = linear_trajectory(
            FourierField.from_modes(1, 4, {(1,): 0.1}), np.linspace(0.0, 1.0, 11)
        )
        good = traj.to_json_dict()
        bad = traj.to_json_dict()
        bad["fields"][3]["coeffs"][0].append(0.0)  # [k, re, im, extra] in 1-D
        (tmp_path / "a.json").write_text(json.dumps(good))
        (tmp_path / "b.json").write_text(json.dumps(bad))
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
        assert "has wrong length for dim=1" in status["error"]["message"]

    def test_scalar_coeffs_is_validation_error(self, tmp_path, capsys):
        good = linear_trajectory(FourierField.from_modes(1, 2, {(1,): 0.1}), [0.0])
        (tmp_path / "a.json").write_text(json.dumps(good.to_json_dict()))
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
        (tmp_path / "t.json").write_text(json.dumps(traj.to_json_dict()))
        cfg = write_config(
            tmp_path / "run.json", mode_options={"trajectory": str(tmp_path / "t.json")}
        )
        code, status = run_cli(capsys, "radius", "--config", str(cfg))
        assert code == EXIT_VALIDATION
        assert "alpha" in status["error"]["message"]

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
        def refuse(config):
            pytest.fail("a time grid was built for a run the guard should refuse")

        monkeypatch.setattr(SolverConfig, "time_grid", refuse)

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
        # 51 nodes of 17 modes; physical memory between the Picard-only
        # estimate (8 trajectory sizes) and the write-time one (13)
        trajectory = 51 * 17 * 16
        pages = {"SC_PHYS_PAGES": 10 * trajectory, "SC_PAGE_SIZE": 1}
        monkeypatch.setattr(cli.os, "sysconf", pages.__getitem__)
        assert cli.PICARD_LIVE_TRAJECTORIES < 10 < cli.WRITE_LIVE_TRAJECTORIES
        cfg = write_config(tmp_path / "run.json")  # N = 8, dt = 0.01, T = 0.5
        code, status = run_cli(capsys, "solve", "--config", str(cfg))
        assert code == EXIT_VALIDATION
        assert "51 time nodes (13 trajectories of 17 modes)" in status["error"]["message"]
        assert not (tmp_path / "out" / "certificate.json").exists()

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

    # mode, config entries, and the key the refusal must name; a radius run
    # also gets a stored trajectory and an alpha in its mode_options
    MALFORMED = {
        "probe-dt-zero": ("probe-operator", {"mode_options": {"dt": 0}}, "dt"),
        "probe-alphas-scalar": ("probe-operator", {"mode_options": {"alphas": 5}}, "alphas"),
        "sweep-amplitudes-scalar": ("sweep", {"mode_options": {"amplitudes": 5}}, "amplitudes"),
        "radius-window-short": ("radius", {"mode_options": {"fit_window": [0.1]}}, "fit_window"),
        "radius-window-scalar": ("radius", {"mode_options": {"fit_window": 3}}, "fit_window"),
        "initial-data-list": ("certify", {"initial_data": [1, 2]}, "initial_data"),
        "mode-options-list": ("certify", {"mode_options": [1]}, "mode_options"),
        "taylor-scalar": ("certify", {"solver": {"truncation": 8, "taylor": 5}}, "taylor"),
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_value_is_validation_error(self, tmp_path, capsys, case):
        mode, overrides, key = self.MALFORMED[case]
        if mode == "radius":
            traj = linear_trajectory(
                FourierField.from_modes(1, 4, {(1,): 0.1}), np.linspace(0, 1, 5)
            )
            (tmp_path / "t.json").write_text(json.dumps(traj.to_json_dict()))
            extra = {"trajectory": str(tmp_path / "t.json"), "alpha": 0.5}
            overrides = {"mode_options": {**extra, **overrides["mode_options"]}}
        cfg = write_config(tmp_path / "run.json", **overrides)
        code, status = run_cli(capsys, mode, "--config", str(cfg))
        assert code == EXIT_VALIDATION
        assert status["error"]["type"] == "ValidationError"
        assert key in status["error"]["message"]

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
