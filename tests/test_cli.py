"""End-to-end CLI runs: modes, exit codes, artifacts, determinism."""

import json
import math
import os
import re
import warnings
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

    def test_fractional_mode_in_initial_data_path_is_validation_error(self, tmp_path, capsys):
        # int() read the mode 1.7 as k = 1 and certified that field
        field = {"dim": 1, "truncation": 2, "coeffs": [[1.7, 0.25, 0.0]]}
        (tmp_path / "field.json").write_text(json.dumps(field), encoding="utf-8")
        cfg = write_config(tmp_path / "run.json", initial_data={"path": str(tmp_path / "field.json")})
        code, status = run_cli(capsys, "certify", "--config", str(cfg))
        assert code == EXIT_VALIDATION
        assert "(1.7,) has a component that is not an integer" in status["error"]["message"]

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

    @staticmethod
    def compare_with_bad_b(tmp_path, capsys, bad):
        traj = linear_trajectory(
            FourierField.from_modes(1, 4, {(1,): 0.1}), np.linspace(0.0, 1.0, 11)
        )
        data = traj.to_json_dict()
        assert data["modes"] == [[1]]
        (tmp_path / "a.json").write_text(json.dumps(data))
        (tmp_path / "b.json").write_text(json.dumps(bad(data)))
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
        def ragged(data):
            data["re"][3].append(0.0)  # one node row longer than the mode list
            return data

        message = self.compare_with_bad_b(tmp_path, capsys, ragged)
        assert "re is not a table of numbers" in message

    # a packed body edited into a malformed one, and the words of the refusal;
    # the linear flow of 0.1 cos(x) at N = 4 lists the one mode [1] at 11 nodes
    MALFORMED_FILES = {
        "re-wider-than-modes": (
            lambda d: {**d, "re": [row + [0.0] for row in d["re"]]},
            "re has shape (11, 2), expected (11, 1)",
        ),
        "im-shorter-than-times": (
            lambda d: {**d, "im": d["im"][:-1]},
            "im has shape (10, 1), expected (11, 1)",
        ),
        "partner-clash": (
            lambda d: {
                **d,
                "modes": [[-1], [1]],
                "re": [[row[0] + 0.5, row[0]] for row in d["re"]],
                "im": [[-row[0], row[0]] for row in d["im"]],
            },
            "not conjugate partners",
        ),
        "mode-outside-box": (lambda d: {**d, "modes": [[5]]}, "outside truncation 4"),
        "zero-mode": (lambda d: {**d, "modes": [[0]]}, "zero mode must vanish"),
        "repeated-mode": (
            lambda d: {
                **d,
                "modes": [[1], [1]],
                "re": [row * 2 for row in d["re"]],
                "im": [row * 2 for row in d["im"]],
            },
            "more than once",
        ),
        # int() read 1.7 as 1 and -0.5 as the zero mode
        "packed-fractional-mode": (lambda d: {**d, "modes": [[1.7]]}, "not an integer"),
        "fields-fractional-mode": (
            lambda d: {
                "times": [0.0, 0.1],
                "fields": [{"dim": 1, "truncation": 4, "coeffs": [[1.7, 0.25, 0.0]]}] * 2,
            },
            "not an integer",
        ),
        "fields-ragged-entry": (
            lambda d: {
                "times": [0.0],
                "fields": [{"dim": 1, "truncation": 4, "coeffs": [[1, 0.25, 0.0, 0.0]]}],
            },
            "has wrong length for dim=1",
        ),
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED_FILES))
    def test_malformed_trajectory_is_validation_error(self, tmp_path, capsys, case):
        bad, words = self.MALFORMED_FILES[case]
        assert words in self.compare_with_bad_b(tmp_path, capsys, bad)

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
        # 51 nodes of 17 modes, and the series sum's 3 grids of 51 x 34 points.
        # The guard counts the larger of the Picard peak and the write peak:
        # one byte less than that estimate is refused even though it holds the
        # smaller peak, and exactly that estimate fits
        trajectory = 51 * 17 * 16
        grids = cli.SERIES_GRID_ARRAYS * 51 * 34
        low, high = sorted((cli.PICARD_LIVE_TRAJECTORIES, cli.WRITE_LIVE_TRAJECTORIES))
        cfg = write_config(tmp_path / "run.json")  # N = 8, dt = 0.01, T = 0.5
        pages = {"SC_PHYS_PAGES": high * trajectory + grids * 8 - 1, "SC_PAGE_SIZE": 1}
        monkeypatch.setattr(cli.os, "sysconf", pages.__getitem__)
        assert pages["SC_PHYS_PAGES"] >= low * trajectory + grids * 8
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
        # 11 nodes of a 2-D box at N = 16 and padding 4: the series sum's grids
        # of 132^2 points each outweigh the coefficient arrays, and a Picard
        # solve peaked at 21 trajectory sizes under tracemalloc.  The estimate
        # of 8 trajectories that ignored the padding let it through
        trajectory = 11 * 33**2 * 16
        pages = {"SC_PHYS_PAGES": 8 * trajectory, "SC_PAGE_SIZE": 1}
        monkeypatch.setattr(cli.os, "sysconf", pages.__getitem__)
        cfg = write_config(
            tmp_path / "run.json",
            initial_data=self.TWO_D,
            solver={"truncation": 16, "dt": 0.01, "t_final": 0.1, "padding": 4.0},
        )
        code, status = run_cli(capsys, "solve", "--config", str(cfg))
        assert code == EXIT_VALIDATION
        assert "11 time nodes" in status["error"]["message"]
        assert f"plus {cli.SERIES_GRID_ARRAYS * 11 * 132**2} padded-grid points" in (
            status["error"]["message"]
        )
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

    @pytest.mark.parametrize(
        "options,reason",
        [
            ({"dt": 1e-15, "t_final": 2.0}, "2000000000000001 time nodes (4 trajectories"),
            ({"max_truncation": 1e308}, "trajectories of "),  # exact, not an overflow
        ],
        ids=["tiny-dt", "huge-truncation"],
    )
    def test_probe_refused_before_allocating(self, tmp_path, capsys, options, reason):
        cfg = write_config(tmp_path / "run.json", mode_options=options)
        code, status = run_cli(capsys, "probe-operator", "--config", str(cfg))
        assert code == EXIT_VALIDATION
        assert status["error"]["type"] == "ValidationError"
        assert "GiB" in status["error"]["message"]
        assert reason in status["error"]["message"]
        assert not (tmp_path / "out" / "operator_probe.csv").exists()

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
        "probe-dims-three": ("probe-operator", {"mode_options": {"dims": [1, 3]}}, "dims"),
        "probe-truncation-one": (
            "probe-operator", {"mode_options": {"max_truncation": 1}}, "max_truncation"
        ),
        "sweep-amplitudes-scalar": ("sweep", {"mode_options": {"amplitudes": 5}}, "amplitudes"),
        "radius-window-short": ("radius", {"mode_options": {"fit_window": [0.1]}}, "fit_window"),
        "radius-window-scalar": ("radius", {"mode_options": {"fit_window": 3}}, "fit_window"),
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
        (tmp_path / "t.json").write_text(json.dumps(traj.to_json_dict()))
        paths = {"trajectory_a": str(tmp_path / "t.json"), "trajectory_b": str(tmp_path / "t.json")}
        settings = {"initial_data": {}, "mode_options": paths}
        settings[section][key] = 0
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
