"""Exponential-integrator stepper: linear exactness, orders, remainder."""

import math

import numpy as np
import pytest

from epitaxy import cli, nonlinear, stepper
from epitaxy.exceptions import NumericalError
from epitaxy.nonlinear import TaylorDepth, exponential_route
from epitaxy.norms import certify, wiener_norm
from epitaxy.picard import solve_picard
from epitaxy.semigroup import linear_trajectory
from epitaxy.spectral import FourierField, as_parts, mode_grids
from epitaxy.stepper import SolverConfig, default_dt, solve_timestep

from conftest import random_field_with_norm
from reference import (
    as_half,
    coeff,
    fields,
    march,
    max_abs,
    rhs_exponential,
    series_sum,
    start,
    step,
    sub,
    zero,
)


def cosine(amplitude, truncation=8):
    return FourierField.from_modes(1, truncation, {(1,): amplitude / 2.0})


LINEAR_ONLY = TaylorDepth(max_j=1)


def nonlinear_remainder(field, padding=2.0):
    """rhs(h) + lap^2 h as the stepper forms it, as a field."""
    route = exponential_route(field.dim, field.truncation, padding)
    half = as_half(nonlinear.rhs_exponential(as_parts(start(field)), route))
    return FourierField(field.dim, field.truncation, half[0])


class TestSolverConfig:
    def test_defaults_resolve(self):
        config = SolverConfig(truncation=8)
        assert config.dt == default_dt(8)
        assert config.taylor.tail_tol == 1e-12

    def test_auto_dt_divides_any_horizon(self):
        # the accuracy target 5/N^4 rarely divides t_final; the resolved
        # default must be snapped onto the horizon
        for truncation, t_final in ((12, 4.0), (16, 2.0), (3, 1.7)):
            config = SolverConfig(truncation=truncation, t_final=t_final)
            assert config.dt <= default_dt(truncation)
            steps = stepper.step_count(config.dt, t_final)
            assert abs(steps * config.dt - t_final) <= 1e-9 * t_final
            assert config.times.size == steps + 1
            assert config.times[-1] == t_final

    def test_dt_must_divide_t_final(self):
        with pytest.raises(ValueError, match="divide"):
            SolverConfig(truncation=4, dt=0.3, t_final=1.0)

    @pytest.mark.parametrize(
        "dt,t_final",
        [(0.1 * (1 + 1e-8), 1.0), (5.0, 0.5), (5e-324, 1.0)],
        # ten steps of 0.1 (1 + 1e-8) make 1 + 1e-8: a check looser than 1e-9 took it
        ids=["off-1e-8", "no-step", "infinite-steps"],
    )
    def test_dt_that_misses_t_final_is_refused(self, dt, t_final):
        with pytest.raises(ValueError, match="divide"):
            SolverConfig(truncation=4, dt=dt, t_final=t_final)

    def test_dt_off_by_rounding_alone_is_accepted(self):
        # 3 * 0.1 is 0.30000000000000004; the grid still ends at exactly 0.3
        config = SolverConfig(truncation=4, dt=0.1, t_final=0.3)
        assert stepper.step_count(config.dt, config.t_final) == 3
        assert config.times.size == 4
        assert config.times[-1] == 0.3

    def test_time_grid_endpoints(self):
        config = SolverConfig(truncation=4, dt=0.25, t_final=1.0)
        grid = config.times
        assert grid[0] == 0.0
        assert grid[-1] == 1.0
        assert grid.size == 5
        assert np.array_equal(grid, np.linspace(0.0, 1.0, 5))

    def test_time_grid_is_built_once_owned_and_read_only(self, monkeypatch):
        built = []
        real = stepper.uniform_grid
        monkeypatch.setattr(stepper, "uniform_grid", lambda *a: built.append(a) or real(*a))
        config = SolverConfig(truncation=4, dt=0.25, t_final=1.0)
        cli.check_memory(config, dim=1)
        assert not built  # validated and counted, never built
        grid = config.times
        assert config.times is grid and built == [(0.25, 1.0)]
        assert grid.flags.owndata and not grid.flags.writeable

    def test_both_engines_share_the_grid(self):
        h0 = cosine(0.2, truncation=4)
        config = SolverConfig(truncation=4, dt=0.05, t_final=0.2)
        solution, _ = solve_picard(h0, certify(h0), config)
        assert solution.times is config.times
        assert solve_timestep(h0, config).times is config.times


class TestNonlinearRemainder:
    def test_zero_field(self):
        out = nonlinear_remainder(zero(1, 6))
        assert max_abs(out) == 0.0

    def test_leading_term_is_quadratic(self):
        eps = 0.05
        out = nonlinear_remainder(cosine(eps))
        # leading term -eps^2 cos(2x); next correction is O(eps^3)
        assert coeff(out, 2) == pytest.approx(-(eps**2) / 2.0, rel=5 * eps)
        assert abs(coeff(out, 1)) <= eps**3

    def test_linear_sentinel_switches_nonlinearity_off(self):
        # no remainder is formed: the step is the exact per-mode decay, bit for bit
        h = cosine(0.3)
        config = SolverConfig(truncation=8, dt=0.01, t_final=1.0, taylor=LINEAR_ONLY)
        decay = stepper.step_weights(mode_grids(1, 8).k4, 0.01)[1]
        assert max_abs(nonlinear_remainder(h)) > 0.0
        assert np.array_equal(step(h, 0.01, config).coeffs, decay * h.coeffs)

    def test_matches_series_route(self, rng):
        for r in (0.1, 0.3, 0.5):
            h = random_field_with_norm(rng, r)
            exp_route = nonlinear_remainder(h)
            series = series_sum(h, TaylorDepth.adaptive(1e-15))
            lap_series = -mode_grids(1, h.truncation).ksq * series.coeffs
            assert np.sum(np.abs(exp_route.coeffs - lap_series)) <= 1e-10


class TestStep:
    def config(self, **kw):
        base = dict(truncation=8, dt=0.01, t_final=1.0)
        base.update(kw)
        return SolverConfig(**base)

    def test_zero_field_stays_zero(self):
        config = self.config()
        out = step(zero(1, 8), 0.01, config)
        assert max_abs(out) == 0.0

    # the id keeps the IF-RK4 name this test had when a second scheme existed
    @pytest.mark.parametrize("taylor", [LINEAR_ONLY], ids=["if-rk4"])
    def test_linear_exactness_per_step(self, rng, taylor):
        config = self.config(taylor=taylor)
        f = random_field_with_norm(rng, 0.3, truncation=8)
        stepped = step(f, 0.01, config)
        exact = fields(linear_trajectory(f, [0.0, 0.01]))[1]
        mask = np.abs(exact.coeffs) > 0
        rel = np.abs(stepped.coeffs[mask] - exact.coeffs[mask]) / np.abs(exact.coeffs[mask])
        assert np.max(rel) <= 1e-14

    def test_ifrk4_order_four(self):
        # small box keeps |k|^4 dt well below one, the classical-order regime
        h0 = cosine(0.2, truncation=2)
        finals = []
        for dt in (0.02, 0.01, 0.005):
            config = SolverConfig(truncation=2, dt=dt, t_final=0.5)
            finals.append(fields(solve_timestep(h0, config))[-1])
        e1 = wiener_norm(sub(finals[0], finals[1]), 0)
        e2 = wiener_norm(sub(finals[1], finals[2]), 0)
        assert math.log2(e1 / e2) == pytest.approx(4.0, abs=0.5)


class TestSolveTimestep:
    def test_zero_data(self):
        config = SolverConfig(truncation=4, dt=0.1, t_final=1.0)
        traj = solve_timestep(zero(1, 4), config)
        assert all(max_abs(f) == 0.0 for f in fields(traj))

    def test_small_solution_decays(self):
        config = SolverConfig(truncation=8, dt=0.01, t_final=1.0)
        traj = solve_timestep(cosine(0.1), config)
        assert wiener_norm(fields(traj)[-1], 0) < wiener_norm(fields(traj)[0], 0)

    def test_linear_trajectory_reproduced_exactly(self, rng):
        config = SolverConfig(truncation=4, dt=1e-3, t_final=0.1, taylor=LINEAR_ONLY)
        h0 = random_field_with_norm(rng, 0.3, truncation=4)
        traj = solve_timestep(h0, config)
        for f, exact in zip(fields(traj), fields(linear_trajectory(h0, traj.times))):
            mask = np.abs(exact.coeffs) > 0
            rel = np.abs(f.coeffs[mask] - exact.coeffs[mask]) / np.abs(exact.coeffs[mask])
            assert np.max(rel) <= 1e-13

    @pytest.mark.parametrize("dim", [1, 2])
    def test_blowup_reports_last_good_time(self, dim):
        # amplitudes far past the threshold overflow the pointwise exponential
        config = SolverConfig(truncation=8, dt=0.1, t_final=1.0)
        h0 = FourierField.from_modes(dim, 8, {(1,) + (0,) * (dim - 1): 450.0})
        with pytest.raises(NumericalError, match="last good time") as excinfo:
            solve_timestep(h0, config)
        assert "np.float64" not in str(excinfo.value)  # a plain float, not a numpy repr

    def test_mean_conserved_along_march(self, rng):
        config = SolverConfig(truncation=6, dt=0.01, t_final=0.3)
        h0 = random_field_with_norm(rng, 0.2, truncation=6)
        traj = solve_timestep(h0, config)
        assert all(coeff(f, 0) == 0.0 for f in fields(traj))

    def test_discrete_residual_second_order(self):
        # central difference of the marched trajectory against the
        # right-hand side, evaluated on the trajectory's own nodes
        h0 = cosine(0.2, truncation=2)

        def residual(dt):
            config = SolverConfig(truncation=2, dt=dt, t_final=0.4)
            traj = solve_timestep(h0, config)
            nodes = fields(traj)
            worst = 0.0
            for i in range(1, traj.times.size - 1):
                dot = sub(nodes[i + 1], nodes[i - 1]) * (1.0 / (2.0 * dt))
                res = sub(dot, rhs_exponential(nodes[i]))
                worst = max(worst, wiener_norm(res, 0))
            return worst

        r1, r2 = residual(0.02), residual(0.01)
        assert math.log2(r1 / r2) == pytest.approx(2.0, abs=0.3)


# nominal steps: 1e-3 over 0.01 gives 3 distinct float steps, 7e-4 over 0.049 gives 8
ORACLE_GRIDS = {"dt1e-3": dict(dt=1e-3, t_final=0.01), "dt7e-4": dict(dt=7e-4, t_final=0.049)}


@pytest.mark.parametrize("data", ["random", "one-mode"])
@pytest.mark.parametrize("grid", list(ORACLE_GRIDS))
@pytest.mark.parametrize("padding", [1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("truncation", [1, 2, 7, 16])
@pytest.mark.parametrize("dim", [1, 2])
def test_march_has_the_bytes_of_the_complex_oracle(rng, dim, truncation, padding, grid, data):
    # the real layout moves where the parts sit, not one operation on them;
    # one-mode data holds exact zeros, and in 2-D its mode is on the k_last = 0 line
    if data == "random":
        h0 = random_field_with_norm(rng, 0.3, dim=dim, truncation=truncation)
    else:
        h0 = FourierField.from_modes(dim, truncation, {(1,) + (0,) * (dim - 1): -0.1})
    config = SolverConfig(truncation=truncation, padding=padding, **ORACLE_GRIDS[grid])
    assert solve_timestep(h0, config).coeffs.tobytes() == march(h0, config).tobytes()


def test_one_weight_set_per_distinct_step(monkeypatch):
    # the march makes the decay weights of each distinct step once, and
    # indexes them per interval
    made = []
    real = stepper.step_weights
    monkeypatch.setattr(stepper, "step_weights", lambda k4, dt: made.append(dt) or real(k4, dt))
    config = SolverConfig(truncation=4, **ORACLE_GRIDS["dt7e-4"])
    solve_timestep(cosine(0.2, truncation=4), config)
    assert sorted(made) == sorted(set(np.diff(config.times).tolist()))
    assert len(made) == 8
