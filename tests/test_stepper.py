"""Exponential-integrator stepper: linear exactness, orders, remainder."""

import math

import numpy as np
import pytest

from epitaxy.exceptions import NumericalError
from epitaxy.nonlinear import TaylorDepth, taylor_sum
from epitaxy.norms import wiener_norm
from epitaxy.semigroup import propagate
from epitaxy.spectral import FourierField, laplacian
from epitaxy.stepper import SolverConfig, default_dt, nonlinear_remainder, solve_timestep, step

from conftest import random_field_with_norm


def cosine(amplitude, truncation=8):
    return FourierField.from_modes(1, truncation, {(1,): amplitude / 2.0})


LINEAR_ONLY = TaylorDepth.fixed(1)


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
            steps = config.n_steps()
            assert abs(steps * config.dt - t_final) <= 1e-9 * t_final

    def test_dt_must_divide_t_final(self):
        with pytest.raises(ValueError, match="divide"):
            SolverConfig(truncation=4, dt=0.3, t_final=1.0)

    def test_time_grid_endpoints(self):
        config = SolverConfig(truncation=4, dt=0.25, t_final=1.0)
        grid = config.time_grid()
        assert grid[0] == 0.0
        assert grid[-1] == 1.0
        assert grid.size == 5


class TestNonlinearRemainder:
    def test_zero_field(self):
        out = nonlinear_remainder(FourierField.zero(1, 6), TaylorDepth.adaptive())
        assert out.max_abs() == 0.0

    def test_leading_term_is_quadratic(self):
        eps = 0.05
        out = nonlinear_remainder(cosine(eps), TaylorDepth.adaptive())
        # leading term -eps^2 cos(2x); next correction is O(eps^3)
        assert out.coeff(2) == pytest.approx(-(eps**2) / 2.0, rel=5 * eps)
        assert abs(out.coeff(1)) <= eps**3

    def test_linear_sentinel_switches_nonlinearity_off(self):
        out = nonlinear_remainder(cosine(0.3), LINEAR_ONLY)
        assert out.max_abs() == 0.0

    def test_matches_series_route(self, rng):
        for r in (0.1, 0.3, 0.5):
            h = random_field_with_norm(rng, r)
            exp_route = nonlinear_remainder(h, TaylorDepth.adaptive())
            series, _ = taylor_sum(h, TaylorDepth.adaptive(1e-15))
            assert wiener_norm(exp_route - laplacian(series), 0) <= 1e-10


class TestStep:
    def config(self, **kw):
        base = dict(truncation=8, dt=0.01, t_final=1.0)
        base.update(kw)
        return SolverConfig(**base)

    def test_zero_field_stays_zero(self):
        config = self.config()
        out = step(FourierField.zero(1, 8), 0.01, config)
        assert out.max_abs() == 0.0

    # the id keeps the IF-RK4 name this test had when a second scheme existed
    @pytest.mark.parametrize("taylor", [LINEAR_ONLY], ids=["if-rk4"])
    def test_linear_exactness_per_step(self, rng, taylor):
        config = self.config(taylor=taylor)
        f = random_field_with_norm(rng, 0.3, truncation=8)
        stepped = step(f, 0.01, config)
        exact = propagate(f, 0.01)
        mask = np.abs(exact.coeffs) > 0
        rel = np.abs(stepped.coeffs[mask] - exact.coeffs[mask]) / np.abs(exact.coeffs[mask])
        assert np.max(rel) <= 1e-14

    def test_ifrk4_order_four(self):
        # small box keeps |k|^4 dt well below one, the classical-order regime
        h0 = cosine(0.2, truncation=2)
        finals = []
        for dt in (0.02, 0.01, 0.005):
            config = SolverConfig(truncation=2, dt=dt, t_final=0.5)
            finals.append(solve_timestep(h0, config).fields[-1])
        e1 = wiener_norm(finals[0] - finals[1], 0)
        e2 = wiener_norm(finals[1] - finals[2], 0)
        assert math.log2(e1 / e2) == pytest.approx(4.0, abs=0.5)


class TestSolveTimestep:
    def test_zero_data(self):
        config = SolverConfig(truncation=4, dt=0.1, t_final=1.0)
        traj = solve_timestep(FourierField.zero(1, 4), config)
        assert all(f.max_abs() == 0.0 for f in traj.fields)

    def test_small_solution_decays(self):
        config = SolverConfig(truncation=8, dt=0.01, t_final=1.0)
        traj = solve_timestep(cosine(0.1), config)
        assert wiener_norm(traj.fields[-1], 0) < wiener_norm(traj.fields[0], 0)

    def test_linear_trajectory_reproduced_exactly(self, rng):
        config = SolverConfig(truncation=4, dt=1e-3, t_final=0.1, taylor=LINEAR_ONLY)
        h0 = random_field_with_norm(rng, 0.3, truncation=4)
        traj = solve_timestep(h0, config)
        for t, f in zip(traj.times, traj.fields):
            exact = propagate(h0, t)
            mask = np.abs(exact.coeffs) > 0
            rel = np.abs(f.coeffs[mask] - exact.coeffs[mask]) / np.abs(exact.coeffs[mask])
            assert np.max(rel) <= 1e-13

    def test_output_every_subsamples(self):
        config = SolverConfig(truncation=4, dt=0.1, t_final=1.0)
        traj = solve_timestep(cosine(0.1, truncation=4), config, output_every=5)
        assert traj.times.size == 3  # t = 0, 0.5, 1.0

    def test_blowup_reports_last_good_time(self):
        # amplitudes far past the threshold overflow the pointwise exponential
        config = SolverConfig(truncation=8, dt=0.1, t_final=1.0)
        with pytest.raises(NumericalError, match="last good time") as excinfo:
            solve_timestep(cosine(900.0), config)
        assert "np.float64" not in str(excinfo.value)  # a plain float, not a numpy repr

    def test_mean_conserved_along_march(self, rng):
        config = SolverConfig(truncation=6, dt=0.01, t_final=0.3)
        h0 = random_field_with_norm(rng, 0.2, truncation=6)
        traj = solve_timestep(h0, config)
        assert all(f.coeff(0) == 0.0 for f in traj.fields)

    def test_discrete_residual_second_order(self):
        # central difference of the marched trajectory against the
        # right-hand side, evaluated on the trajectory's own nodes
        from epitaxy.nonlinear import rhs_exponential

        h0 = cosine(0.2, truncation=2)

        def residual(dt):
            config = SolverConfig(truncation=2, dt=dt, t_final=0.4)
            traj = solve_timestep(h0, config)
            worst = 0.0
            for i in range(1, traj.times.size - 1):
                dot = (traj.fields[i + 1] - traj.fields[i - 1]) * (1.0 / (2.0 * dt))
                res = dot - rhs_exponential(traj.fields[i])
                worst = max(worst, wiener_norm(res, 0))
            return worst

        r1, r2 = residual(0.02), residual(0.01)
        assert math.log2(r1 / r2) == pytest.approx(2.0, abs=0.3)
