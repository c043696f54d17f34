"""Fixed-point map, contraction diagnostics and ball confinement."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import iv

from epitaxy import picard, presets, semigroup
from epitaxy.exceptions import CertificateError, NumericalError, PicardConvergenceError
from epitaxy.nonlinear import TaylorDepth
from epitaxy.norms import WeightParams, certify, spacetime_norm
from epitaxy.picard import solve_picard
from epitaxy.semigroup import Trajectory, linear_trajectory
from epitaxy.spectral import FourierField
from epitaxy.stepper import SolverConfig

from conftest import random_field_with_norm
from reference import allocating_picard, coeff, duhamel_map, fields, max_abs, zero

# Independent oracle for the mode-2 response of one map application to the
# linear flow of eps*cos(x) at t = 0.5: the summed series at time s has
# mode-2 coefficient I_2(eps e^{-s}) (modified Bessel), so
#   g(t) = -4 integral_0^t exp(-16 (t-s)) I_2(eps e^{-s}) ds.
# Frozen from adaptive quadrature (estimated error 4e-19).
MODE2_ORACLE = -0.0001313125879999031


def cosine(amplitude, truncation=8):
    return FourierField.from_modes(1, truncation, {(1,): amplitude / 2.0})


class TestDuhamelMap:
    def test_zero_candidate_returns_linear_flow(self):
        h0 = cosine(0.2)
        times = np.linspace(0.0, 1.0, 11)
        zero_traj = linear_trajectory(zero(1, 8), times)
        mapped = duhamel_map(h0, zero_traj, TaylorDepth.adaptive())
        reference = linear_trajectory(h0, times)
        for a, b in zip(fields(mapped), fields(reference)):
            assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-15

    def test_zero_is_a_fixed_point(self):
        z = zero(1, 6)
        times = np.linspace(0.0, 1.0, 11)
        mapped = duhamel_map(z, linear_trajectory(z, times), TaylorDepth.adaptive())
        assert all(max_abs(f) == 0.0 for f in fields(mapped))

    def test_mode_two_against_quadrature_oracle(self):
        eps, t_end = 0.1, 0.5
        h0 = cosine(eps)
        times = np.linspace(0.0, t_end, 501)
        mapped = duhamel_map(h0, linear_trajectory(h0, times), TaylorDepth.adaptive(1e-14))
        got = coeff(fields(mapped)[-1], 2)
        # recompute the oracle alongside the frozen value
        val, err = quad(
            lambda s: math.exp(-16.0 * (t_end - s)) * iv(2, eps * math.exp(-s)),
            0.0,
            t_end,
            epsabs=1e-16,
            epsrel=1e-14,
        )
        assert -4.0 * val == pytest.approx(MODE2_ORACLE, abs=1e-15)
        assert got.real == pytest.approx(MODE2_ORACLE, abs=1e-8)
        assert abs(got.imag) <= 1e-15

    def test_truncation_mismatch_rejected(self):
        h0 = cosine(0.2, truncation=8)
        traj = linear_trajectory(cosine(0.2, truncation=6), np.linspace(0, 1, 5))
        with pytest.raises(ValueError, match="share"):
            duhamel_map(h0, traj, TaylorDepth.adaptive())


class TestSolvePicard:
    def config(self, **kw):
        base = dict(truncation=8, dt=0.01, t_final=1.0)
        base.update(kw)
        return SolverConfig(**base)

    def test_zero_data_converges_in_one_iteration(self):
        h0 = zero(1, 8)
        cert = certify(h0)
        solution, diag = solve_picard(h0, cert, self.config())
        assert diag.iterations == 1
        assert diag.converged
        assert all(max_abs(f) == 0.0 for f in fields(solution))

    def test_accepted_data_contraction_within_certified_envelope(self):
        h0 = cosine(0.2)
        cert = certify(h0)
        solution, diag = solve_picard(h0, cert, self.config())
        assert diag.converged
        # every empirical ratio sits below the certified constant plus slack
        envelope = cert.contraction_constant * 1.05
        assert all(r <= envelope for r in diag.empirical_ratios)
        # every iterate stayed within the certificate ball
        assert all(b <= cert.r1 for b in diag.ball_distances)

    def test_fixed_point_residual_below_twice_tolerance(self):
        h0 = cosine(0.2)
        cert = certify(h0)
        config = self.config()
        solution, diag = solve_picard(h0, cert, config)
        mapped = duhamel_map(h0, solution, config.taylor, config.padding)
        gap = Trajectory(solution.times, mapped.coeffs - solution.coeffs)
        residual = spacetime_norm(gap, WeightParams(cert.alpha, 2))
        assert residual <= 2.0 * config.tol

    def test_mean_conserved_at_every_node(self, rng):
        h0 = random_field_with_norm(rng, 0.15)
        cert = certify(h0)
        solution, _ = solve_picard(h0, cert, self.config(t_final=0.5))
        assert all(coeff(f, 0) == 0.0 for f in fields(solution))

    def test_failing_certificate_blocks_iteration(self):
        h0 = cosine(0.3)
        cert = certify(h0)
        with pytest.raises(CertificateError, match="allow_uncertified"):
            solve_picard(h0, cert, self.config())

    def test_override_runs_past_threshold(self):
        h0 = cosine(0.26)
        cert = certify(h0)
        solution, diag = solve_picard(
            h0, cert, self.config(t_final=0.5), allow_uncertified=True
        )
        assert diag.converged

    def test_solution_outside_the_ball_is_refused(self):
        # the ball check's one failure: r1 below the distance the solution reaches
        h0, config = cosine(0.2), self.config(t_final=0.5)
        cert = certify(h0)
        _, diag = solve_picard(h0, cert, config)
        ball = diag.ball_distances[-1]
        assert ball == pytest.approx(8.35e-3, rel=1e-3)
        with pytest.raises(NumericalError, match="left the certificate ball"):
            solve_picard(h0, dataclasses.replace(cert, r1=0.75 * ball), config)

    def test_nonconvergence_carries_diagnostics(self):
        h0 = cosine(0.2)
        cert = certify(h0)
        with pytest.raises(PicardConvergenceError) as excinfo:
            solve_picard(h0, cert, self.config(max_iter=2, t_final=0.5))
        diag = excinfo.value.diagnostics
        assert diag.iterations == 2
        assert not diag.converged
        assert len(diag.deltas) == 2

    def test_grid_refinement_second_order(self):
        # asymptotic regime requires dt below the fastest retained scale
        # 1/|k|^4_max, hence the small box
        h0 = cosine(0.2, truncation=2)
        cert = certify(h0)
        solutions = {}
        for dt in (0.04, 0.02, 0.01):
            config = SolverConfig(truncation=2, dt=dt, t_final=0.48, tol=1e-13)
            solutions[dt], _ = solve_picard(h0, cert, config)
        norm = lambda a, b: spacetime_norm(
            Trajectory(b.times, _restrict(a, b.times) - b.coeffs), WeightParams(0.0, 2)
        )
        d1 = norm(solutions[0.02], solutions[0.04])
        d2 = norm(solutions[0.01], solutions[0.02])
        assert math.log2(d1 / d2) == pytest.approx(2.0, abs=0.3)

    def test_csv_lines_format(self):
        h0 = cosine(0.2)
        cert = certify(h0)
        _, diag = solve_picard(h0, cert, self.config(t_final=0.5))
        lines = diag.csv_lines()
        assert lines[0] == "iter,delta,ratio,ball_distance"
        assert lines[1].startswith("1,")
        assert lines[1].split(",")[2] == ""  # no ratio on the first iteration
        assert len(lines) == diag.iterations + 1


DATA = {
    "single-mode": lambda n, dim: presets.single_mode(n, dim=dim),
    "two-mode": lambda n, dim: presets.two_mode(n, dim=dim),
    "random-decay-7": lambda n, dim: presets.random_decay(n, 7, 0.2, dim=dim),
    "random-decay-3": lambda n, dim: presets.random_decay(n, 3, 0.2, dim=dim),
}


# dt = 7e-4 over T = 0.049 makes 71 nodes with 8 distinct step sizes
@pytest.mark.parametrize("dt,t_final", [(1e-3, 0.01), (7e-4, 0.049)])
@pytest.mark.parametrize("data", list(DATA))
@pytest.mark.parametrize("truncation,padding", [(16, 2.0), (7, 1.5), (4, 3.0), (2, 1.0)])
@pytest.mark.parametrize("dim", [1, 2])
def test_buffered_solve_has_the_bytes_of_the_allocating_loop(
    dim, truncation, padding, data, dt, t_final
):
    h0 = DATA[data](truncation, dim)
    cert = certify(h0)
    config = SolverConfig(truncation=truncation, dt=dt, t_final=t_final, padding=padding)
    solution, diag = solve_picard(h0, cert, config)
    coeffs, deltas, ratios, balls = allocating_picard(h0, cert, config)
    assert solution.coeffs.tobytes() == coeffs.tobytes()
    assert diag.deltas == deltas
    assert diag.empirical_ratios == ratios
    assert diag.ball_distances == balls


class TestValidationAtTheBoundary:
    """Picard validates the linear flow and its result, never an iterate."""

    def test_check_count_does_not_grow_with_iterations(self, monkeypatch):
        calls = []
        check = semigroup.check_half

        def counting(*args):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(semigroup, "check_half", counting)
        h0 = cosine(0.2)
        cert = certify(h0)
        counts, iterations = [], []
        for tol in (1e-6, 1e-12):
            calls.clear()
            config = SolverConfig(truncation=8, dt=0.01, t_final=1.0, tol=tol)
            _, diag = solve_picard(h0, cert, config)
            counts.append(len(calls))
            iterations.append(diag.iterations)
        assert iterations[0] < iterations[1]
        assert counts[0] == counts[1] <= 2

    def test_returned_solution_is_validated(self, monkeypatch):
        duhamel = semigroup.duhamel_Iplus

        def skewed(traj, out=None, kernel=None):
            # mode k = (1, 0) moves without its partner k = (-1, 0), both on
            # the half box's k_last = 0 line: not a real field
            coeffs = duhamel(traj).coeffs.copy()
            coeffs[1:, 5, 0] += 1e-3j
            return Trajectory._trusted(traj.times, coeffs)

        monkeypatch.setattr(picard, "duhamel_Iplus", skewed)
        h0 = FourierField.from_modes(2, 4, {(1, 0): 0.1})
        config = SolverConfig(truncation=4, dt=0.01, t_final=0.5)
        with pytest.raises(ValueError, match="not Hermitian"):
            solve_picard(h0, certify(h0), config)


def _restrict(traj, times):
    """The coefficients of a trajectory at the nodes of a coarser grid (which must coincide)."""
    keep = [int(np.argmin(np.abs(traj.times - t))) for t in times]
    assert np.allclose(traj.times[keep], times, rtol=0, atol=1e-12)
    return traj.coeffs[keep]
