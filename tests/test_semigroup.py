"""Linear flow, Duhamel accumulation and the operator-norm probe."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad, simpson

from epitaxy import semigroup
from epitaxy.norms import WeightParams, spacetime_norm
from epitaxy.semigroup import (
    Trajectory,
    duhamel_Iplus,
    duhamel_kernel,
    exp_moment_weights,
    linear_trajectory,
    operator_bound_probe,
    random_probe_trajectory,
)
from epitaxy.spectral import FourierField, check_half, place_modes

from conftest import random_field, trajectory_of
from reference import coeff, dense_probe, fields, max_abs, whole_ksq, zero


def cosine(truncation=4, amplitude=1.0):
    return FourierField.from_modes(1, truncation, {(1,): amplitude / 2.0})


def single_mode_trajectory(times, profile, k=1, truncation=4):
    """One real cosine mode whose coefficient follows ``profile(t)``."""
    nodes = [FourierField.from_modes(1, truncation, {(k,): profile(t)}) for t in times]
    return trajectory_of(times, nodes)


def moment(lam, dt, f0, f1):
    """integral_0^dt exp(-lam (dt - s)) (f0 + (f1 - f0) s / dt) ds from the kernel weights."""
    wa, wb = exp_moment_weights(lam * dt)
    return complex(dt * (f0 * wa + f1 * wb))


class TestTrajectory:
    def test_first_node_must_be_zero(self):
        f = cosine()
        with pytest.raises(ValueError, match="t = 0"):
            trajectory_of([0.5, 1.0], (f, f))

    def test_times_strictly_increasing(self):
        f = cosine()
        with pytest.raises(ValueError, match="increasing"):
            trajectory_of([0.0, 1.0, 1.0], (f, f, f))

    def test_json_round_trip(self, rng):
        traj = linear_trajectory(random_field(rng, truncation=3), np.linspace(0, 1, 5))
        back = Trajectory.from_json_dict(traj.to_json_dict())
        assert np.array_equal(back.times, traj.times)
        for a, b in zip(fields(back), fields(traj)):
            np.testing.assert_allclose(a.coeffs, b.coeffs, rtol=0, atol=1e-15)


    @pytest.mark.parametrize(
        "key,value", [("dim", 1.9), ("dim", True), ("truncation", 3.5), ("truncation", "3")]
    )
    def test_json_header_must_be_integers(self, key, value):
        # int() read dim 1.9 as 1, and radius ran on the result
        data = linear_trajectory(cosine(), [0.0, 1.0]).to_json_dict()
        with pytest.raises(ValueError, match="dim and truncation must be integers"):
            Trajectory.from_json_dict({**data, key: value})


class TestPropagate:
    """The linear flow exp(-|k|^4 t) per mode, as ``linear_trajectory`` evaluates it."""

    def test_zero_time_is_identity(self, rng):
        f = random_field(rng, dim=2, truncation=3)
        np.testing.assert_array_equal(linear_trajectory(f, [0.0]).coeffs[0], f.coeffs)

    def test_unit_mode_decay_factor(self):
        g = fields(linear_trajectory(cosine(), [0.0, 1.0]))[1]
        assert coeff(g, 1) == pytest.approx(0.5 * 0.36787944117144233, rel=1e-15)

    def test_semigroup_law(self, rng):
        f = random_field(rng, truncation=5)
        once = linear_trajectory(f, [0.0, 0.7 + 0.4]).coeffs[1]
        halfway = fields(linear_trajectory(f, [0.0, 0.7]))[1]
        twice = linear_trajectory(halfway, [0.0, 0.4]).coeffs[1]
        scale = max(np.max(np.abs(once)), 1e-300)
        assert np.max(np.abs(once - twice)) <= 1e-13 * scale

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            linear_trajectory(cosine(), [0.0, -0.1])


class TestLinearTrajectory:
    def test_zero_data_stays_zero(self):
        traj = linear_trajectory(zero(1, 4), np.linspace(0, 1, 5))
        assert all(max_abs(f) == 0.0 for f in fields(traj))

    def test_two_node_values(self):
        traj = linear_trajectory(cosine(), np.array([0.0, 1.0]))
        assert coeff(fields(traj)[0], 1) == pytest.approx(0.5)
        assert coeff(fields(traj)[1], 1) == pytest.approx(0.5 * math.exp(-1.0))

    def test_per_mode_monotone_decay(self, rng):
        traj = linear_trajectory(random_field(rng, truncation=4), np.linspace(0, 2, 9))
        mags = np.stack([np.abs(f.coeffs) for f in fields(traj)])
        assert np.all(np.diff(mags, axis=0) <= 1e-300 + 0.0)

    def test_parts_below_the_smallest_normal_float_are_zero(self, rng):
        # the top modes at N = 16 pass through the subnormal range near
        # t = 0.011; 201 nodes of a 2-D box are four row blocks
        h0 = random_field(rng, dim=2, truncation=16)
        times = np.linspace(0.0, 0.02, 201)
        parts = linear_trajectory(h0, times).coeffs.view(float)
        k4 = (whole_ksq(2, 16) ** 2)[:, 16:]
        exact = (h0.coeffs * np.exp(-k4 * times[:, None, None])).view(float)
        subnormal = (exact != 0.0) & (np.abs(exact) < np.finfo(float).tiny)
        assert np.count_nonzero(subnormal) > 100
        assert np.array_equal(parts, np.where(subnormal, 0.0, exact))


class TestExpmMoments:
    def test_constant_integrand_closed_form(self):
        lam, dt = 3.0, 0.4
        got = moment(lam, dt, 1.0, 1.0)
        assert got == pytest.approx((1.0 - math.exp(-lam * dt)) / lam, rel=1e-14)

    def test_trapezoid_limit_small_z(self):
        got = moment(1e-12, 0.5, 0.0, 1.0)
        assert got == pytest.approx(0.25, rel=1e-12)  # dt / 2

    def test_simpson_oracle_lam16(self):
        # refined Simpson rule; 64 subintervals only reach ~2e-10 here, so the
        # brute-force oracle uses 4096 to support the 1e-12 comparison
        lam, dt = 16.0, 0.1
        x = np.linspace(0.0, dt, 4097)
        y = np.exp(-lam * (dt - x)) * (1.0 - x / dt)
        oracle = float(simpson(y, x=x))
        got = moment(lam, dt, 1.0, 0.0)
        assert got.imag == 0.0
        assert got.real == pytest.approx(oracle, abs=1e-12)
        assert oracle == pytest.approx(0.018557384891167810, abs=1e-15)

    @pytest.mark.parametrize("z", [1e-8, 1e-6, 1e-3, 0.1, 0.5, 0.999, 1.0, 2.0, 16.0, 1e3])
    def test_relative_accuracy_against_mpmath(self, z):
        mp.mp.dps = 40
        zm = mp.mpf(z)
        w0_ref = (1 - mp.e**-zm) / zm
        w1_ref = (zm - 1 + mp.e**-zm) / zm**2
        dt = 0.25
        lam = z / dt
        for f0, f1 in ((1.0, 0.0), (0.0, 1.0), (0.3 + 0.7j, -1.1 + 0.2j)):
            ref = complex(mp.mpf(dt) * (f0 * (w0_ref - w1_ref) + f1 * w1_ref))
            got = moment(lam, dt, f0, f1)
            assert abs(got - ref) <= 1e-14 * abs(ref)

    def test_weights_continuous_across_branch(self):
        below = exp_moment_weights(1.0 - 1e-12)
        above = exp_moment_weights(1.0 + 1e-12)
        assert below[0] == pytest.approx(above[0], rel=1e-11)
        assert below[1] == pytest.approx(above[1], rel=1e-11)


class TestDuhamelIplus:
    def test_zero_in_zero_out(self):
        traj = linear_trajectory(zero(1, 3), np.linspace(0, 1, 6))
        out = duhamel_Iplus(traj)
        assert all(max_abs(f) == 0.0 for f in fields(out))

    def test_constant_profile_closed_form(self):
        # f(s, k) = c at |k| = 1: g(t) = -c (1 - e^{-t}); exact for the
        # piecewise-linear representation, so roundoff-level agreement
        c = 0.3
        times = np.linspace(0.0, 4.0, 41)
        traj = single_mode_trajectory(times, lambda t: c)
        out = duhamel_Iplus(traj)
        for t, f in zip(out.times, fields(out)):
            assert coeff(f, 1) == pytest.approx(-c * (1.0 - math.exp(-t)), abs=1e-14)
        # long-time limit tends to -c
        assert coeff(fields(out)[-1], 1) == pytest.approx(-c, rel=1e-1)
        # independent quadrature oracle at the final node
        val, _ = quad(lambda s: math.exp(-(4.0 - s)) * c, 0.0, 4.0, epsabs=1e-14)
        assert coeff(fields(out)[-1], 1) == pytest.approx(-val, abs=1e-12)

    def test_exponential_profile_against_closed_form(self):
        # f(s, 1) = c e^{-s/2}: g(1) = -c (e^{-1/2} - e^{-1}) / (1 - 1/2)
        c = 0.25
        closed = -c * 0.47730243708238217
        errors = []
        for n in (40, 80, 160):
            times = np.linspace(0.0, 1.0, n + 1)
            traj = single_mode_trajectory(times, lambda t: c * math.exp(-0.5 * t))
            got = coeff(fields(duhamel_Iplus(traj))[-1], 1)
            errors.append(abs(got - closed))
        assert errors[0] <= 5e-5  # already accurate on the coarse grid
        # second-order refinement towards the closed form
        order1 = math.log2(errors[0] / errors[1])
        order2 = math.log2(errors[1] / errors[2])
        assert order1 == pytest.approx(2.0, abs=0.3)
        assert order2 == pytest.approx(2.0, abs=0.3)

    def test_refinement_changes_output_quadratically(self, rng):
        # doubling the grid moves the result by O(dt^2) for smooth inputs
        h0 = random_field(rng, truncation=3)
        def result(n):
            times = np.linspace(0.0, 1.0, n + 1)
            return duhamel_Iplus(linear_trajectory(h0, times))
        coarse, mid, fine = result(20), result(40), result(80)
        d1 = np.max(np.abs(fields(coarse)[-1].coeffs - fields(mid)[-1].coeffs))
        d2 = np.max(np.abs(fields(mid)[-1].coeffs - fields(fine)[-1].coeffs))
        assert math.log2(d1 / d2) == pytest.approx(2.0, abs=0.35)

    def test_discrete_residual_second_order(self):
        # d/dt g = -|k|^4 g - |k|^2 f at |k| = 1, central differences
        def residual(n):
            times = np.linspace(0.0, 1.0, n + 1)
            traj = single_mode_trajectory(times, lambda t: 0.5 * math.exp(-0.3 * t))
            out = duhamel_Iplus(traj)
            g = np.array([coeff(f, 1) for f in fields(out)])
            f = np.array([coeff(f, 1) for f in fields(traj)])
            dt = times[1] - times[0]
            dgdt = (g[2:] - g[:-2]) / (2.0 * dt)
            res = dgdt + g[1:-1] + f[1:-1]
            return float(np.max(np.abs(res)))
        r1, r2 = residual(50), residual(100)
        assert math.log2(r1 / r2) == pytest.approx(2.0, abs=0.3)

    def test_mean_zero_and_hermitian_preserved(self, rng):
        traj = linear_trajectory(random_field(rng, dim=2, truncation=3), np.linspace(0, 1, 9))
        out = duhamel_Iplus(traj)
        for f in fields(out):
            assert coeff(f, (0, 0)) == 0.0  # construction re-checks symmetry


class TestDuhamelKernel:
    """One kernel per grid and box: the operator's bytes with or without it."""

    # the probe's grid, a 2-D solve's and one of 8 distinct steps
    GRIDS = {
        "probe": np.linspace(0.0, 0.5, 51),
        "solve-2d": np.linspace(0.0, 0.1, 101),
        "eight-steps": np.linspace(0.0, 0.049, 71),
    }

    @pytest.mark.parametrize("grid", sorted(GRIDS))
    @pytest.mark.parametrize("dim,truncation", [(1, 16), (2, 8), (2, 16)])
    def test_image_with_a_kernel_keeps_the_bytes(self, rng, grid, dim, truncation):
        times = self.GRIDS[grid]
        if grid == "eight-steps":
            assert np.unique(np.diff(times)).size == 8
        traj = linear_trajectory(random_field(rng, dim=dim, truncation=truncation), times)
        expected = duhamel_Iplus(traj).coeffs.tobytes()
        kernel = duhamel_kernel(times, dim, truncation)
        assert duhamel_Iplus(traj, kernel=kernel).coeffs.tobytes() == expected
        in_place = traj.coeffs.copy()
        image = duhamel_Iplus(
            Trajectory._trusted(traj.times, in_place.view()), out=in_place, kernel=kernel
        )
        assert in_place.tobytes() == image.coeffs.tobytes() == expected

    def test_kernel_of_another_grid_or_box_is_refused(self, rng):
        times = np.linspace(0.0, 0.5, 51)
        traj = linear_trajectory(random_field(rng, dim=2, truncation=4), times)
        others = {
            "box": duhamel_kernel(times, 2, 5),
            "dim": duhamel_kernel(times, 1, 4),
            "grid": duhamel_kernel(np.linspace(0.0, 0.6, 51), 2, 4),
            "nodes": duhamel_kernel(np.linspace(0.0, 0.5, 52), 2, 4),
        }
        for kernel in others.values():
            with pytest.raises(ValueError, match="another time grid or box"):
                duhamel_Iplus(traj, kernel=kernel)
        # an equal grid in another array is the same grid
        kernel = duhamel_kernel(times.copy(), 2, 4)
        assert duhamel_Iplus(traj, kernel=kernel).coeffs.tobytes() == (
            duhamel_Iplus(traj).coeffs.tobytes()
        )

    @pytest.mark.parametrize("grid", sorted(GRIDS))
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("truncation", [2, 9, 16])
    def test_support_image_equals_the_dense_image_columns(self, rng, grid, dim, truncation):
        # the probe's scan on the support, from kernels built at 16 and in
        # the trajectory's own box, against the whole box's image
        times = self.GRIDS[grid]
        traj = sparse_trajectory(rng, dim, truncation, times)
        nodes = traj.coeffs.reshape(len(times), -1)
        support = np.flatnonzero(nodes.any(axis=0))
        if dim == 2:  # the k_last = 0 modes (1, 0) and (-1, 0) are both scanned
            line = [truncation + 1, truncation - 1]
            assert set(np.ravel_multi_index((line, [0, 0]), traj.coeffs.shape[1:])) <= set(support)
        expected = duhamel_Iplus(traj).coeffs.reshape(len(times), -1)[:, support].tobytes()
        for kernel in (duhamel_kernel(times, dim, 16), duhamel_kernel(times, dim, truncation)):
            columns = nodes.take(support, axis=1)
            semigroup._support_image(columns, support, traj.coeffs.shape[1:], kernel)
            assert columns.tobytes() == expected


def sparse_trajectory(rng, dim, truncation, times):
    """A few modes, among them the k_last = 0 mode (1, 0) in 2-D, each with a
    random amplitude decaying at a random rate; ``place_modes`` adds the partners."""
    if dim == 1:
        modes = sorted({(1,), (truncation - 1,), (truncation,)})
    else:
        modes = [(1, 0), (-truncation, 0), (-truncation, truncation), (truncation, -1), (0, 1)]
    amps = rng.standard_normal(len(modes)) + 1j * rng.standard_normal(len(modes))
    values = amps * np.exp(-np.outer(times, rng.uniform(0.0, 8.0, len(modes))))
    return Trajectory(times, place_modes(dim, truncation, modes, values))


class TestOperatorBoundProbe:
    def test_probe_trajectories_are_valid(self, rng):
        # they skip validation, so each must pass it: zero mode never drawn,
        # and a k_last = 0 line made exactly Hermitian
        times = np.linspace(0.0, 0.5, 51)
        for draw in range(200):
            traj = random_probe_trajectory(rng, 1 + draw % 2, 2 + draw % 15, times)
            check_half(traj.coeffs)
            assert np.array_equal(traj.times, times)
            assert not (traj.coeffs.flags.writeable or traj.times.flags.writeable)

    def test_extremal_profile_at_unit_mode(self):
        # profile e^{-alpha t} at |k| = 1 attains the per-mode supremum as
        # t grows; the measured ratio must stay below 1/(1 - alpha)
        alpha = 0.5
        times = np.linspace(0.0, 4.0, 401)
        traj = single_mode_trajectory(times, lambda t: 0.5 * math.exp(-alpha * t))
        (report,) = operator_bound_probe(traj, (alpha,))
        expected = (1.0 - math.exp(-(1.0 - alpha) * 4.0)) / (1.0 - alpha)
        assert report.ratio == pytest.approx(expected, rel=1e-3)
        assert report.passed
        assert report.bound == pytest.approx(2.0)

    def test_mode_two_respects_per_mode_bound(self):
        alpha = 0.5
        dt = 0.01
        times = np.linspace(0.0, 4.0, 401)
        decay = alpha * 2
        traj = single_mode_trajectory(times, lambda t: 0.5 * math.exp(-decay * t), k=2)
        (report,) = operator_bound_probe(traj, (alpha,))
        # the piecewise-linear chord overshoots the convex profile by up to
        # (decay*dt)^2/8 relative, which inflates the measured ratio slightly
        slack = (decay * dt) ** 2 / 4.0
        assert report.ratio <= 1.0 / (1.0 - alpha / 8.0) * (1 + slack)  # 16/15
        assert report.passed

    def test_alpha_09_bound_is_ten(self, rng):
        traj = random_probe_trajectory(rng, 1, 8, np.linspace(0.0, 2.0, 201))
        (report,) = operator_bound_probe(traj, (0.9,))
        assert report.bound == pytest.approx(10.0)
        assert report.passed

    @pytest.mark.parametrize("dim", [1, 2])
    def test_reports_equal_the_per_alpha_norm_ratios(self, rng, dim):
        # one Duhamel image and one table per trajectory take the same
        # floating-point operations as two spacetime norms per alpha
        alphas = (0.1, 0.5, 0.5, 0.9, 0.1, 0.37)
        for truncation in (2, 5):
            traj = random_probe_trajectory(rng, dim, truncation, np.linspace(0.0, 2.0, 201))
            image = duhamel_Iplus(traj)
            reports = operator_bound_probe(traj, alphas)
            assert len(reports) == len(alphas)
            for alpha, report in zip(alphas, reports):
                ratio = spacetime_norm(image, WeightParams(alpha, 2)) / spacetime_norm(
                    traj, WeightParams(alpha, 0)
                )
                assert report.ratio == ratio  # bit for bit
                assert report.bound == 1.0 / (1.0 - alpha)
                assert report.passed == (ratio <= report.bound * (1.0 + 1e-6))

    def test_one_duhamel_image_per_trajectory(self, rng, monkeypatch):
        calls = []
        scan = semigroup._support_image

        def counted(columns, support, box, kernel):
            calls.append(box)
            scan(columns, support, box, kernel)

        monkeypatch.setattr(semigroup, "_support_image", counted)
        traj = random_probe_trajectory(rng, 2, 4, np.linspace(0.0, 1.0, 51))
        assert len(operator_bound_probe(traj, (0.1, 0.5, 0.9))) == 3
        assert calls == [traj.coeffs.shape[1:]]

    @pytest.mark.parametrize("alphas", [(0.5, 1.5), (0.5, 0.0), (math.nan,), ()])
    def test_alphas_checked_before_any_work(self, rng, monkeypatch, alphas):
        def unused(*args):
            pytest.fail("the probe did work before the alphas were checked")

        for name in ("duhamel_kernel", "_log_amplitudes", "_support_image"):
            monkeypatch.setattr(semigroup, name, unused)
        traj = random_probe_trajectory(rng, 1, 4, np.linspace(0.0, 1.0, 11))
        with pytest.raises(ValueError, match="alpha"):
            operator_bound_probe(traj, alphas)

    def test_zero_trajectory_rejected(self, monkeypatch):
        def unscanned(*args):
            pytest.fail("the zero trajectory was scanned")

        monkeypatch.setattr(semigroup, "_support_image", unscanned)
        traj = linear_trajectory(zero(1, 3), np.linspace(0, 1, 5))
        with pytest.raises(ValueError, match="nonzero"):
            operator_bound_probe(traj, (0.1, 0.5))

    @pytest.mark.parametrize("dim,truncation", [(1, 16), (2, 6)])
    def test_dense_trajectory_gives_the_dense_reports(self, rng, dim, truncation):
        times = np.linspace(0.0, 0.5, 51)
        traj = linear_trajectory(random_field(rng, dim=dim, truncation=truncation), times)
        # every entry but the zero mode is in the support
        assert np.count_nonzero(traj.coeffs.any(axis=0)) == traj.coeffs[0].size - 1
        alphas = (0.1, 0.5, 0.9)
        expected = dense_probe(traj, alphas)
        assert operator_bound_probe(traj, alphas) == expected
        assert operator_bound_probe(traj, alphas, duhamel_kernel(times, dim, 16)) == expected

    def test_kernel_of_another_grid_or_box_is_refused(self, rng):
        times = np.linspace(0.0, 0.5, 51)
        traj = random_probe_trajectory(rng, 2, 4, times)
        others = {
            "box": duhamel_kernel(times, 2, 3),
            "dim": duhamel_kernel(times, 1, 16),
            "grid": duhamel_kernel(np.linspace(0.0, 0.6, 51), 2, 16),
            "nodes": duhamel_kernel(np.linspace(0.0, 0.5, 52), 2, 16),
        }
        for kernel in others.values():
            with pytest.raises(ValueError, match="another time grid or box"):
                operator_bound_probe(traj, (0.5,), kernel)
        # a larger box on an equal grid in another array is the probe's
        kernel = duhamel_kernel(times.copy(), 2, 16)
        assert operator_bound_probe(traj, (0.5,), kernel) == dense_probe(traj, (0.5,))

    def test_randomized_suite(self, rng):
        times = np.linspace(0.0, 2.0, 201)
        for i in range(30):
            dim = 1 if i % 2 == 0 else 2
            truncation = int(rng.integers(2, 9))
            traj = random_probe_trajectory(rng, dim, truncation, times)
            assert all(report.passed for report in operator_bound_probe(traj, (0.1, 0.5, 0.9)))
