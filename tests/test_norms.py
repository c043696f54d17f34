"""Weighted norms, radius estimation and the certificate conditions."""

import math
import warnings

import numpy as np
import pytest

from epitaxy.norms import (
    SMALLNESS_THRESHOLD,
    WeightParams,
    analyticity_radius,
    certify,
    max_alpha,
    spacetime_norm,
    wiener_norm,
)
from epitaxy.presets import random_decay
from epitaxy.semigroup import linear_trajectory
from epitaxy.spectral import FourierField

from conftest import random_field, random_field_with_norm, trajectory_of
from reference import certificate_from_json_dict, multiply, random_decay_whole, zero


def cosine(truncation=4, amplitude=1.0, k=1):
    return FourierField.from_modes(1, truncation, {(k,): amplitude / 2.0})


class TestWienerNorm:
    def test_cos_j0_is_one(self):
        assert wiener_norm(cosine(), 0) == pytest.approx(1.0)

    def test_cos_j2_is_one(self):
        assert wiener_norm(cosine(), 2) == pytest.approx(1.0)

    def test_mode_two_j2_scaling(self):
        eps = 0.3
        assert wiener_norm(cosine(amplitude=eps, k=2), 2) == pytest.approx(4 * eps)

    def test_negative_j_rejected(self):
        with pytest.raises(ValueError):
            wiener_norm(cosine(), -1)


class TestWeightParams:
    def test_rejects_negative_alpha(self):
        with pytest.raises(ValueError):
            WeightParams(-0.1, 2)

    def test_rejects_negative_j(self):
        with pytest.raises(ValueError):
            WeightParams(0.5, -1)


class TestSpacetimeNorm:
    def test_alpha_zero_supremum_at_t_zero(self):
        traj = linear_trajectory(cosine(), np.linspace(0.0, 1.0, 11))
        val = spacetime_norm(traj, WeightParams(0.0, 2))
        assert val == pytest.approx(1.0, rel=1e-12)

    def test_weight_cancels_matching_profile(self):
        # single |k| = 1 mode decaying exactly like e^{-alpha t}
        alpha = 0.5
        times = np.linspace(0.0, 2.0, 21)
        fields = [FourierField.from_modes(1, 3, {(1,): 0.4 * math.exp(-alpha * t)}) for t in times]
        val = spacetime_norm(trajectory_of(times, fields), WeightParams(alpha, 2))
        assert val == pytest.approx(0.8, rel=1e-12)

    def test_linear_flow_alpha_half_max_at_zero(self):
        # weighted profile e^{(0.5 - 1) t} decays, so the norm is the t = 0 value
        traj = linear_trajectory(cosine(), np.linspace(0.0, 2.0, 41))
        val = spacetime_norm(traj, WeightParams(0.5, 2))
        assert val == pytest.approx(1.0, rel=1e-12)

    def test_huge_exponents_do_not_overflow(self):
        # alpha t |k| beyond 709 must not trip overflow before the max is taken
        times = np.array([0.0, 2000.0])
        field = FourierField.from_modes(1, 2, {(1,): 0.5})
        val = spacetime_norm(trajectory_of(times, (field, field)), WeightParams(0.9, 0))
        assert math.isinf(val)  # genuinely infinite norm is reported as inf

    @pytest.mark.parametrize("overflow", ["term", "sum"])
    def test_finite_peaks_past_the_float_range_read_inf_without_a_warning(self, overflow):
        # each exp(peak) is finite, e^709 = 8.2e307: the weight 2 |k|^2 = 8
        # of k = 2 takes its term past the float range, or two terms of
        # weight 2, 1.6e308 each, take the sum past it.  The norm is inf, and
        # numpy warns of nothing
        times = np.array([0.0, 1400.0])
        if overflow == "term":
            modes, j = {(2,): math.exp(-691.0)}, 2
        else:
            modes, j = {(1,): math.exp(9.0), (2,): math.exp(-691.0)}, 0
        field = FourierField.from_modes(1, 2, modes)
        traj = trajectory_of(times, (field, field))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            val = spacetime_norm(traj, WeightParams(0.5, j))
        assert val == math.inf


class TestAlgebraProperty:
    def test_random_products_respect_algebra_inequality(self, rng):
        for _ in range(50):
            dim = int(rng.integers(1, 3))
            f = random_field(rng, dim=dim, truncation=4)
            g = random_field(rng, dim=dim, truncation=4)
            prod, mean = multiply(f, g)
            lhs = abs(mean) + wiener_norm(prod, 0)
            rhs = wiener_norm(f, 0) * wiener_norm(g, 0)
            assert lhs <= rhs * (1 + 1e-12)

    def test_constant_trajectory_embedding(self, rng):
        # time-independent fields as two-node trajectories, alpha = 0
        f = random_field(rng, truncation=4)
        g = random_field(rng, truncation=4)
        prod, _ = multiply(f, g)
        times = np.array([0.0, 1.0])
        norm = lambda x: spacetime_norm(
            trajectory_of(times, (x, x)), WeightParams(0.0, 0)
        )
        assert norm(prod) <= norm(f) * norm(g) * (1 + 1e-12)

    def test_single_mode_equality(self):
        f = cosine(truncation=3, amplitude=0.7, k=1)
        g = cosine(truncation=3, amplitude=1.3, k=2)
        prod, mean = multiply(f, g)
        lhs = abs(mean) + wiener_norm(prod, 0)
        assert lhs == pytest.approx(0.7 * 1.3, rel=1e-12)


class TestSemigroupDomination:
    def test_linear_flow_never_exceeds_initial_norm(self, rng):
        for _ in range(20):
            h0 = random_field(rng, truncation=6)
            alpha = float(rng.uniform(0.01, 0.99))
            traj = linear_trajectory(h0, np.linspace(0.0, 2.0, 21))
            lhs = spacetime_norm(traj, WeightParams(alpha, 2))
            rhs = wiener_norm(h0, 2)
            assert lhs <= rhs * (1 + 1e-12)
            assert lhs == pytest.approx(rhs, rel=1e-12)  # supremum sits at t = 0


class TestAnalyticityRadius:
    def test_exact_exponential_profile(self):
        modes = {(k,): math.exp(-2.0 * k) for k in range(1, 9)}
        f = FourierField.from_modes(1, 8, modes)
        fit = analyticity_radius(f, floor=1e-13)
        assert fit.rho == pytest.approx(2.0, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.n_shells == 8

    def test_too_few_shells_errors_with_count(self):
        # a node under 3 shells is reported, not refused: its count and NaN
        fit = analyticity_radius(cosine(), floor=1e-13)
        assert fit.n_shells == 1
        assert math.isnan(fit.rho) and math.isnan(fit.r_squared)

    def test_floor_drops_noise_shells(self):
        modes = {(k,): math.exp(-2.0 * k) for k in range(1, 5)}
        modes[(8,)] = 1e-16  # truncation noise
        f = FourierField.from_modes(1, 8, modes)
        fit = analyticity_radius(f, floor=1e-13)
        assert fit.n_shells == 4
        assert fit.rho == pytest.approx(2.0, abs=1e-9)

    def test_two_dimensional_shell_grouping(self):
        # (1,0) and (0,1) share a shell; the max amplitude represents it
        modes = {
            (1, 0): math.exp(-1.0),
            (0, 1): 0.5 * math.exp(-1.0),
            (1, 1): math.exp(-math.sqrt(2.0)),
            (2, 0): math.exp(-2.0),
        }
        f = FourierField.from_modes(2, 2, modes)
        fit = analyticity_radius(f, floor=1e-13)
        assert fit.n_shells == 3
        assert fit.rho == pytest.approx(1.0, abs=1e-9)


class TestMaxAlpha:
    def test_one_eighth_gives_two_thirds(self):
        assert max_alpha(0.125) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_limit_towards_zero_data(self):
        assert max_alpha(0.0) == pytest.approx(1.0)
        assert max_alpha(1e-12) < 1.0

    def test_value_at_024(self):
        assert max_alpha(0.24) == pytest.approx(0.04 / 0.52, abs=1e-12)

    def test_rejects_threshold_and_beyond(self):
        for r0 in (0.25, 0.3, -0.01):
            with pytest.raises(ValueError, match="threshold"):
                max_alpha(r0)

    def test_strictly_decreasing_to_zero(self):
        grid = np.linspace(0.0, 0.2499, 200)
        vals = np.array([max_alpha(float(r)) for r in grid])
        assert np.all(np.diff(vals) < 0)
        assert max_alpha(0.2499999) == pytest.approx(0.0, abs=1e-5)

    def test_substitution_identity(self):
        for r0 in (0.0, 0.05, 0.125, 0.2, 0.24, 0.249):
            a = max_alpha(r0)
            assert abs(r0 - (1 - a) / (2 * (2 - a))) <= 1e-12

    def test_substitution_reproduces_r0_on_a_dense_sweep(self):
        # the closed form put back into (1 - alpha) / (2 (2 - alpha)) gives r0
        # within 1e-15 on 2.4 million r0 in [0, 1/4), dense near both ends and
        # down to 1e-300 (the largest residual is about 7e-17), so max_alpha
        # checks no residual when it runs.  The sweep takes max_alpha's float
        # operations array-wise, in four parts; a sample is checked against it
        below = 0.25 - np.arange(1, 600_001) * 2.0**-55  # the last floats below 1/4
        parts = (
            np.linspace(0.0, 0.25, 600_000, endpoint=False),
            np.logspace(-300.0, -1.0, 600_000),
            0.25 - np.logspace(-16.5, -1.0, 600_000),
            below,
        )
        for r0 in parts:
            assert r0.min() >= 0.0 and r0.max() < 0.25
            alpha = (1.0 - 4.0 * r0) / (1.0 - 2.0 * r0)
            residual = np.abs(r0 - (1.0 - alpha) / (2.0 * (2.0 - alpha)))
            assert residual.max() <= 1e-15
            sample = r0[::997]
            assert [max_alpha(r) for r in sample.tolist()] == alpha[::997].tolist()


class TestCertify:
    def test_r0_02_alpha_025_passes_with_known_constant(self):
        h0 = cosine(amplitude=0.2)
        cert = certify(h0, alpha=0.25)
        assert cert.passed
        # direct evaluation of (e^{0.4} - 1) / 0.75
        assert cert.contraction_constant == pytest.approx(
            (math.exp(0.4) - 1.0) / 0.75, abs=1e-12
        )
        assert cert.contraction_constant < 1.0
        assert cert.mapping_lhs == pytest.approx(
            (math.exp(0.4) - 1.0 - 0.4) / 0.75, abs=1e-12
        )

    def test_default_alpha_is_admissible_midpoint(self):
        cert = certify(cosine(amplitude=0.2))
        assert cert.alpha == pytest.approx(max_alpha(0.2) / 2.0)
        assert cert.passed

    def test_threshold_failure(self):
        cert = certify(cosine(amplitude=0.3))
        assert cert.r0 == pytest.approx(0.3)
        assert not cert.passed

    def test_data_far_past_the_threshold_fails_without_overflow(self):
        # math.expm1(2 r0) raised OverflowError for r0 = 1e18, past the CLI's main
        cert = certify(cosine(amplitude=1e18))
        assert not cert.passed
        assert cert.contraction_constant == math.inf

    def test_zero_data_passes_any_alpha(self):
        h0 = zero(1, 4)
        for alpha in (0.1, 0.5, 0.9):
            cert = certify(h0, alpha=alpha)
            assert cert.passed
            assert cert.contraction_constant == 0.0

    def test_alpha_outside_unit_interval_rejected(self):
        for alpha in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError, match="alpha"):
                certify(cosine(amplitude=0.1), alpha=alpha)

    def test_passing_certificates_satisfy_log_form(self, rng):
        # redundant exponential condition e^{2 r0} < 2 - alpha whenever pass
        for _ in range(50):
            target = float(rng.uniform(0.0, 0.249))
            h0 = random_field_with_norm(rng, target) if target > 0 else zero(1, 8)
            cert = certify(h0)
            if cert.passed:
                assert math.exp(2.0 * cert.r0) < 2.0 - cert.alpha

    def test_mapping_condition_is_the_binding_one(self):
        # (1 - a) / (2 (2 - a)) < ln(2 - a) / 2 across (0, 1)
        alphas = np.linspace(1e-6, 1.0 - 1e-6, 10_000)
        lhs = (1.0 - alphas) / (2.0 * (2.0 - alphas))
        rhs = np.log(2.0 - alphas) / 2.0
        assert np.all(lhs < rhs)

    def test_json_round_trip_includes_threshold(self):
        cert = certify(cosine(amplitude=0.2))
        data = cert.to_json_dict()
        assert data["smallness_threshold"] == SMALLNESS_THRESHOLD
        assert certificate_from_json_dict(data) == cert

    @pytest.mark.parametrize("dim", [1, 2])
    def test_r0_is_the_first_node_norm_bit_for_bit(self, dim):
        # one smallness number: the certificate and Picard's first node sum
        # the same half box with the same pair weights
        h0 = random_decay(16, seed=7, amplitude=0.2, dim=dim)
        node = wiener_norm(linear_trajectory(h0, [0.0]), 2)[0]
        assert certify(h0).r0 == node
        assert type(certify(h0).r0) is float


class TestRandomDecay:
    @pytest.mark.parametrize("amplitude", [0.2, 0.249, 3.0])
    @pytest.mark.parametrize("seed", [0, 7, 12345])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_half_box_is_the_whole_draw_sliced(self, dim, seed, amplitude):
        field = random_decay(16, seed=seed, amplitude=amplitude, dim=dim)
        whole = random_decay_whole(16, seed=seed, amplitude=amplitude, dim=dim)
        assert field.coeffs.tobytes() == whole[..., 16:].tobytes()
