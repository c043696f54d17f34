"""Dual-route right-hand side evaluation and the series term machinery."""

import math

import numpy as np
import pytest
from scipy.integrate import simpson

from epitaxy.exceptions import NumericalError
from epitaxy.nonlinear import DEPTH_HARD_CAP, TaylorDepth, padded_grid_size
from epitaxy.norms import wiener_norm
from epitaxy.spectral import FourierField

from conftest import random_field_with_norm
from reference import (
    coeff,
    max_abs,
    resolve_depth,
    rhs_exponential,
    rhs_series,
    series_sum,
    sub,
    taylor_term,
    zero,
)


def cosine(truncation=8, amplitude=1.0):
    return FourierField.from_modes(1, truncation, {(1,): amplitude / 2.0})


def norm_with_mean(field, mean):
    """Full Wiener norm of a field-plus-mean pair."""
    return abs(mean) + wiener_norm(field, 0)


class TestTaylorDepth:
    def test_exactly_one_mode_required(self):
        with pytest.raises(ValueError):
            TaylorDepth()
        with pytest.raises(ValueError):
            TaylorDepth(max_j=3, tail_tol=1e-10)

    def test_fixed_depth_resolves_to_itself(self):
        assert TaylorDepth(max_j=7).resolve(np.array([0.4])).tolist() == [7]

    def test_linear_sentinel_allowed(self):
        assert TaylorDepth(max_j=1).resolve(np.array([10.0])).tolist() == [1]

    def test_fixed_zero_rejected(self):
        with pytest.raises(ValueError):
            TaylorDepth(max_j=0)

    def test_adaptive_respects_remainder_bound(self):
        depth = TaylorDepth.adaptive(1e-12)
        norms = (0.0, 0.1, 0.5, 0.9, 2.0)
        for r, j in zip(norms, depth.resolve(np.array(norms)).tolist()):
            assert j >= 2
            assert r ** (j + 1) / math.factorial(j + 1) < 1e-12
            if j > 2:  # minimality: one term fewer violates the tolerance
                assert r**j / math.factorial(j) >= 1e-12

    def test_adaptive_cap_reports_tail(self):
        with pytest.raises(NumericalError, match="tail bound"):
            TaylorDepth.adaptive(1e-12).resolve(np.array([0.5, 20.0]))
        assert DEPTH_HARD_CAP == 64

    @pytest.mark.parametrize("tail_tol", [1e-12, 1e-3, 1e-15])
    def test_array_resolve_matches_scalar_oracle(self, rng, tail_tol):
        depth = TaylorDepth.adaptive(tail_tol)
        norms = np.concatenate([[0.0], rng.uniform(0.0, 8.0, 500), rng.lognormal(-2.0, 2.0, 500)])
        norms = norms[norms < 10.0]
        got = depth.resolve(norms)
        assert got.dtype == np.int64
        assert got.tolist() == [resolve_depth(depth, float(r)) for r in norms]
        assert got[0] == 2  # r = 0

    @staticmethod
    def _edge(below, above, differs):
        """Adjacent floats lo < hi with ``differs(lo, hi)``, bisected from (below, above)."""
        lo, hi = below, above
        while np.nextafter(lo, math.inf) < hi:
            mid = 0.5 * (lo + hi)
            mid = min(max(mid, np.nextafter(lo, math.inf)), np.nextafter(hi, -math.inf))
            if differs(lo, mid):
                hi = mid
            else:
                lo = mid
        return lo, hi

    @pytest.mark.parametrize("tail_tol", [1e-12, 1e-3])
    def test_array_resolve_matches_oracle_at_tolerance_edges(self, tail_tol):
        # the two floats on either side of each r where the oracle's depth steps
        depth = TaylorDepth.adaptive(tail_tol)

        def oracle(r):
            return resolve_depth(depth, float(r))

        edges = []
        for j in range(2, 12):
            # smallest r with depth > j lies where r^(j+1)/(j+1)! = tail_tol
            guess = (tail_tol * math.factorial(j + 1)) ** (1.0 / (j + 1))
            lo, hi = self._edge(guess * 0.5, guess * 2.0, lambda a, b: oracle(b) > j)
            assert oracle(lo) == j and oracle(hi) > j
            edges += [lo, hi]
        norms = np.array(edges)
        assert depth.resolve(norms).tolist() == [oracle(r) for r in norms]

    def test_array_resolve_matches_oracle_at_the_cap(self):
        depth = TaylorDepth.adaptive(1e-12)

        def over_cap(r):
            try:
                resolve_depth(depth, float(r))
            except NumericalError:
                return True
            return False

        lo, hi = self._edge(1.0, 100.0, lambda a, b: over_cap(b))
        assert resolve_depth(depth, lo) == DEPTH_HARD_CAP
        assert depth.resolve(np.array([0.0, lo])).tolist() == [2, DEPTH_HARD_CAP]
        with pytest.raises(NumericalError) as scalar:
            resolve_depth(depth, hi)
        # the message names the tail of the first node over the cap
        with pytest.raises(NumericalError) as batch:
            depth.resolve(np.array([lo, hi, 2.0 * hi]))
        assert str(batch.value) == str(scalar.value)

    @pytest.mark.parametrize("max_j", [1, 7])
    def test_fixed_resolve_ignores_norms(self, rng, max_j):
        norms = np.concatenate([[0.0, 30.0], rng.uniform(0.0, 10.0, 50)])
        got = TaylorDepth(max_j=max_j).resolve(norms)
        assert got.dtype == np.int64
        assert got.tolist() == [resolve_depth(TaylorDepth(max_j=max_j), r) for r in norms]

    def test_padded_grid_size(self):
        assert padded_grid_size(8, 2.0) == 34
        assert padded_grid_size(8, 1.0) == 17
        with pytest.raises(ValueError):
            padded_grid_size(8, 0.5)


class TestTaylorTermFj:
    def test_f2_of_cosine_matches_hand_expansion_and_quadrature(self):
        # lap h = -cos x, F2 = cos^2 x / 2 = 1/4 + cos(2x)/4
        field, mean = taylor_term(cosine(), 2)
        assert mean == pytest.approx(0.25, abs=1e-14)
        assert coeff(field, 2) == pytest.approx(0.125, abs=1e-14)
        assert coeff(field, -2) == pytest.approx(0.125, abs=1e-14)
        # quadrature oracle for the mode-2 coefficient of cos^2 / 2
        x = np.linspace(0.0, 2.0 * np.pi, 2049)
        target = simpson(0.5 * np.cos(x) ** 2 * np.exp(-2j * x), x=x) / (2.0 * np.pi)
        assert coeff(field, 2) == pytest.approx(target, abs=1e-10)

    def test_f3_of_zero_field(self):
        field, mean = taylor_term(zero(1, 4), 3)
        assert mean == 0.0
        assert max_abs(field) == 0.0

    def test_f3_to_f2_ratio_bounded_by_third_of_norm(self, rng):
        # |F3| / |F2| <= |lap h| / 3 by the algebra property
        for _ in range(20):
            h = random_field_with_norm(rng, float(rng.uniform(0.05, 0.8)))
            f2 = norm_with_mean(*taylor_term(h, 2))
            f3 = norm_with_mean(*taylor_term(h, 3))
            r = wiener_norm(h, 2)
            assert f3 <= (r / 3.0) * f2 * (1 + 1e-10)


class TestRhsTaylor:
    def test_depth_two_closed_form(self):
        eps = 0.2
        result = rhs_series(cosine(amplitude=eps), TaylorDepth(max_j=2))
        assert coeff(result, 1) == pytest.approx(-eps / 2.0, abs=1e-14)
        assert coeff(result, 2) == pytest.approx(-(eps**2) / 2.0, abs=1e-13)

    def test_zero_field(self):
        result = rhs_series(zero(1, 5), TaylorDepth.adaptive())
        assert max_abs(result) == 0.0

    def test_mean_zero_output(self, rng):
        h = random_field_with_norm(rng, 0.3)
        assert coeff(rhs_series(h, TaylorDepth.adaptive()), 0) == 0.0


class TestRhsExponential:
    def test_zero_field(self):
        assert max_abs(rhs_exponential(zero(1, 5))) == 0.0

    def test_linearization_about_zero(self):
        eps = 1e-4
        result = rhs_exponential(cosine(amplitude=eps))
        assert coeff(result, 1) == pytest.approx(-eps / 2.0, rel=1e-6)

    def test_overflow_names_grid_value(self):
        big = cosine(amplitude=2000.0)
        with pytest.raises(NumericalError, match="overflow"):
            rhs_exponential(big)

    def test_agreement_with_deep_taylor_at_eps_01(self):
        h = cosine(amplitude=0.1)
        via_exp = rhs_exponential(h)
        via_series = rhs_series(h, TaylorDepth(max_j=20))
        assert wiener_norm(sub(via_exp, via_series), 0) <= 1e-10


class TestMutualOracle:
    def test_paths_agree_on_random_small_fields(self, rng):
        for _ in range(15):
            dim = int(rng.integers(1, 3))
            trunc = 8 if dim == 1 else 5
            r = float(rng.uniform(0.02, 0.5))
            h = random_field_with_norm(rng, r, dim=dim, truncation=trunc)
            gap = wiener_norm(
                sub(rhs_series(h, TaylorDepth.adaptive(1e-12)), rhs_exponential(h)), 0
            )
            assert gap <= max(1e-10, 1e-8 * r)

    def test_first_order_consistency_scaling(self, rng):
        # |rhs(eps f) + eps lap^2 f| = O(eps^2): the ratio between eps = 1e-2
        # and eps = 1e-3 must be 100 up to the next-order correction.
        f = random_field_with_norm(rng, 1.0)
        def defect(eps):
            h = f * eps
            linear_part = sub(rhs_exponential(h), rhs_series(h, TaylorDepth(max_j=1)))
            return wiener_norm(linear_part, 0)
        ratio = defect(1e-2) / defect(1e-3)
        assert ratio == pytest.approx(100.0, rel=0.05)

    def test_tail_domination_envelope(self, rng):
        # the series remainder beyond depth J obeys sum_{j>J} r^j / j!
        for depth_j in (2, 3, 5):
            h = random_field_with_norm(rng, 0.6)
            r = wiener_norm(h, 2)
            total_field = series_sum(h, TaylorDepth(max_j=40))
            part_field = series_sum(h, TaylorDepth(max_j=depth_j))
            # the sum's mean is not returned: the tail's is that of its terms
            tail_mean = sum(taylor_term(h, j)[1] for j in range(depth_j + 1, 41))
            measured = norm_with_mean(sub(total_field, part_field), tail_mean)
            envelope = sum(r**j / math.factorial(j) for j in range(depth_j + 1, 60))
            assert measured <= envelope * (1 + 1e-10) + 1e-14
