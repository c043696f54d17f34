"""Transforms, multipliers and the coefficient convention."""

import json

import numpy as np
import pytest

from epitaxy.exceptions import NumericalError
from epitaxy.nonlinear import padded_grid_size
from epitaxy.spectral import (
    FourierField,
    GridField,
    analyze,
    analyze_batch,
    bilaplacian_neg,
    check_coefficients,
    default_grid_size,
    embed,
    laplacian,
    multiply,
    synthesize,
    synthesize_batch,
)

from conftest import random_field


class TestFourierFieldInvariants:
    def test_zero_mode_must_vanish(self):
        coeffs = np.zeros(5, dtype=complex)
        coeffs[2] = 1.0
        with pytest.raises(ValueError, match="zero mode"):
            FourierField(1, 2, coeffs)

    def test_hermitian_symmetry_enforced(self):
        coeffs = np.zeros(5, dtype=complex)
        coeffs[3] = 1.0  # k = +1 without its partner
        with pytest.raises(ValueError, match="Hermitian"):
            FourierField(1, 2, coeffs)

    def test_non_finite_rejected(self):
        coeffs = np.zeros(5, dtype=complex)
        coeffs[3] = np.inf
        coeffs[1] = np.inf
        with pytest.raises(ValueError, match="finite"):
            FourierField(1, 2, coeffs)

    def test_coeffs_are_immutable(self):
        f = FourierField.from_modes(1, 2, {(1,): 0.5})
        with pytest.raises(ValueError):
            f.coeffs[0] = 1.0

    def test_from_modes_fills_partner(self):
        f = FourierField.from_modes(1, 4, {(2,): 0.25 + 0.5j})
        assert f.coeff(2) == 0.25 + 0.5j
        assert f.coeff(-2) == 0.25 - 0.5j

    def test_from_modes_rejects_inconsistent_partner(self):
        with pytest.raises(ValueError, match="conjugate"):
            FourierField.from_modes(1, 4, {(2,): 1.0, (-2,): 1.0j})

    def test_from_modes_rejects_nonzero_mean(self):
        with pytest.raises(ValueError, match="zero mode"):
            FourierField.from_modes(1, 4, {(0,): 1.0})

    def test_coefficient_convention_cos_is_two_halves(self):
        # coeff(k) = (2 pi)^(-n) int h e^{-ikx}: cos(x) -> {1: 1/2, -1: 1/2}
        f = FourierField.from_modes(1, 4, {(1,): 0.5})
        grid = synthesize(f, 16)
        x = 2.0 * np.pi * np.arange(16) / 16
        np.testing.assert_allclose(grid.samples, np.cos(x), atol=1e-14)


class TestSynthesize:
    def test_zero_field_gives_zero_samples(self):
        f = FourierField.zero(1, 3)
        assert np.all(synthesize(f, 8).samples == 0.0)

    def test_cosine_two_mode_synthesis(self):
        f = FourierField.from_modes(1, 2, {(1,): 0.5})
        m = 9
        x = 2.0 * np.pi * np.arange(m) / m
        np.testing.assert_allclose(synthesize(f, m).samples, np.cos(x), atol=1e-14)

    def test_sine_from_antisymmetric_imaginary_pair(self):
        f = FourierField.from_modes(2, 2, {(1, 0): -0.5j})
        m = 8
        grid = synthesize(f, m)
        x = 2.0 * np.pi * np.arange(m) / m
        expected = np.sin(x)[:, None] * np.ones(m)[None, :]
        np.testing.assert_allclose(grid.samples, expected, atol=1e-14)

    def test_grid_too_small_refused_with_sizes(self):
        f = FourierField.from_modes(1, 4, {(1,): 0.5})
        with pytest.raises(ValueError, match=r"8.*truncation 4.*9"):
            synthesize(f, 8)

    def test_default_grid_size_is_power_of_two_above_floor(self):
        for n in (1, 2, 3, 7, 8, 16):
            m = default_grid_size(n)
            assert m >= 2 * n + 1
            assert m & (m - 1) == 0


class TestAnalyze:
    def test_cosine_samples_give_half_coefficients(self):
        x = 2.0 * np.pi * np.arange(16) / 16
        field, mean = analyze(GridField(1, np.cos(x)), 2)
        assert mean == pytest.approx(0.0, abs=1e-15)
        assert field.coeff(1) == pytest.approx(0.5, abs=1e-14)
        assert field.coeff(-1) == pytest.approx(0.5, abs=1e-14)

    def test_constant_samples_are_pure_mean(self):
        field, mean = analyze(GridField(1, np.full(8, 3.0)), 2)
        assert mean == pytest.approx(3.0, abs=1e-14)
        assert field.max_abs() == pytest.approx(0.0, abs=1e-15)

    def test_resolution_too_small_refused(self):
        with pytest.raises(ValueError, match="too small"):
            analyze(GridField(1, np.zeros(8)), 4)

    @pytest.mark.parametrize("dim,truncation", [(1, 5), (1, 8), (2, 4)])
    def test_round_trip_identity(self, rng, dim, truncation):
        f = random_field(rng, dim=dim, truncation=truncation)
        for m in (2 * truncation + 1, default_grid_size(truncation)):
            back, mean = analyze(synthesize(f, m), truncation)
            assert mean == pytest.approx(0.0, abs=1e-14)
            err = np.max(np.abs(back.coeffs - f.coeffs))
            assert err <= 1e-12 * max(1.0, f.max_abs())


class TestMultipliers:
    def test_laplacian_of_cosine_is_minus_cosine(self):
        f = FourierField.from_modes(1, 2, {(1,): 0.5})
        assert laplacian(f).coeff(1) == pytest.approx(-0.5)

    def test_laplacian_of_zero(self):
        f = FourierField.zero(2, 3)
        assert laplacian(f).max_abs() == 0.0

    def test_laplacian_diagonal_mode(self):
        f = FourierField.from_modes(2, 2, {(1, 1): 0.25})
        assert laplacian(f).coeff((1, 1)) == pytest.approx(-0.5)  # |k|^2 = 2

    def test_bilaplacian_on_cosine(self):
        f = FourierField.from_modes(1, 2, {(1,): 0.5})
        assert bilaplacian_neg(f).coeff(1) == pytest.approx(-0.5)

    def test_bilaplacian_mode_two(self):
        f = FourierField.from_modes(1, 4, {(2,): 0.5})
        assert bilaplacian_neg(f).coeff(2) == pytest.approx(-8.0)  # -16 * 0.5

    def test_laplacian_squared_equals_minus_bilaplacian(self, rng):
        f = random_field(rng, dim=2, truncation=4)
        lhs = laplacian(laplacian(f)).coeffs
        rhs = -bilaplacian_neg(f).coeffs
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-15)

    def test_linearity(self, rng):
        f = random_field(rng, truncation=6)
        g = random_field(rng, truncation=6)
        lhs = laplacian(2.5 * f + (-1.25) * g).coeffs
        rhs = (2.5 * laplacian(f) + (-1.25) * laplacian(g)).coeffs
        scale = max(np.max(np.abs(lhs)), 1e-30)
        assert np.max(np.abs(lhs - rhs)) <= 1e-13 * scale

    def test_mean_zero_and_hermitian_preserved(self, rng):
        f = random_field(rng, dim=2, truncation=3)
        for g in (laplacian(f), bilaplacian_neg(f)):
            assert g.coeff((0, 0)) == 0.0  # constructor re-validates symmetry


class TestEmbedAndMultiply:
    def test_embed_preserves_coefficients(self, rng):
        f = random_field(rng, truncation=3)
        g = embed(f, 6)
        assert g.truncation == 6
        for k in range(-3, 4):
            assert g.coeff(k) == f.coeff(k)

    def test_embed_rejects_shrinking(self, rng):
        f = random_field(rng, truncation=4)
        with pytest.raises(ValueError, match="smaller"):
            embed(f, 3)

    def test_product_of_cosines_is_exact(self):
        f = FourierField.from_modes(1, 2, {(1,): 0.5})
        prod, mean = multiply(f, f)
        # cos^2 = 1/2 + cos(2x)/2
        assert mean == pytest.approx(0.5, abs=1e-14)
        assert prod.coeff(2) == pytest.approx(0.25, abs=1e-14)
        assert prod.truncation == 4

    def test_dimension_mismatch_rejected(self):
        f = FourierField.from_modes(1, 2, {(1,): 0.5})
        g = FourierField.from_modes(2, 2, {(1, 0): 0.5})
        with pytest.raises(ValueError, match="dimension"):
            multiply(f, g)


class TestSerialization:
    def test_round_trip(self, rng):
        f = random_field(rng, dim=2, truncation=3)
        data = json.loads(json.dumps(f.to_json_dict()))
        g = FourierField.from_json_dict(data)
        np.testing.assert_allclose(g.coeffs, f.coeffs, rtol=0, atol=1e-15)

    def test_omitted_hermitian_partner_reconstructed(self):
        data = {"dim": 1, "truncation": 3, "coeffs": [[2, 0.25, -0.5]]}
        f = FourierField.from_json_dict(data)
        assert f.coeff(2) == 0.25 - 0.5j
        assert f.coeff(-2) == 0.25 + 0.5j

    def test_only_nonzero_modes_emitted(self):
        f = FourierField.from_modes(1, 5, {(1,): 0.5})
        entries = f.to_json_dict()["coeffs"]
        assert len(entries) == 2


class TestGridField:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            GridField(2, np.zeros((4, 5)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            GridField(1, np.array([1.0, np.nan]))


def test_synthesis_imag_residue_guard():
    # A box that is not Hermitian never reaches the (real) inverse transform:
    # the field constructor refuses it.
    f = FourierField.from_modes(1, 2, {(1,): 0.5})
    broken = f.coeffs.copy()
    broken[3] = 0.5 + 1e-3j
    broken[1] = 0.5 + 1e-3j  # symmetric violation: conj partner should flip sign
    with pytest.raises((ValueError, NumericalError)):
        synthesize(FourierField(1, 2, broken), 8)


# -- the real-FFT pair against a full complex FFT written here -----------------

# (dim, N, M): odd M = 2N + 1 (padding 1), even M, and odd M above the floor
TRANSFORM_CASES = [
    (1, 5, 11),
    (1, 5, 16),
    (1, 5, 23),
    (2, 3, 7),
    (2, 3, 14),
    (2, 3, 15),
]
TRANSFORM_TOL = 1e-13


def box_index(dim, truncation, m):
    """Positions of k = -N..N (per axis) inside a batch of full M^dim spectra."""
    return (slice(None),) + np.ix_(*(np.arange(-truncation, truncation + 1) % m,) * dim)


def complex_synthesis(coeffs, m):
    dim = coeffs.ndim - 1
    spectrum = np.zeros((coeffs.shape[0],) + (m,) * dim, dtype=complex)
    spectrum[box_index(dim, (coeffs.shape[1] - 1) // 2, m)] = coeffs
    return np.fft.ifftn(spectrum, axes=tuple(range(1, dim + 1))) * m**dim


def complex_analysis(samples, truncation):
    dim, m = samples.ndim - 1, samples.shape[1]
    spectrum = np.fft.fftn(samples, axes=tuple(range(1, dim + 1))) / m**dim
    return spectrum[box_index(dim, truncation, m)], spectrum[(slice(None),) + (0,) * dim]


def test_padding_one_gives_the_floor_grid():
    assert padded_grid_size(5, 1.0) == 11 and padded_grid_size(3, 1.0) == 7


@pytest.mark.parametrize("dim,truncation,m", TRANSFORM_CASES)
def test_synthesize_batch_matches_complex_ifft(rng, dim, truncation, m):
    coeffs = np.stack([random_field(rng, dim, truncation, decay=0.3).coeffs for _ in range(4)])
    got = synthesize_batch(coeffs, m)
    ref = complex_synthesis(coeffs, m)
    assert got.dtype == float and got.shape == ref.shape
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(ref.imag)) <= TRANSFORM_TOL * scale
    assert np.max(np.abs(got - ref.real)) <= TRANSFORM_TOL * scale


@pytest.mark.parametrize("dim,truncation,m", TRANSFORM_CASES)
def test_analyze_batch_matches_complex_fft(rng, dim, truncation, m):
    samples = rng.standard_normal((4,) + (m,) * dim) + rng.uniform(-2.0, 2.0, (4,) + (1,) * dim)
    got, means = analyze_batch(samples, truncation)
    ref, ref_means = complex_analysis(samples, truncation)
    ref[(slice(None),) + (truncation,) * dim] = 0.0
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(got - ref)) <= TRANSFORM_TOL * scale
    np.testing.assert_allclose(means, ref_means.real, rtol=0, atol=TRANSFORM_TOL * scale)
    assert np.max(np.abs(ref_means.imag)) <= TRANSFORM_TOL * scale
    # the rebuilt boxes are exactly Hermitian with a zero mode of exactly 0
    check_coefficients(got, dim, truncation)
    assert np.all(got[(slice(None),) + (truncation,) * dim] == 0.0)
    flipped = np.conj(got[(slice(None),) + (slice(None, None, -1),) * dim])
    assert np.array_equal(got, flipped)


@pytest.mark.parametrize("dim,truncation,m", TRANSFORM_CASES)
def test_batch_round_trip_on_the_floor_and_above(rng, dim, truncation, m):
    coeffs = np.stack([random_field(rng, dim, truncation).coeffs for _ in range(3)])
    back, means = analyze_batch(synthesize_batch(coeffs, m), truncation)
    assert np.max(np.abs(back - coeffs)) <= TRANSFORM_TOL * np.max(np.abs(coeffs))
    assert np.max(np.abs(means)) <= TRANSFORM_TOL * np.max(np.abs(coeffs))
