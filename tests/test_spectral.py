"""Transforms, the |k|-power multipliers and the coefficient convention."""

import json

import numpy as np
import pytest

from epitaxy import spectral
from epitaxy.exceptions import NumericalError
from epitaxy.nonlinear import padded_grid_size
from epitaxy.spectral import (
    FourierField,
    as_parts,
    check_half,
    embed,
    hermitian_k0_line,
    mode_grids,
    place_modes,
)
from epitaxy.semigroup import Trajectory

from conftest import random_field
from reference import (
    add,
    analyze,
    as_half,
    coeff,
    full_box,
    max_abs,
    multiply,
    synthesize,
    zero,
)


def laplacian(field):
    """The field times the multiplier -|k|^2 of ``mode_grids``, validated as a field."""
    grids = mode_grids(field.dim, field.truncation)
    return FourierField(field.dim, field.truncation, -grids.ksq * field.coeffs)


def bilaplacian_neg(field):
    """The field times the multiplier -|k|^4 of ``mode_grids``, validated as a field."""
    grids = mode_grids(field.dim, field.truncation)
    return FourierField(field.dim, field.truncation, -grids.k4 * field.coeffs)


class TestFourierFieldInvariants:
    def test_zero_mode_must_vanish(self):
        coeffs = np.zeros(3, dtype=complex)
        coeffs[0] = 1.0
        with pytest.raises(ValueError, match="zero mode"):
            FourierField(1, 2, coeffs)

    def test_hermitian_symmetry_enforced(self):
        # only the k_last = 0 line holds both k and -k of a half box
        coeffs = np.zeros((5, 3), dtype=complex)
        coeffs[3, 0] = 1.0  # k = (1, 0) without its partner (-1, 0)
        with pytest.raises(ValueError, match="Hermitian"):
            FourierField(2, 2, coeffs)

    def test_non_finite_rejected(self):
        coeffs = np.zeros(3, dtype=complex)
        coeffs[1] = np.inf
        with pytest.raises(ValueError, match="finite"):
            FourierField(1, 2, coeffs)

    def test_whole_box_refused(self):
        with pytest.raises(ValueError, match=r"shape \(5,\), expected \(3,\)"):
            FourierField(1, 2, np.zeros(5, dtype=complex))

    def test_coeffs_are_immutable(self):
        f = FourierField.from_modes(1, 2, {(1,): 0.5})
        with pytest.raises(ValueError):
            f.coeffs[0] = 1.0

    def test_from_modes_fills_partner(self):
        f = FourierField.from_modes(1, 4, {(2,): 0.25 + 0.5j})
        assert coeff(f, 2) == 0.25 + 0.5j
        assert coeff(f, -2) == 0.25 - 0.5j

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
        np.testing.assert_allclose(grid, np.cos(x), atol=1e-14)


# a validated object built from a caller's array of the given shape: one
# field at N = 2, or a one-node trajectory
BUILT_FROM = pytest.mark.parametrize(
    "build,shape",
    [(lambda a: FourierField(1, 2, a), (3,)), (lambda a: Trajectory([0.0], a), (1, 3))],
    ids=["field", "trajectory"],
)


class TestValidatedArrays:
    @BUILT_FROM
    def test_later_writes_to_the_callers_array_do_not_reach_it(self, build, shape):
        # the object kept a view of the caller's array, so it changed past its check
        base = np.zeros(shape, dtype=complex)
        built = build(base[:])
        base[..., 0] = 7.0  # a nonzero zero mode, which the check refuses
        assert not np.any(built.coeffs)

    @BUILT_FROM
    def test_the_callers_array_stays_writeable(self, build, shape):
        # building one cleared the writeable flag of the caller's own array
        array = np.zeros(shape, dtype=complex)
        build(array)
        assert array.flags.writeable

    def test_an_array_handed_over_is_taken_without_a_copy(self):
        # the package's producers hand over arrays that own their data, read-only
        half = place_modes(1, 2, [[1]], [[0.5], [0.25]])
        assert Trajectory([0.0, 1.0], half).coeffs is half


class TestSynthesize:
    def test_zero_field_gives_zero_samples(self):
        f = zero(1, 3)
        assert np.all(synthesize(f, 8) == 0.0)

    def test_cosine_two_mode_synthesis(self):
        f = FourierField.from_modes(1, 2, {(1,): 0.5})
        m = 9
        x = 2.0 * np.pi * np.arange(m) / m
        np.testing.assert_allclose(synthesize(f, m), np.cos(x), atol=1e-14)

    def test_sine_from_antisymmetric_imaginary_pair(self):
        f = FourierField.from_modes(2, 2, {(1, 0): -0.5j})
        m = 8
        grid = synthesize(f, m)
        x = 2.0 * np.pi * np.arange(m) / m
        expected = np.sin(x)[:, None] * np.ones(m)[None, :]
        np.testing.assert_allclose(grid, expected, atol=1e-14)

    def test_grid_too_small_refused_with_sizes(self):
        f = FourierField.from_modes(1, 4, {(1,): 0.5})
        with pytest.raises(ValueError, match=r"8.*truncation 4.*9"):
            synthesize(f, 8)


class TestAnalyze:
    def test_cosine_samples_give_half_coefficients(self):
        x = 2.0 * np.pi * np.arange(16) / 16
        field, mean = analyze(np.cos(x), 2)
        assert mean == pytest.approx(0.0, abs=1e-15)
        assert coeff(field, 1) == pytest.approx(0.5, abs=1e-14)
        assert coeff(field, -1) == pytest.approx(0.5, abs=1e-14)

    def test_constant_samples_are_pure_mean(self):
        field, mean = analyze(np.full(8, 3.0), 2)
        assert mean == pytest.approx(3.0, abs=1e-14)
        assert max_abs(field) == pytest.approx(0.0, abs=1e-15)

    def test_resolution_too_small_refused(self):
        with pytest.raises(ValueError, match="too small"):
            analyze(np.zeros(8), 4)

    @pytest.mark.parametrize("dim,truncation", [(1, 5), (1, 8), (2, 4)])
    def test_round_trip_identity(self, rng, dim, truncation):
        f = random_field(rng, dim=dim, truncation=truncation)
        for m in (2 * truncation + 1, 32):  # the floor and a power of two above it
            back, mean = analyze(synthesize(f, m), truncation)
            assert mean == pytest.approx(0.0, abs=1e-14)
            err = np.max(np.abs(back.coeffs - f.coeffs))
            assert err <= 1e-12 * max(1.0, max_abs(f))


class TestMultipliers:
    def test_laplacian_of_cosine_is_minus_cosine(self):
        f = FourierField.from_modes(1, 2, {(1,): 0.5})
        assert coeff(laplacian(f), 1) == pytest.approx(-0.5)

    def test_laplacian_of_zero(self):
        f = zero(2, 3)
        assert max_abs(laplacian(f)) == 0.0

    def test_laplacian_diagonal_mode(self):
        f = FourierField.from_modes(2, 2, {(1, 1): 0.25})
        assert coeff(laplacian(f), (1, 1)) == pytest.approx(-0.5)  # |k|^2 = 2

    def test_bilaplacian_on_cosine(self):
        f = FourierField.from_modes(1, 2, {(1,): 0.5})
        assert coeff(bilaplacian_neg(f), 1) == pytest.approx(-0.5)

    def test_bilaplacian_mode_two(self):
        f = FourierField.from_modes(1, 4, {(2,): 0.5})
        assert coeff(bilaplacian_neg(f), 2) == pytest.approx(-8.0)  # -16 * 0.5

    def test_laplacian_squared_equals_minus_bilaplacian(self, rng):
        f = random_field(rng, dim=2, truncation=4)
        lhs = laplacian(laplacian(f)).coeffs
        rhs = -bilaplacian_neg(f).coeffs
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-15)

    def test_linearity(self, rng):
        f = random_field(rng, truncation=6)
        g = random_field(rng, truncation=6)
        lhs = laplacian(add(2.5 * f, (-1.25) * g)).coeffs
        rhs = add(2.5 * laplacian(f), (-1.25) * laplacian(g)).coeffs
        scale = max(np.max(np.abs(lhs)), 1e-30)
        assert np.max(np.abs(lhs - rhs)) <= 1e-13 * scale

    def test_mean_zero_and_hermitian_preserved(self, rng):
        f = random_field(rng, dim=2, truncation=3)
        for g in (laplacian(f), bilaplacian_neg(f)):
            assert coeff(g, (0, 0)) == 0.0  # constructor re-validates symmetry


class TestEmbedAndMultiply:
    def test_embed_preserves_coefficients(self, rng):
        f = random_field(rng, truncation=3)
        g = embed(f, 6)
        assert g.truncation == 6
        for k in range(-3, 4):
            assert coeff(g, k) == coeff(f, k)
        assert all(coeff(g, k) == 0.0 for k in (-6, -4, 4, 6))

    def test_embed_2d_places_the_half_box(self, rng):
        f = random_field(rng, dim=2, truncation=2)
        g = embed(f, 4)
        assert g.coeffs.shape == (9, 5)
        expected = np.zeros((9, 9), dtype=complex)
        expected[2:7, 2:7] = full_box(f.coeffs[None])[0]
        assert np.array_equal(full_box(g.coeffs[None])[0], expected)

    def test_embed_rejects_shrinking(self, rng):
        f = random_field(rng, truncation=4)
        with pytest.raises(ValueError, match="smaller"):
            embed(f, 3)

    def test_product_of_cosines_is_exact(self):
        f = FourierField.from_modes(1, 2, {(1,): 0.5})
        prod, mean = multiply(f, f)
        # cos^2 = 1/2 + cos(2x)/2
        assert mean == pytest.approx(0.5, abs=1e-14)
        assert coeff(prod, 2) == pytest.approx(0.25, abs=1e-14)
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
        assert coeff(f, 2) == 0.25 - 0.5j
        assert coeff(f, -2) == 0.25 + 0.5j

    @pytest.mark.parametrize(
        "key,value", [("dim", 1.9), ("dim", True), ("truncation", 3.5), ("truncation", "3")]
    )
    def test_header_must_be_integers(self, key, value):
        data = {"dim": 1, "truncation": 3, "coeffs": [[2, 0.25, -0.5]], key: value}
        with pytest.raises(ValueError, match="dim and truncation must be integers"):
            FourierField.from_json_dict(data)

    def test_only_nonzero_modes_emitted(self):
        f = FourierField.from_modes(1, 5, {(1,): 0.5})
        entries = f.to_json_dict()["coeffs"]
        assert entries == [[1, 0.5, 0.0]]  # the partner -1 is restored on reading


def test_synthesis_imag_residue_guard():
    # A box that is not Hermitian never reaches the (real) inverse transform:
    # the field constructor refuses it.
    # A half box is non-Hermitian only on its k_last = 0 line.
    f = FourierField.from_modes(2, 2, {(1, 0): 0.5})
    broken = f.coeffs.copy()
    broken[3, 0] = 0.5 + 1e-3j
    broken[1, 0] = 0.5 + 1e-3j  # symmetric violation: conj partner should flip sign
    with pytest.raises((ValueError, NumericalError)):
        synthesize(FourierField(2, 2, broken), 8)


# -- the transform pair against a full complex FFT written here ---------------

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
    return spectrum[box_index(dim, truncation, m)]


def test_padding_one_gives_the_floor_grid():
    assert padded_grid_size(5, 1.0) == 11 and padded_grid_size(3, 1.0) == 7


def half_boxes(rng, dim, truncation, nodes, **kw):
    """The half boxes of ``nodes`` random fields, and their whole boxes."""
    half = np.stack([random_field(rng, dim, truncation, **kw).coeffs for _ in range(nodes)])
    return half, full_box(half)


@pytest.mark.parametrize("dim,truncation,m", TRANSFORM_CASES)
def test_synthesize_batch_matches_complex_ifft(rng, dim, truncation, m):
    half, coeffs = half_boxes(rng, dim, truncation, 4, decay=0.3)
    got = spectral.synthesize(as_parts(half), m)
    ref = complex_synthesis(coeffs, m)
    assert got.dtype == float and got.shape == ref.shape
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(ref.imag)) <= TRANSFORM_TOL * scale
    assert np.max(np.abs(got - ref.real)) <= TRANSFORM_TOL * scale


@pytest.mark.parametrize("dim,truncation,m", TRANSFORM_CASES)
def test_analyze_batch_matches_complex_fft(rng, dim, truncation, m):
    samples = rng.standard_normal((4,) + (m,) * dim) + rng.uniform(-2.0, 2.0, (4,) + (1,) * dim)
    got = as_half(spectral.analyze(samples, truncation)) / m**dim
    hermitian_k0_line(got)
    ref = complex_analysis(samples, truncation)
    ref[(slice(None),) + (truncation,) * dim] = 0.0
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(got - ref[..., truncation:])) <= TRANSFORM_TOL * scale
    # the half boxes pass the check, and rebuild exactly Hermitian whole boxes
    # with a zero mode of exactly 0 that match the complex transform's
    check_half(got)
    boxes = full_box(got)
    assert np.max(np.abs(boxes - ref)) <= TRANSFORM_TOL * scale
    assert np.all(boxes[(slice(None),) + (truncation,) * dim] == 0.0)
    flipped = np.conj(boxes[(slice(None),) + (slice(None, None, -1),) * dim])
    assert np.array_equal(boxes, flipped)


@pytest.mark.parametrize("dim,truncation,m", TRANSFORM_CASES)
def test_batch_round_trip_on_the_floor_and_above(rng, dim, truncation, m):
    half, _ = half_boxes(rng, dim, truncation, 3)
    back = as_half(spectral.analyze(spectral.synthesize(as_parts(half), m), truncation))
    back /= m**dim
    hermitian_k0_line(back)
    assert np.max(np.abs(back - half)) <= TRANSFORM_TOL * np.max(np.abs(half))


@pytest.mark.parametrize("nodes", [1, 5])
@pytest.mark.parametrize("dim,truncation,m", [case for case in TRANSFORM_CASES if case[0] == 1])
def test_half_transforms_give_the_bytes_of_the_full_real_fft(rng, dim, truncation, m, nodes):
    # in 1-D the pair is the real FFT itself: not a bit may differ from
    # irfft/rfft on the whole spectrum (2-D runs on DFT products instead)
    index = (slice(None), slice(0, truncation + 1))
    shape = (nodes, truncation + 1)
    half = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    spectrum = np.zeros((nodes, m // 2 + 1), dtype=complex)
    spectrum[index] = half
    full = np.fft.irfftn(spectrum, s=(m,), axes=(1,), norm="forward")
    assert np.array_equal(spectral.synthesize(half.view(float), m), full)

    samples = rng.standard_normal((nodes, m))
    spectrum = np.fft.rfftn(samples, axes=(1,))
    assert np.array_equal(spectral.analyze(samples, truncation), spectrum[index].view(float))


@pytest.mark.parametrize("padding", [1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("truncation", [1, 2, 7, 16])
def test_2d_transforms_give_a_node_the_same_bits_in_any_batch(rng, truncation, padding):
    # each node gets its own DFT products, so a node's synthesis and analysis
    # are bit for bit the same alone and at any place in a batch of 2-16:
    # the series sum's chunking cannot move a trajectory's bytes
    m = padded_grid_size(truncation, padding)
    nodes = 16
    parts = as_parts(half_boxes(rng, 2, truncation, nodes)[0])
    samples = rng.standard_normal((nodes, m, m))
    alone = [spectral.synthesize(parts[i : i + 1], m)[0] for i in range(nodes)]
    alone_parts = [spectral.analyze(samples[i : i + 1], truncation)[0] for i in range(nodes)]
    for size in range(2, nodes + 1):
        for lo in range(0, nodes, size):
            grids = spectral.synthesize(parts[lo : lo + size], m)
            coeffs = spectral.analyze(samples[lo : lo + size], truncation)
            for i in range(len(grids)):
                assert np.array_equal(grids[i], alone[lo + i]), (size, lo + i)
                assert np.array_equal(coeffs[i], alone_parts[lo + i]), (size, lo + i)
