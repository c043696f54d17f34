"""Symmetries of the equation as oracles for both 2-D engines.

h_t = lap exp(-lap h) commutes with every isometry of the torus, so the
solution of a swapped or a lower-dimensional initial field is known from
another solution.  The half box treats the two axes differently (k_last >= 0
along the second, the real layout stacks the first), so these relations
check the 2-D layout without reference to any earlier version of the code:

* swapping x1 and x2 commutes with each engine;
* a 1-D field placed along either axis of a 2-D box is solved by each
  2-D engine to the 1-D solution, with every other mode left at 0.

Both hold to 1e-15 of the largest coefficient; the gaps are roundoff of the
differently ordered sums, about 1e-19 on coefficients of about 1e-2.

Reflection and translation are isometries too, in 1-D and in 2-D:

* reflection x -> -x takes each coefficient to its conjugate, and commutes
  with each engine to 1e-15 of the largest coefficient (measured: at most
  3.9e-17 relative, over random-decay seeds 0, 3 and 5);
* translation by one step 2 pi / M of the padded grid along every axis
  multiplies coeff(k) by exp(-i k.(1, ..., 1) 2 pi / M), and commutes with
  each engine to 1e-14 (measured: at most 1.6e-15).  Only a step of the
  padded grid commutes with its aliasing.  The gap is the roundoff of the
  phases, which the initial data carries through the solve.

The two catch different faults: a grid offset between the transforms to
the grid and back multiplies the nonlinear term by a phase, which breaks
reflection alone; a transform back with exp(+i k x) conjugates the
nonlinear term, which breaks translation alone.

The equation is also the L^2 gradient flow of E(h) = mean of exp(-lap h),
with dE/dt = -||lap exp(-lap h)||^2 <= 0, and the semi-discrete scheme on
the padded grid keeps that exactly.  So E, the grid mean of exp(-lap h)
taken here through numpy's complex FFT, falls strictly from node to node in
both engines and both dimensions, and by the integral of that dissipation
over each step.
"""

import numpy as np
import pytest

from epitaxy.nonlinear import padded_grid_size
from epitaxy.norms import certify
from epitaxy.picard import solve_picard
from epitaxy.presets import random_decay
from epitaxy.spectral import FourierField
from epitaxy.stepper import SolverConfig, solve_timestep

from reference import full_box, whole_ksq

TRUNCATION = 8
TOL = 1e-15
TRANSLATION_TOL = 1e-14


def solve(engine, h0, config):
    """The trajectory's half boxes from ``engine``, "picard" or "stepper"."""
    if engine == "picard":
        return solve_picard(h0, certify(h0), config)[0].coeffs
    return solve_timestep(h0, config).coeffs


def swapped(half):
    """The 2-D half boxes of h(x2, x1) for a batch of half boxes of h(x1, x2)."""
    return full_box(half).transpose(0, 2, 1)[..., TRUNCATION:]


def along(axis, half):
    """The 2-D half boxes of h(x_axis) for a batch of 1-D half boxes of h."""
    line = full_box(half)
    whole = np.zeros(line.shape + line.shape[-1:], dtype=complex)
    if axis == 0:
        whole[..., TRUNCATION] = line
    else:
        whole[:, TRUNCATION] = line
    return whole[..., TRUNCATION:]


def reflected(half):
    """The half boxes of h(-x) for a batch of half boxes of h: their conjugates."""
    return np.conj(half)


def translated(half, padding):
    """The half boxes of h(x - s) for a batch of half boxes of h, with s one
    step 2 pi / M of the padded grid along every axis: coeff(k) exp(-i k.s)."""
    dim, truncation = half.ndim - 1, half.shape[-1] - 1
    m = padded_grid_size(truncation, padding)
    axis = np.arange(-truncation, truncation + 1)
    k = np.meshgrid(*[axis] * (dim - 1), axis[truncation:], indexing="ij")
    # k.s in steps, reduced modulo M first, as ``spectral._waves`` reduces it
    return half * np.exp(-2j * np.pi * (sum(k) % m) / m)


def assert_equal_to_roundoff(got, expected, tol=TOL):
    gap = float(np.max(np.abs(got - expected)))
    assert gap <= tol * float(np.max(np.abs(expected))), gap


@pytest.mark.parametrize("engine", ["picard", "stepper"])
def test_axis_swap_commutes_with_the_2d_engines(engine):
    h0 = random_decay(TRUNCATION, 5, 0.2, dim=2)
    config = SolverConfig(truncation=TRUNCATION, dt=1e-3, t_final=0.05)
    swapped_h0 = FourierField(2, TRUNCATION, swapped(h0.coeffs[None])[0])
    assert_equal_to_roundoff(solve(engine, swapped_h0, config), swapped(solve(engine, h0, config)))


@pytest.mark.parametrize("padding", [2.0, 1.5])
@pytest.mark.parametrize("engine", ["picard", "stepper"])
def test_1d_data_in_2d_solves_to_the_1d_solution(engine, padding):
    h1 = random_decay(TRUNCATION, 3, 0.2, dim=1)
    config = SolverConfig(truncation=TRUNCATION, dt=1e-3, t_final=0.05, padding=padding)
    expected = solve(engine, h1, config)
    for axis in (0, 1):
        h2 = FourierField(2, TRUNCATION, along(axis, h1.coeffs[None])[0])
        assert_equal_to_roundoff(solve(engine, h2, config), along(axis, expected))


ISOMETRY_BOXES = [(1, 8), (2, 6)]


@pytest.mark.parametrize("engine", ["picard", "stepper"])
@pytest.mark.parametrize("dim,truncation", ISOMETRY_BOXES)
def test_reflection_commutes_with_the_engines(engine, dim, truncation):
    h0 = random_decay(truncation, 3, 0.2, dim=dim)
    config = SolverConfig(truncation=truncation, dt=1e-3, t_final=0.05)
    reflected_h0 = FourierField(dim, truncation, reflected(h0.coeffs))
    assert_equal_to_roundoff(
        solve(engine, reflected_h0, config), reflected(solve(engine, h0, config))
    )


@pytest.mark.parametrize("engine", ["picard", "stepper"])
@pytest.mark.parametrize("dim,truncation", ISOMETRY_BOXES)
def test_translation_by_a_grid_step_commutes_with_the_engines(engine, dim, truncation):
    h0 = random_decay(truncation, 3, 0.2, dim=dim)
    config = SolverConfig(truncation=truncation, dt=1e-3, t_final=0.05)
    translated_h0 = FourierField(dim, truncation, translated(h0.coeffs[None], config.padding)[0])
    assert_equal_to_roundoff(
        solve(engine, translated_h0, config),
        translated(solve(engine, h0, config), config.padding),
        TRANSLATION_TOL,
    )


def energy_and_dissipation(half, padding):
    """E - 1 and the dissipation rate D per node, from a batch of half boxes h.

    u = exp(-lap h) - 1 is sampled on the padded M^dim grid through numpy's
    complex inverse FFT, and E - 1 is its grid mean.  With u_k the grid's
    discrete coefficients, D = sum over the box of |k|^4 |u_k|^2, and the
    semi-discrete flow has dE/dt = -D exactly (the constant 1 of the
    exponential has no k != 0 coefficient).
    """
    dim, truncation = half.ndim - 1, half.shape[-1] - 1
    m = padded_grid_size(truncation, padding)
    axes = tuple(range(1, dim + 1))
    # mode k sits at index k mod M; -lap h has the coefficients |k|^2 coeff(k)
    box = (slice(None),) + np.ix_(*(np.arange(-truncation, truncation + 1) % m,) * dim)
    ksq = whole_ksq(dim, truncation)
    spectrum = np.zeros((len(half),) + (m,) * dim, dtype=complex)
    spectrum[box] = ksq * full_box(half)
    u = np.expm1(np.fft.ifftn(spectrum, axes=axes, norm="forward").real)
    coeffs = np.fft.fftn(u, axes=axes, norm="forward")[box]
    return u.mean(axis=axes), (ksq**2 * np.abs(coeffs) ** 2).sum(axis=axes)


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("engine", ["picard", "stepper"])
@pytest.mark.parametrize("dim,truncation,t_final", [(1, 16, 0.5), (2, 16, 0.1)])
def test_energy_falls_by_its_dissipation_at_every_node(engine, dim, truncation, t_final, seed):
    # E falls strictly, and each step's fall is the trapezoid rule's integral
    # of D to 1e-3 of the fall.  The rule's error is largest over the first
    # step, where the top modes decay within it: at most 3.1e-4 in both
    # engines.  The nonlinear term with the wrong sign keeps E falling, by
    # about 1% to 10% more or less than D says
    h0 = random_decay(truncation, seed, 0.2, dim=dim)
    config = SolverConfig(truncation=truncation, dt=1e-3, t_final=t_final)
    excess, dissipation = energy_and_dissipation(solve(engine, h0, config), config.padding)
    fall = np.diff(excess)
    assert np.all(fall < 0.0), fall.max()
    trapezoid = -np.diff(config.times) * (dissipation[1:] + dissipation[:-1]) / 2.0
    assert np.all(np.abs(fall - trapezoid) <= 1e-3 * np.abs(fall))
