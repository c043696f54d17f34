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
"""

import numpy as np
import pytest

from epitaxy.norms import certify
from epitaxy.picard import solve_picard
from epitaxy.presets import random_decay
from epitaxy.spectral import FourierField
from epitaxy.stepper import SolverConfig, solve_timestep

from reference import full_box

TRUNCATION = 8
TOL = 1e-15


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


def assert_equal_to_roundoff(got, expected):
    gap = float(np.max(np.abs(got - expected)))
    assert gap <= TOL * float(np.max(np.abs(expected))), gap


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
