"""The batched trajectory core against per-node reference formulas.

Trajectories hold one coefficient array, and the series sum, the Duhamel
operator, the spacetime norm and the stepper act on it as a whole.  Each is
checked here against the node-by-node (or mode-by-mode) definition it
replaces, on uniform and thinned time grids in 1-D and 2-D.  The stepper,
which marches half boxes, is checked against full-box stages built through
a complex FFT pair written here.
"""

import math

import numpy as np
import pytest

from epitaxy import nonlinear
from epitaxy.exceptions import NumericalError
from epitaxy.nonlinear import TaylorDepth, rhs_exponential, taylor_sum, taylor_term_Fj
from epitaxy.norms import WeightParams, certify, spacetime_norm, wiener_norm
from epitaxy.picard import solve_picard
from epitaxy.presets import random_decay
from epitaxy.semigroup import Trajectory, duhamel_Iplus, stable_expm_moments
from epitaxy.spectral import FourierField, bilaplacian_neg, mode_grids
from epitaxy.stepper import SolverConfig, solve_timestep, step

from conftest import random_field_with_norm

RTOL = 1e-13
TRUNCATION = {1: 8, 2: 3}
GRIDS = [(dim, thinned) for dim in (1, 2) for thinned in (False, True)]


def time_grid(rng, thinned, t_final=0.2, n=41):
    """A linspace grid, or one with a random half of its interior nodes dropped."""
    times = np.linspace(0.0, t_final, n)
    if thinned:
        keep = np.sort(rng.choice(np.arange(1, n), size=n // 2, replace=False))
        times = np.concatenate([[0.0], times[keep]])
    return times


def random_trajectory(rng, dim, times):
    """Independent random nodes with j = 2 norms spread over [0.05, 0.6]."""
    norms = rng.uniform(0.05, 0.6, times.size)
    fields = [
        random_field_with_norm(rng, float(r), dim=dim, truncation=TRUNCATION[dim])
        for r in norms
    ]
    return Trajectory(times, fields)


def assert_close(got, ref):
    scale = max(float(np.max(np.abs(ref))), 1e-300)
    assert float(np.max(np.abs(got - ref))) <= RTOL * scale


@pytest.mark.parametrize("dim,thinned", GRIDS)
def test_series_sum_matches_per_node_terms(rng, dim, thinned):
    depth = TaylorDepth.adaptive(1e-12)
    traj = random_trajectory(rng, dim, time_grid(rng, thinned))
    depths = [depth.resolve(wiener_norm(f, 2)) for f in traj.fields]
    assert len(set(depths)) > 1  # the batch really mixes depths
    batched, means = taylor_sum(traj, depth)
    assert np.array_equal(batched.times, traj.times)
    for i, field in enumerate(traj.fields):
        terms = [taylor_term_Fj(field, j) for j in range(2, depths[i] + 1)]
        assert_close(batched.coeffs[i], sum(term.coeffs for term, _ in terms))
        assert means[i] == pytest.approx(sum(mean for _, mean in terms), rel=RTOL)
        single, single_mean = taylor_sum(field, depth)
        assert_close(batched.coeffs[i], single.coeffs)
        assert means[i] == pytest.approx(single_mean, rel=RTOL)


def test_series_sum_chunks_agree_with_one_batch(rng, monkeypatch):
    traj = random_trajectory(rng, 1, time_grid(rng, False))
    whole, whole_means = taylor_sum(traj, TaylorDepth.adaptive())
    m = nonlinear.padded_grid_size(TRUNCATION[1], 2.0)
    monkeypatch.setattr(nonlinear, "_BATCH_GRID_POINTS", 3 * m)  # chunks of 3 nodes
    chunked, chunked_means = taylor_sum(traj, TaylorDepth.adaptive())
    np.testing.assert_array_equal(chunked.coeffs, whole.coeffs)
    np.testing.assert_array_equal(chunked_means, whole_means)


def test_series_overflow_is_a_numerical_error():
    big = FourierField.from_modes(1, 8, {(1,): 1e10})  # y^40 / 40! overflows
    traj = Trajectory(np.array([0.0, 0.1]), (big, big))
    with pytest.raises(NumericalError, match="overflow"):
        taylor_sum(traj, TaylorDepth.fixed(40))
    with pytest.raises(NumericalError, match="overflow"):
        taylor_sum(big, TaylorDepth.fixed(40))


def reference_duhamel(traj):
    """The Duhamel recurrence mode by mode, one scalar interval integral at a time."""
    grids = mode_grids(traj.dim, traj.truncation)
    out = np.zeros_like(traj.coeffs)
    for mode in np.ndindex(grids.k4.shape):
        lam = float(grids.k4[mode])
        if lam == 0.0:
            continue
        acc = 0j
        for i in range(traj.times.size - 1):
            dt = float(traj.times[i + 1] - traj.times[i])
            f0, f1 = traj.coeffs[(i,) + mode], traj.coeffs[(i + 1,) + mode]
            acc = math.exp(-lam * dt) * acc + stable_expm_moments(lam, dt, f0, f1)
            out[(i + 1,) + mode] = -grids.ksq[mode] * acc
    return out


@pytest.mark.parametrize("dim,thinned", GRIDS)
def test_duhamel_matches_per_mode_recurrence(rng, dim, thinned):
    traj = random_trajectory(rng, dim, time_grid(rng, thinned))
    got = duhamel_Iplus(traj).coeffs
    ref = reference_duhamel(traj)
    assert np.all(got[0] == 0.0)
    for i in range(1, traj.times.size):
        assert_close(got[i], ref[i])


@pytest.mark.parametrize("dim,thinned", GRIDS)
def test_spacetime_norm_matches_direct_sum(rng, dim, thinned):
    traj = random_trajectory(rng, dim, time_grid(rng, thinned, t_final=2.0))
    kmag = mode_grids(dim, traj.truncation).kmag
    for alpha, j in ((0.0, 0), (0.3, 2), (0.9, 1)):
        ref = 0.0
        for mode in np.ndindex(kmag.shape):
            peak = max(
                math.exp(alpha * t * kmag[mode]) * abs(traj.coeffs[(i,) + mode])
                for i, t in enumerate(traj.times)
            )
            ref += kmag[mode] ** j * peak
        assert spacetime_norm(traj, WeightParams(alpha, j)) == pytest.approx(ref, rel=RTOL)


def reference_remainder(coeffs, padding=2.0):
    """rhs(h) + lap^2 h on a full box, through a full complex FFT pair on the padded grid."""
    dim, truncation = coeffs.ndim, (coeffs.shape[0] - 1) // 2
    grids = mode_grids(dim, truncation)
    m = math.ceil(padding * (2 * truncation + 1))
    box = np.ix_(*(np.arange(-truncation, truncation + 1) % m,) * dim)
    spectrum = np.zeros((m,) * dim, dtype=complex)
    spectrum[box] = -grids.ksq * coeffs
    lap = (np.fft.ifftn(spectrum) * m**dim).real
    exp_coeffs = np.fft.fftn(np.exp(-lap))[box] / m**dim
    return -grids.ksq * exp_coeffs + grids.k4 * coeffs


def reference_step(coeffs, dt):
    """One IF-RK4 step on the full box, every stage through ``reference_remainder``."""
    k4 = mode_grids(coeffs.ndim, (coeffs.shape[0] - 1) // 2).k4
    half = np.exp(-k4 * (dt / 2.0))
    full = half * half
    a = coeffs
    na = reference_remainder(a)
    nb = reference_remainder(half * (a + (dt / 2.0) * na))
    nc = reference_remainder(half * a + (dt / 2.0) * nb)
    nd = reference_remainder(full * a + dt * half * nc)
    return full * a + (dt / 6.0) * (full * na + 2.0 * half * (nb + nc) + nd)


def test_reference_remainder_is_the_exponential_route(rng):
    for dim in (1, 2):
        h = random_field_with_norm(rng, 0.3, dim=dim, truncation=TRUNCATION[dim])
        ref = reference_remainder(h.coeffs)
        assert_close((rhs_exponential(h) - bilaplacian_neg(h)).coeffs, ref)


@pytest.mark.parametrize("dim,thinned", GRIDS)
def test_step_matches_per_stage_reference(rng, dim, thinned):
    times = time_grid(rng, thinned, t_final=0.05)
    truncation = TRUNCATION[dim]
    config = SolverConfig(truncation=truncation, dt=0.05 / 40, t_final=0.05)
    state = random_field_with_norm(rng, 0.3, dim=dim, truncation=truncation)
    ref = state.coeffs
    for dt in np.diff(times):
        state = step(state, dt, config)
        ref = reference_step(ref, dt)
        assert_close(state.coeffs, ref)


# the ids keep the IF-RK4 names these tests had when a second scheme existed
STEPPER_DIMS = pytest.mark.parametrize("dim", [1, 2], ids=["1-if-rk4", "2-if-rk4"])


@STEPPER_DIMS
def test_march_matches_reference_chain(rng, dim):
    truncation = TRUNCATION[dim]
    h0 = random_field_with_norm(rng, rng.uniform(0.1, 0.24), dim=dim, truncation=truncation)
    assert certify(h0).passed
    config = SolverConfig(truncation=truncation, dt=0.004, t_final=0.1)
    traj = solve_timestep(h0, config)
    ref = h0.coeffs
    for i, dt in enumerate(np.diff(traj.times)):
        ref = reference_step(ref, dt)
        assert_close(traj.coeffs[i + 1], ref)
    # every node: zero mode exactly 0 and Hermitian bit for bit
    coeffs = traj.coeffs
    assert np.all(coeffs[(slice(None),) + (truncation,) * dim] == 0.0)
    flipped = np.conj(coeffs[(slice(None),) + (slice(None, None, -1),) * dim])
    assert np.array_equal(coeffs, flipped)


@STEPPER_DIMS
def test_march_is_a_chain_of_steps(rng, dim):
    # one kernel: a march and repeated single steps give the same bits
    truncation = TRUNCATION[dim]
    h0 = random_field_with_norm(rng, 0.2, dim=dim, truncation=truncation)
    config = SolverConfig(truncation=truncation, dt=0.004, t_final=0.04)
    traj = solve_timestep(h0, config)
    state = h0
    for i, dt in enumerate(np.diff(traj.times)):
        state = step(state, dt, config)
        assert np.array_equal(state.coeffs, traj.coeffs[i + 1])


@pytest.mark.parametrize("dim", [1, 2])
def test_picard_nodes_are_mean_zero_and_hermitian(rng, dim):
    truncation = TRUNCATION[dim]
    h0 = random_field_with_norm(rng, 0.2, dim=dim, truncation=truncation)
    config = SolverConfig(truncation=truncation, dt=0.01, t_final=0.3)
    solution, diag = solve_picard(h0, certify(h0), config)
    assert diag.converged
    coeffs = solution.coeffs
    assert np.all(coeffs[(slice(None),) + (truncation,) * dim] == 0.0)
    flipped = np.conj(coeffs[(slice(None),) + (slice(None, None, -1),) * dim])
    box = tuple(range(1, dim + 1))
    asym = np.max(np.abs(coeffs - flipped), axis=box)
    assert np.all(asym <= 1e-15 * np.max(np.abs(coeffs), axis=box))


def engine_gap(h0, dt):
    """Largest j = 2 Wiener gap between the Picard and stepper solutions over the nodes."""
    config = SolverConfig(truncation=h0.truncation, dt=dt, t_final=0.2)
    picard, _ = solve_picard(h0, certify(h0), config)
    marched = solve_timestep(h0, config)
    return np.max(wiener_norm(Trajectory(picard.times, picard.coeffs - marched.coeffs), 2))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("dim", [1, 2])
def test_engines_converge_together_on_random_data(dim, seed):
    # Picard's quadrature is second order and IF-RK4 fourth, so halving dt
    # cuts the gap about 4x (4.06-4.24 measured on seeds 0-4)
    h0 = random_decay(6, seed=seed, dim=dim)
    coarse, fine = engine_gap(h0, 2e-3), engine_gap(h0, 1e-3)
    assert fine > 0.0
    assert coarse / fine >= 3.0


def test_json_nodes_keep_the_field_format(rng):
    traj = random_trajectory(rng, 2, time_grid(rng, True))
    data = traj.to_json_dict()
    assert data["times"] == [float(t) for t in traj.times]
    for entry, field in zip(data["fields"], traj.fields):
        assert entry["dim"] == 2 and entry["truncation"] == TRUNCATION[2]
        expected = [list(k) + [a.real, a.imag] for k, a in field.nonzero_modes()]
        assert entry["coeffs"] == expected
    back = Trajectory.from_json_dict(data)
    np.testing.assert_array_equal(back.coeffs, traj.coeffs)


def test_json_reader_fills_partners_and_rejects_clashes():
    def data(*fields):
        return {"times": [0.1 * i for i in range(len(fields))], "fields": list(fields)}

    node = {"dim": 1, "truncation": 2, "coeffs": [[1, 0.25, -0.5]]}
    traj = Trajectory.from_json_dict(data(node, node))
    assert traj.fields[1].coeff(-1) == 0.25 + 0.5j
    clash = {"dim": 1, "truncation": 2, "coeffs": [[1, 0.25, 0.0], [-1, 0.5, 0.0]]}
    with pytest.raises(ValueError, match="conjugate"):
        Trajectory.from_json_dict(data(node, clash))
    wider = {"dim": 1, "truncation": 3, "coeffs": [[1, 0.25, 0.0]]}
    with pytest.raises(ValueError, match="share"):
        Trajectory.from_json_dict(data(node, wider))
    outside = {"dim": 1, "truncation": 2, "coeffs": [[3, 0.25, 0.0]]}
    with pytest.raises(ValueError, match="outside"):
        Trajectory.from_json_dict(data(node, outside))


def test_array_construction_validates_every_node():
    good = FourierField.from_modes(1, 2, {(1,): 0.5}).coeffs
    bad = good.copy()
    bad[3] = 0.7  # k = +1 without its partner
    with pytest.raises(ValueError, match="Hermitian"):
        Trajectory(np.array([0.0, 1.0]), np.stack([good, bad]))
    bad = good.copy()
    bad[2] = 1.0
    with pytest.raises(ValueError, match="zero mode"):
        Trajectory(np.array([0.0, 1.0]), np.stack([good, bad]))
    bad = good.copy()
    bad[1] = bad[3] = np.inf
    with pytest.raises(ValueError, match="finite"):
        Trajectory(np.array([0.0, 1.0]), np.stack([good, bad]))
    traj = Trajectory(np.array([0.0, 1.0]), np.stack([good, good]))
    with pytest.raises(ValueError):
        traj.coeffs[0, 3] = 1.0  # read-only, shared with the node views
    assert traj.fields[1].coeff(1) == 0.5
