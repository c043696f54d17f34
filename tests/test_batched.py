"""The batched trajectory core against per-node reference formulas.

Trajectories hold one coefficient array, and the series sum, the Duhamel
operator, the spacetime norm and the stepper act on it as a whole.  Each is
checked here against the node-by-node (or mode-by-mode) definition it
replaces, on uniform and thinned time grids in 1-D and 2-D.  Trajectories
hold k_last >= 0 half boxes; the references work on whole boxes, rebuilt by
``reference.full_box``.  The stepper and its exponential route are checked
against full-box stages built through a complex FFT pair,
``reference.fft_remainder``.
"""

import math
import tracemalloc

import numpy as np
import pytest

from epitaxy import nonlinear, spectral
from epitaxy.exceptions import NumericalError
from epitaxy.nonlinear import TaylorDepth, taylor_sum
from epitaxy.norms import (
    WeightParams,
    analyticity_radius,
    certify,
    spacetime_norm,
    wiener_norm,
)
from epitaxy.picard import solve_picard
from epitaxy.presets import random_decay, single_mode
from epitaxy.semigroup import Trajectory, duhamel_Iplus, exp_moment_weights, linear_trajectory
from epitaxy.spectral import FourierField, mode_grids
from epitaxy.stepper import SolverConfig, solve_timestep

from conftest import random_field_with_norm, trajectory_of
from reference import (
    as_half,
    coeff,
    complex_series_sum,
    duhamel_scan,
    fft_remainder,
    fields,
    full_box,
    nonzero_modes,
    radius_fit,
    resolve_depth,
    shell_peaks,
    spacetime_sup,
    step,
    taylor_term,
    whole_ksq,
)

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
    nodes = [
        random_field_with_norm(rng, float(r), dim=dim, truncation=TRUNCATION[dim])
        for r in norms
    ]
    return trajectory_of(times, nodes)


def assert_close(got, ref):
    scale = max(float(np.max(np.abs(ref))), 1e-300)
    assert float(np.max(np.abs(got - ref))) <= RTOL * scale


@pytest.mark.parametrize("dim,thinned", GRIDS)
def test_series_sum_matches_per_node_terms(rng, dim, thinned):
    depth = TaylorDepth.adaptive(1e-12)
    traj = random_trajectory(rng, dim, time_grid(rng, thinned))
    depths = [resolve_depth(depth, wiener_norm(f, 2)) for f in fields(traj)]
    assert len(set(depths)) > 1  # the batch really mixes depths
    batched = taylor_sum(traj, depth)
    assert np.array_equal(batched.times, traj.times)
    for i, (field, summed) in enumerate(zip(fields(traj), fields(batched))):
        terms = [taylor_term(field, j) for j in range(2, depths[i] + 1)]
        assert_close(summed.coeffs, sum(term.coeffs for term, _ in terms))


@pytest.mark.parametrize("dim", (1, 2))
def test_series_sum_chunks_agree_with_one_batch(rng, monkeypatch, dim):
    traj = random_trajectory(rng, dim, time_grid(rng, False))
    m = nonlinear.padded_grid_size(TRUNCATION[dim], 2.0)
    assert traj.times.size <= nonlinear.series_chunk_nodes(dim, m)  # one batch
    whole = taylor_sum(traj, TaylorDepth.adaptive())
    monkeypatch.setattr(nonlinear, "_BATCH_GRID_POINTS", 3 * m**dim)  # chunks of 3 nodes
    assert traj.times.size % 3  # and a ragged last one
    chunked = taylor_sum(traj, TaylorDepth.adaptive())
    assert np.array_equal(chunked.coeffs.view(np.uint64), whole.coeffs.view(np.uint64))


@pytest.mark.parametrize("data", ["random-decay", "single-mode"])
@pytest.mark.parametrize("padding", [1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("truncation", [1, 2, 7, 16])
@pytest.mark.parametrize("dim", [1, 2])
def test_series_sum_has_the_bytes_of_the_complex_path(monkeypatch, dim, truncation, padding, data):
    # the real layout changes no bit of the sum, in one batch or in ragged chunks of 3
    if data == "random-decay":
        h0 = random_decay(truncation, 7, 0.2, dim=dim)
    else:
        h0 = single_mode(truncation, 0.2, dim=dim)
    traj = linear_trajectory(h0, np.linspace(0.0, 0.05, 10))
    depth = TaylorDepth.adaptive()
    expected = complex_series_sum(traj, depth, padding).tobytes()
    m = nonlinear.padded_grid_size(truncation, padding)
    for nodes in (traj.times.size, 3):
        monkeypatch.setattr(nonlinear, "_BATCH_GRID_POINTS", nodes * m**dim)
        assert taylor_sum(traj, depth, padding).coeffs.tobytes() == expected, nodes


def test_series_sum_peak_memory_is_bounded_in_grid_arrays():
    # the Horner sweep keeps one accumulator beside y = -lap h on the padded
    # grid, and the transforms add at most a spectrum of about that size
    truncation, nodes = 8, 21
    traj = linear_trajectory(random_decay(truncation, 7, 0.2, dim=2), np.linspace(0.0, 0.1, nodes))
    m = nonlinear.padded_grid_size(truncation, 2.0)
    assert nodes * m**2 <= nonlinear._BATCH_GRID_POINTS  # one chunk
    depth = TaylorDepth.adaptive()
    taylor_sum(traj, depth)  # fills the caches the measured call reads
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        taylor_sum(traj, depth)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    grid_array = nodes * m**2 * np.dtype(float).itemsize
    assert peak <= 5 * grid_array, f"peak {peak / grid_array:.2f} real grid arrays"


def test_series_overflow_is_a_numerical_error():
    big = FourierField.from_modes(1, 8, {(1,): 1e10})  # y^40 / 40! overflows
    traj = trajectory_of([0.0, 0.1], (big, big))
    with pytest.raises(NumericalError, match="overflow"):
        taylor_sum(traj, TaylorDepth(max_j=40))


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
            wa, wb = exp_moment_weights(lam * dt)
            acc = math.exp(-lam * dt) * acc + dt * (f0 * wa + f1 * wb)
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


@pytest.mark.parametrize("dim", (1, 2))
def test_duhamel_scan_is_bit_identical_to_indexed_scan(rng, dim):
    # several step sizes, and half the modes held at exact zeros of both
    # signs and subnormals, whose products round to zeros: the sign of such a
    # zero depends on how decay * acc[i] is formed (scaling the real and
    # imaginary parts by the real decay instead differs in the bits here)
    times = np.concatenate([[0.0], np.cumsum(np.tile([0.01, 0.004, 0.0125], 30))])
    assert np.unique(np.diff(times)).size >= 3
    coeffs = random_trajectory(rng, dim, times).coeffs.copy()
    pool = np.concatenate([[0.0, -0.0] * 100, np.arange(-200, 201) * 5e-324])
    tiny = rng.choice(pool, coeffs.shape) + 1j * rng.choice(pool, coeffs.shape)
    modes = rng.random(coeffs.shape[1:]) < 0.5
    coeffs[:, modes] = tiny[:, modes]
    coeffs[5] = tiny[5] * 0.0  # a whole node of signed zeros
    coeffs[..., 0] = 0.0  # a real k_last = 0 line stays Hermitian
    traj = Trajectory(times, coeffs)
    got = duhamel_Iplus(traj).coeffs
    ref = duhamel_scan(traj)
    parts = ref.view(float)
    assert np.signbit(parts[parts == 0.0]).any()  # the image holds -0.0 too
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


@pytest.mark.parametrize("block", ["one-row", "ragged", "whole"])
@pytest.mark.parametrize("dim", (1, 2))
def test_row_blocks_keep_the_bytes(rng, monkeypatch, dim, block):
    # the Duhamel operator's interval terms and the spacetime norm's table go
    # by row blocks, the former from the last node down, so in place each
    # block reads the node below it before that node is overwritten; 30
    # intervals of three step sizes, in blocks of 1, of 4 (the last of 2) and
    # of every node
    times = np.concatenate([[0.0], np.cumsum(np.tile([0.01, 0.004, 0.0125], 10))])
    traj = random_trajectory(rng, dim, times)
    expected = duhamel_Iplus(traj).coeffs.tobytes()
    row = traj.coeffs[0].size
    elements = {"one-row": 1, "ragged": 4 * row + 1, "whole": times.size * row}[block]
    monkeypatch.setattr(spectral, "_BLOCK_ELEMENTS", elements)
    in_place = traj.coeffs.copy()
    image = duhamel_Iplus(Trajectory._trusted(times, in_place.view()), out=in_place)
    stale = np.full_like(traj.coeffs, np.nan)
    into = duhamel_Iplus(traj, out=stale)
    for got in (in_place, image.coeffs, stale, into.coeffs):
        assert got.tobytes() == expected
    # the buffers stay writeable for the next iteration; the results are not
    assert in_place.flags.writeable and stale.flags.writeable
    assert not (image.coeffs.flags.writeable or into.coeffs.flags.writeable)
    for params in (WeightParams(0.0, 0), WeightParams(0.7, 2)):
        assert spacetime_norm(traj, params) == spacetime_sup(traj, params)


@pytest.mark.parametrize("max_j", [1, None])
@pytest.mark.parametrize("dim", (1, 2))
def test_series_sum_into_a_stale_buffer(dim, max_j):
    # every entry of ``out`` is written, with the linear-only sentinel's zeros too
    traj = linear_trajectory(random_decay(8, 7, 0.2, dim=dim), np.linspace(0.0, 0.05, 11))
    depth = TaylorDepth.adaptive() if max_j is None else TaylorDepth(max_j=max_j)
    stale = np.full_like(traj.coeffs, 1.0 + 1.0j)
    got = taylor_sum(traj, depth, out=stale)
    assert stale.tobytes() == got.coeffs.tobytes() == taylor_sum(traj, depth).coeffs.tobytes()
    assert stale.flags.writeable and not got.coeffs.flags.writeable
    if max_j == 1:
        assert not np.any(stale)


@pytest.mark.parametrize("dim,thinned", GRIDS)
def test_spacetime_norm_matches_direct_sum(rng, dim, thinned):
    # the definition sums over every mode of the whole boxes
    traj = random_trajectory(rng, dim, time_grid(rng, thinned, t_final=2.0))
    kmag = np.sqrt(whole_ksq(dim, traj.truncation))
    boxes = full_box(traj.coeffs)
    for alpha, j in ((0.0, 0), (0.3, 2), (0.9, 1)):
        ref = 0.0
        for mode in np.ndindex(kmag.shape):
            peak = max(
                math.exp(alpha * t * kmag[mode]) * abs(box[mode])
                for box, t in zip(boxes, traj.times)
            )
            ref += kmag[mode] ** j * peak
        assert spacetime_norm(traj, WeightParams(alpha, j)) == pytest.approx(ref, rel=RTOL)


@pytest.mark.parametrize("kind", ["linear", "solved"])
@pytest.mark.parametrize("truncation", [2, 8, 16])
@pytest.mark.parametrize("dim", [1, 2])
def test_radius_fit_matches_per_field_oracle(dim, truncation, kind):
    # one pass over the trajectory against the dict-per-field fit, node by node
    h0 = random_decay(truncation, seed=7, amplitude=0.2, dim=dim)
    if kind == "linear":
        traj = linear_trajectory(h0, np.linspace(0.0, 1.0, 21))
    else:
        traj = solve_timestep(h0, SolverConfig(truncation=truncation, dt=1e-3, t_final=0.02))
    nodes = fields(traj)
    # each node's third-largest shell peak: at their median, some nodes keep
    # 3 shells and others do not
    thirds = [sorted(peaks.values())[-3] for peaks in map(shell_peaks, nodes) if len(peaks) >= 3]
    floors = [1e-13, 1e-8, 1e-4] + ([float(np.median(thirds))] if thirds else [])
    mixed = False
    for floor in floors:
        fit = analyticity_radius(traj, floor)
        oracle = [radius_fit(field, floor) for field in nodes]
        assert fit.n_shells.tolist() == [o.n_shells for o in oracle]
        skipped = np.isnan(fit.rho)
        assert skipped.tolist() == [o.n_shells < 3 for o in oracle]
        assert np.array_equal(np.isnan(fit.r_squared), skipped)
        kept = [o for o in oracle if o.n_shells >= 3]
        np.testing.assert_allclose(fit.rho[~skipped], [o.rho for o in kept], rtol=1e-12, atol=0)
        np.testing.assert_allclose(
            fit.r_squared[~skipped], [o.r_squared for o in kept], rtol=1e-12, atol=0
        )
        mixed |= 0 < skipped.sum() < skipped.size
    assert mixed or (dim, truncation) == (1, 2)  # there, 2 shells in all: every node skipped


def whole(field):
    """The whole box of a field."""
    return full_box(field.coeffs[None])[0]


def reference_step(coeffs, dt):
    """One IF-RK4 step on the full box, every stage through ``fft_remainder``."""
    k4 = whole_ksq(coeffs.ndim, (coeffs.shape[0] - 1) // 2) ** 2
    half = np.exp(-k4 * (dt / 2.0))
    full = half * half
    a = coeffs
    na = fft_remainder(a)
    nb = fft_remainder(half * (a + (dt / 2.0) * na))
    nc = fft_remainder(half * a + (dt / 2.0) * nb)
    nd = fft_remainder(full * a + dt * half * nc)
    return full * a + (dt / 6.0) * (full * na + 2.0 * half * (nb + nc) + nd)


def remainder(half, route):
    """``nonlinear.rhs_exponential`` on complex half boxes, through the route's layout."""
    return as_half(nonlinear.rhs_exponential(spectral.as_parts(half), route))


def test_reference_remainder_is_the_exponential_route(rng):
    for dim in (1, 2):
        h = random_field_with_norm(rng, 0.3, dim=dim, truncation=TRUNCATION[dim])
        route = nonlinear.exponential_route(dim, h.truncation, 2.0)
        got = remainder(h.coeffs[None], route)[0]
        assert_close(got, fft_remainder(whole(h))[..., h.truncation :])


@pytest.mark.parametrize("nodes", [1, 5])
@pytest.mark.parametrize("padding", [1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("truncation", [1, 2, 7, 16])
@pytest.mark.parametrize("dim", [1, 2])
def test_matrix_route_matches_fft_remainder(rng, dim, truncation, padding, nodes):
    # odd and even padded grids M, and the DFT matrices applied to a batch at once
    drawn = [
        random_field_with_norm(rng, float(r), dim=dim, truncation=truncation)
        for r in rng.uniform(0.05, 0.6, nodes)
    ]
    route = nonlinear.exponential_route(dim, truncation, padding)
    got = remainder(np.array([f.coeffs for f in drawn]), route)
    for node, field in zip(got, drawn):
        assert_close(node, fft_remainder(whole(field), padding)[..., truncation:])


@pytest.mark.parametrize("dim", [1, 2])
def test_route_floats_counts_the_matrices(dim):
    # the memory guard sizes the route by route_floats before it is built
    route = nonlinear._ExponentialRoute(dim, 7, 1.5)
    held = [getattr(route, name) for name in ("lead_in", "lead_out", "trail_in", "trail_out")]
    m = nonlinear.padded_grid_size(7, 1.5)
    assert sum(a.nbytes for a in held if a is not None) == 8 * nonlinear.route_floats(dim, 7, m)


def test_2d_route_and_series_sum_hold_one_matrix_set(monkeypatch):
    # the memory guard counts the matrices once, as ROUTE_BUILD_ARRAYS x
    # route_floats: in 2-D the series sum's transforms take the very arrays
    # the route holds, one set per (N, M)
    truncation, padding = 6, 1.5
    route = nonlinear.exponential_route(2, truncation, padding)
    held = (route.lead_in, route.lead_out, route.trail_in, route.trail_out)
    taken = []
    build = spectral.dft_matrices

    def recording(*key):
        taken.append(build(*key))
        return taken[-1]

    monkeypatch.setattr(spectral, "dft_matrices", recording)
    traj = linear_trajectory(random_decay(truncation, 7, 0.2, dim=2), np.linspace(0.0, 0.01, 5))
    taylor_sum(traj, TaylorDepth.adaptive(), padding)
    assert len(taken) == 2  # one synthesis and one analysis
    assert all(a is b for matrices in taken for a, b in zip(matrices, held, strict=True))


@pytest.mark.parametrize("dim", [1, 2])
def test_matrix_route_gives_exact_zeros_for_zero_nodes(rng, dim):
    # a zero node beside a nonzero one: no shortcut on the batch, exact zeros all the same
    h = random_field_with_norm(rng, 0.3, dim=dim, truncation=TRUNCATION[dim])
    batch = np.array([np.zeros_like(h.coeffs), h.coeffs, np.zeros_like(h.coeffs)])
    got = remainder(batch, nonlinear.exponential_route(dim, h.truncation, 2.0))
    assert np.all(got[[0, 2]] == 0.0)
    assert np.any(got[1] != 0.0)


@pytest.mark.parametrize("dim", [1, 2])
def test_matrix_route_refuses_overflow_before_expm1(monkeypatch, dim):
    def expm1(*_args, **_kwargs):
        raise AssertionError("expm1 ran on an overflowing grid")

    half = np.zeros((1,) + (5,) * (dim - 1) + (3,), dtype=complex)
    half[(0,) + (2,) * (dim - 1) + (1,)] = 400.0  # -lap h peaks at 2 * 400 on the grid
    route = nonlinear.exponential_route(dim, 2, 2.0)
    monkeypatch.setattr(np, "expm1", expm1)
    with pytest.raises(NumericalError, match="pointwise exponential would overflow"):
        nonlinear.rhs_exponential(spectral.as_parts(half), route)


@pytest.mark.parametrize("dim,thinned", GRIDS)
def test_step_matches_per_stage_reference(rng, dim, thinned):
    times = time_grid(rng, thinned, t_final=0.05)
    truncation = TRUNCATION[dim]
    config = SolverConfig(truncation=truncation, dt=0.05 / 40, t_final=0.05)
    state = random_field_with_norm(rng, 0.3, dim=dim, truncation=truncation)
    ref = whole(state)
    for dt in np.diff(times):
        state = step(state, dt, config)
        ref = reference_step(ref, dt)
        assert_close(state.coeffs, ref[..., truncation:])


# the ids keep the IF-RK4 names these tests had when a second scheme existed
STEPPER_DIMS = pytest.mark.parametrize("dim", [1, 2], ids=["1-if-rk4", "2-if-rk4"])


@STEPPER_DIMS
def test_march_matches_reference_chain(rng, dim):
    truncation = TRUNCATION[dim]
    h0 = random_field_with_norm(rng, rng.uniform(0.1, 0.24), dim=dim, truncation=truncation)
    assert certify(h0).passed
    config = SolverConfig(truncation=truncation, dt=0.004, t_final=0.1)
    traj = solve_timestep(h0, config)
    ref = whole(h0)
    for i, dt in enumerate(np.diff(traj.times)):
        ref = reference_step(ref, dt)
        assert_close(traj.coeffs[i + 1], ref[..., truncation:])
    # every node: zero mode exactly 0 and k_last = 0 line Hermitian bit for bit
    assert_exact_k0_line(traj.coeffs)


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
    assert np.all(coeffs[(slice(None),) + (truncation,) * (dim - 1) + (0,)] == 0.0)
    line = coeffs[..., 0]
    flipped = np.conj(line[(slice(None),) + (slice(None, None, -1),) * (dim - 1)])
    asym = np.max(np.abs(line - flipped), axis=tuple(range(1, dim)))
    assert np.all(asym <= 1e-15 * np.max(np.abs(coeffs), axis=tuple(range(1, dim + 1))))


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
    # read against the file's one mode list, each node's rows of the re and
    # im tables give that node's field entries: one mode per Hermitian pair (k_last > 0, or
    # k_last = 0 and k_0 > 0), nonzero, in lexicographic order
    n = TRUNCATION[2]
    drawn = random_trajectory(rng, 2, time_grid(rng, True))
    coeffs = drawn.coeffs.copy()
    coeffs[:, n + 1, 2] = 0.0  # (1, 2) vanishes at every node
    coeffs[::2, n + 2, 0] = coeffs[::2, n - 2, 0] = 0.0  # (2, 0) at every other node
    traj = Trajectory(drawn.times, coeffs)
    data = traj.to_json_dict()
    assert data["times"] == [float(t) for t in traj.times]
    assert (data["dim"], data["truncation"]) == (2, n)
    assert [1, 2] not in data["modes"] and [2, 0] in data["modes"]
    assert data["tables"].dtype == np.dtype("<f8")
    assert data["tables"].shape == (2, traj.times.size, len(data["modes"]))
    for re, im, field in zip(*data["tables"].tolist(), fields(traj)):
        listed = [k + [a, b] for k, a, b in zip(data["modes"], re, im) if a or b]
        expected = [
            list(k) + [a.real, a.imag]
            for k, a in nonzero_modes(field)
            if k[1] > 0 or (k[1] == 0 and k[0] > 0)
        ]
        assert listed == expected
    back = Trajectory.from_json_dict(data)
    np.testing.assert_array_equal(back.coeffs, traj.coeffs)


def test_json_reader_fills_partners_and_rejects_clashes():
    def data(modes, re, im):
        tables = np.array([[re, re], [im, im]], dtype=float)  # two nodes
        return {"dim": 1, "truncation": 2, "times": [0.0, 0.1], "modes": modes, "tables": tables}

    traj = Trajectory.from_json_dict(data([[1]], [0.25], [-0.5]))
    assert coeff(fields(traj)[1], -1) == 0.25 + 0.5j
    with pytest.raises(ValueError, match="conjugate"):
        Trajectory.from_json_dict(data([[-1], [1]], [0.5, 0.25], [0.0, 0.0]))
    with pytest.raises(ValueError, match="outside"):
        Trajectory.from_json_dict(data([[3]], [0.25], [0.0]))
    # the tables are the array the CLI loads from the .npy file, not JSON lists
    listed = data([[1]], [0.25], [-0.5])
    with pytest.raises(ValueError, match="float64 array"):
        Trajectory.from_json_dict({**listed, "tables": listed["tables"].tolist()})


def test_array_construction_validates_every_node():
    # a half box can break Hermitian symmetry only on its k_last = 0 line,
    # where -k is stored too
    good = FourierField.from_modes(2, 2, {(1, 0): 0.5, (1, 1): 0.25}).coeffs
    bad = good.copy()
    bad[3, 0] = 0.7  # k = (1, 0) without its partner (-1, 0)
    with pytest.raises(ValueError, match="Hermitian"):
        Trajectory(np.array([0.0, 1.0]), np.stack([good, bad]))
    bad = good.copy()
    bad[2, 0] = 1.0
    with pytest.raises(ValueError, match="zero mode"):
        Trajectory(np.array([0.0, 1.0]), np.stack([good, bad]))
    bad = good.copy()
    bad[1, 1] = np.inf
    with pytest.raises(ValueError, match="finite"):
        Trajectory(np.array([0.0, 1.0]), np.stack([good, bad]))
    traj = Trajectory(np.array([0.0, 1.0]), np.stack([good, good]))
    with pytest.raises(ValueError):
        traj.coeffs[0, 3, 0] = 1.0  # read-only
    node = fields(traj)[1]
    with pytest.raises(ValueError):
        node.coeffs[3, 2] = 1.0  # the node views are read-only too
    assert coeff(node, (1, 0)) == 0.5
    assert coeff(node, (-1, -1)) == 0.25


def test_a_whole_1d_box_is_not_taken_for_a_half_box():
    # a 1-D box of N has the shape of a half box of 2N, and its first entry,
    # c(-N), sits where that half box keeps its zero mode
    box = whole(FourierField.from_modes(1, 4, {(4,): 0.5, (1,): 0.25}))
    with pytest.raises(ValueError, match="zero mode"):
        Trajectory([0.0, 0.1], np.stack([box, box]))


def assert_exact_k0_line(half):
    """Zero mode exactly 0 and the k_last = 0 line exactly Hermitian at every node."""
    dim, truncation = half.ndim - 1, half.shape[-1] - 1
    assert half.shape[1:] == (2 * truncation + 1,) * (dim - 1) + (truncation + 1,)
    assert np.all(half[(slice(None),) + (truncation,) * (dim - 1) + (0,)] == 0.0)
    line = half[..., 0]
    flipped = line[(slice(None),) + (slice(None, None, -1),) * (dim - 1)]
    assert np.array_equal(line, np.conj(flipped))


@pytest.mark.parametrize("dim", [1, 2])
def test_every_producer_returns_half_boxes_with_an_exact_k0_line(rng, dim, tmp_path):
    truncation = TRUNCATION[dim]
    h0 = random_field_with_norm(rng, 0.2, dim=dim, truncation=truncation)
    config = SolverConfig(truncation=truncation, dt=0.01, t_final=0.1)
    linear = linear_trajectory(h0, config.times)
    series = taylor_sum(linear, TaylorDepth.adaptive())
    picard, _ = solve_picard(h0, certify(h0), config)
    produced = {
        "linear_trajectory": linear,
        "taylor_sum": series,
        "duhamel_Iplus": duhamel_Iplus(series),
        "solve_picard": picard,
        "solve_timestep": solve_timestep(h0, config),
        "read back": Trajectory.from_json_dict(picard.to_json_dict()),
    }
    for name, traj in produced.items():
        assert traj.truncation == truncation and traj.dim == dim, name
        assert_exact_k0_line(traj.coeffs)


@pytest.mark.parametrize("dim", [1, 2])
def test_half_box_norms_match_whole_box_sums(rng, dim):
    # each k_last > 0 entry stands for itself and its partner; the k_last = 0
    # line holds both of each pair
    truncation = TRUNCATION[dim]
    traj = random_trajectory(rng, dim, time_grid(rng, True, t_final=1.0))
    boxes = full_box(traj.coeffs)
    kmag = np.sqrt(whole_ksq(dim, truncation))
    box = tuple(range(1, dim + 1))
    for j in (0, 1, 2):
        ref = np.sum(kmag**j * np.abs(boxes), axis=box)
        np.testing.assert_allclose(wiener_norm(traj, j), ref, rtol=1e-15, atol=0)
        for alpha in (0.0, 0.5):
            weighted = np.exp(alpha * traj.times.reshape((-1,) + (1,) * dim) * kmag)
            ref = float(np.sum(kmag**j * np.max(weighted * np.abs(boxes), axis=0)))
            got = spacetime_norm(traj, WeightParams(alpha, j))
            assert got == pytest.approx(ref, rel=1e-15, abs=0)
