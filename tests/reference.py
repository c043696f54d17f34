"""Oracles that the package is checked against.

The package transforms, sums and steps whole batches of half boxes.  These
are the definitions it is checked against, one field at a time:
``synthesize`` and ``analyze``, the transform pair on one field through
numpy's real FFT (not the package's DFT products), refusing a grid below the
2N+1 floor (``check_resolution``); ``multiply``, the exact
product on a power-of-two grid (acceptance criterion 6); the exponential
route to the right-hand side, ``rhs_exponential``, and the remainder the
stepper integrates, through a full complex FFT pair, ``fft_remainder``; the
series term F_j on the padded grid, the series route to the right-hand side
and the scalar loop that resolves one node's series depth.
``complex_series_sum`` is the byte oracle of ``taylor_sum``: the series sum
as it was formed on complex half boxes, before it took the real layout of
``spectral.as_parts``.
``duhamel_map`` is one application of the fixed-point map, which
``solve_picard`` iterates on plain arrays.  ``duhamel_scan`` is the Duhamel
operator with its node-by-node scan written as plain indexing and its
interval terms formed over the whole trajectory at once, the exact (bit for
bit) oracle of ``duhamel_Iplus``.  ``allocating_picard`` is the byte oracle
of ``solve_picard``, which iterates in two buffers: the loop as it was, with
a new series sum, Duhamel image, iterate and pair of differences in every
iteration, on these oracles and on ``spacetime_sup``, the spacetime norm
with its whole log-amplitude table formed at once (``weighted_sup``).
``certificate_from_json_dict`` reads a certificate back from its JSON form.
``dense_probe`` is the operator probe on the whole half box, the oracle of
``operator_bound_probe``, which works on a trajectory's support.
``random_probe_trajectory`` is the probe's sparse draw
(``semigroup._draw_probe_case``) scattered into zero half boxes, a trajectory
as ``probe-operator`` draws it.  ``dense_probe_trajectory`` is that draw made
into a whole (nodes x half box) array, its oracle.  ``probe_rows`` is the byte oracle of
``operator_probe.csv``: ``dense_probe`` on one validated trajectory at a
time from ``dense_probe_trajectory``, each with a Duhamel kernel of its own.

The stepper marches real arrays in the layout of ``spectral.as_parts``.
Its byte oracle is the complex formulation it replaced: the remainder on
complex half boxes, ``complex_remainder``, one IF-RK4 ``complex_step`` of a
batch on it, one ``step`` of a field and the whole ``march``.  ``as_half``
reads complex half boxes back from the real layout.

``radius_fit`` is ``analyticity_radius`` of one field, from a dict of its
``shell_peaks`` built mode by mode, with its line through ``lstsq``
(``line_fit``).

The package holds every field as its k_last >= 0 half box.  ``fields``
views a trajectory's nodes as fields.  ``full_box``
rebuilds the whole (2N+1)^dim box, ``whole_ksq`` is its |k|^2, and
``random_decay_whole`` is the
``random-decay`` preset's whole-box draw as it was first defined.  The
field helpers ``zero``, ``coeff``, ``nonzero_modes``, ``max_abs``, ``add``,
``sub`` and ``neg`` are what the tests read and combine fields with.
"""

import math

import numpy as np

from epitaxy import nonlinear, semigroup
from epitaxy.exceptions import NumericalError
from epitaxy.nonlinear import DEPTH_HARD_CAP, exponential_route, padded_grid_size, taylor_sum
from epitaxy.norms import Certificate, RadiusFit, WeightParams, wiener_norm
from epitaxy.semigroup import (
    ProbeReport,
    Trajectory,
    duhamel_Iplus,
    exp_moment_weights,
    linear_trajectory,
)
from epitaxy.spectral import (
    FourierField,
    as_parts,
    dft_matrices,
    hermitian_k0_line,
    mode_grids,
    sealed,
)


def check_resolution(m, truncation):
    """Refuse an M^dim grid below the 2N+1 floor, where the transforms stop being exact."""
    if m < 2 * truncation + 1:
        raise ValueError(
            f"grid resolution {m} is too small for truncation {truncation}; "
            f"need at least {2 * truncation + 1}"
        )


def _real_spectrum_index(dim, truncation, m):
    """Positions of the k_last >= 0 half box inside an M x ... x (M//2+1) real-FFT spectrum."""
    rows = (np.arange(-truncation, truncation + 1) % m,) * (dim - 1)
    return rows + (slice(0, truncation + 1),)


def synthesize(field, m):
    """Real samples of sum_k coeff(k) exp(i k.x) on the M^dim grid, M >= 2N+1.

    numpy's inverse real FFT of the zero-filled half spectrum, independent of
    the package's transforms.
    """
    check_resolution(m, field.truncation)
    dim = field.dim
    spectrum = np.zeros((m,) * (dim - 1) + (m // 2 + 1,), dtype=complex)
    spectrum[_real_spectrum_index(dim, field.truncation, m)] = field.coeffs
    return np.fft.irfftn(spectrum, s=(m,) * dim, axes=tuple(range(dim)), norm="forward")


def analyze(samples, truncation):
    """The mean-zero field of the box coefficients of M^dim samples, and their mean.

    numpy's forward real FFT, independent of the package's transforms.
    """
    dim, m = samples.ndim, samples.shape[0]
    check_resolution(m, truncation)
    spectrum = np.fft.rfftn(samples, axes=tuple(range(dim)))
    scale = m**dim
    coeffs = spectrum[_real_spectrum_index(dim, truncation, m)] / scale
    hermitian_k0_line(coeffs[None])
    return FourierField(dim, truncation, coeffs), float(spectrum[(0,) * dim].real / scale)


def multiply(f, g):
    """Pointwise product of two fields, exact in the combined truncation.

    The product of trigonometric polynomials with boxes N_f and N_g lives in
    the box N_f + N_g; the grid is sized so no aliasing occurs.  Returns the
    mean-zero part of the product and its mean.
    """
    if f.dim != g.dim:
        raise ValueError(f"dimension mismatch: {f.dim} vs {g.dim}")
    n_out = f.truncation + g.truncation
    m = 1 << (2 * n_out + 1).bit_length()  # a power of two above the 2 n_out + 1 floor
    return analyze(synthesize(f, m) * synthesize(g, m), n_out)


def complex_remainder(half, route):
    """The remainder lap(exp(-lap h)) + lap^2 h on a batch of complex half boxes,
    complex in and out: the package's route as it was formed before it took
    the real layout of ``spectral.as_parts``, on that route's matrices with
    multipliers of its own.
    """
    if route.lead_in is None:
        rows = half.view(float)
    else:
        scaled = mode_grids(2, half.shape[-1] - 1).ksq * half
        rows = route.lead_in @ np.concatenate((scaled.real, scaled.imag), axis=-2)
    y = rows.reshape(-1, route.trail_in.shape[0]) @ route.trail_in
    if float(y.max()) > 700.0:
        raise NumericalError("pointwise exponential would overflow")
    grid = np.expm1(y)
    grid -= y
    parts = grid @ route.trail_out
    if route.lead_out is None:
        return parts.view(complex).reshape(half.shape)
    parts = route.lead_out @ parts.reshape(half.shape[0], -1, half.shape[-1])
    n = half.shape[-2]
    m = route.lead_in.shape[0] // 2
    from_grid = -mode_grids(2, half.shape[-1] - 1).ksq / m**2
    return from_grid * (parts[:, :n] + 1j * parts[:, n:])


def as_half(parts):
    """The complex half boxes of a batch in the real layout of ``spectral.as_parts``."""
    if parts.ndim == 2:
        return np.ascontiguousarray(parts).view(complex)
    n = parts.shape[1] // 2
    half = np.empty((len(parts), n) + parts.shape[2:], dtype=complex)
    half.real, half.imag = parts[:, :n], parts[:, n:]
    return half


def rhs_exponential(field, padding_factor=2.0):
    """lap(exp(-lap h)) via the pointwise exponential on a padded grid, as a field.

    The package's route returns the remainder lap(exp(-lap h)) + lap^2 h that
    the stepper integrates; the stiff linear part is taken off again here.
    """
    route = exponential_route(field.dim, field.truncation, float(padding_factor))
    k4 = mode_grids(field.dim, field.truncation).k4
    remainder = nonlinear.rhs_exponential(as_parts(field.coeffs[None]), route)
    out = as_half(remainder) - k4 * field.coeffs
    hermitian_k0_line(out)
    return FourierField(field.dim, field.truncation, out[0])


def fft_remainder(coeffs, padding=2.0):
    """The remainder lap(exp(-lap h)) + lap^2 h on a whole box, through a full
    complex FFT pair on the padded grid.

    With y = -lap h on the grid it is lap(expm1(y) - y): lap annihilates the
    constant, and lap(-y) is lap^2 h.  Summed as lap(exp(y)) + lap^2 h
    instead, the two terms cancel down to the O(|y|^2) remainder and leave the
    roundoff of the larger linear part, up to 5e-12 of the remainder at
    N = 16 against a long-double direct sum.
    """
    dim, truncation = coeffs.ndim, (coeffs.shape[0] - 1) // 2
    ksq = whole_ksq(dim, truncation)
    m = padded_grid_size(truncation, padding)
    box = np.ix_(*(np.arange(-truncation, truncation + 1) % m,) * dim)
    spectrum = np.zeros((m,) * dim, dtype=complex)
    spectrum[box] = ksq * coeffs
    y = (np.fft.ifftn(spectrum) * m**dim).real
    return -ksq * np.fft.fftn(np.expm1(y) - y)[box] / m**dim


def start(field):
    """The stepper's state of one field: its half box, with an exact k_last = 0 line."""
    state = field.coeffs[None].copy()
    hermitian_k0_line(state)
    return state


def complex_step(a, dt, k4, route):
    """One IF-RK4 step of the complex half-box batch ``a``, stage by stage on
    ``complex_remainder``: the package's step as it was formed before it
    took the real layout, its decay weights its own.  ``route`` None is the
    linear-only sentinel."""
    half = np.exp(-k4 * (dt / 2.0))
    full = half * half
    new = full * a
    if route is not None:
        na = complex_remainder(a, route)
        nb = complex_remainder(half * (a + (dt / 2.0) * na), route)
        nc = complex_remainder(half * a + (dt / 2.0) * nb, route)
        nd = complex_remainder(new + (dt * half) * nc, route)
        new += (dt / 6.0) * (full * na + (2.0 * half) * (nb + nc) + nd)
    if not np.isfinite(new).all():
        raise NumericalError("step rejected: amplitudes became non-finite")
    hermitian_k0_line(new)
    return new


def _route(field, config):
    linear_only = config.taylor.max_j == 1  # the sentinel switches the nonlinearity off
    return None if linear_only else exponential_route(field.dim, field.truncation, config.padding)


def step(field, dt, config):
    """One IF-RK4 step of ``field`` by ``dt``, by ``complex_step``."""
    dt = float(dt)
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    k4 = mode_grids(field.dim, field.truncation).k4
    new = complex_step(start(field), dt, k4, _route(field, config))
    return FourierField(field.dim, field.truncation, new[0])


def march(field, config):
    """The half boxes of ``solve_timestep``, one ``complex_step`` a node."""
    k4 = mode_grids(field.dim, field.truncation).k4
    route = _route(field, config)
    states = [start(field)]
    for dt in np.diff(config.times).tolist():
        states.append(complex_step(states[-1], dt, k4, route))
    return np.concatenate(states)


def certificate_from_json_dict(data):
    """The certificate of ``Certificate.to_json_dict`` output."""
    return Certificate(
        r0=float(data["r0"]),
        alpha=float(data["alpha"]),
        r1=float(data["r1"]),
        contraction_constant=float(data["contraction_constant"]),
        mapping_lhs=float(data["mapping_lhs"]),
        passed=bool(data["pass"]),
    )


def line_fit(x, y):
    """Least-squares line y ~ intercept + slope * x; returns (intercept, slope, R^2)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    design = np.vstack([np.ones_like(x), x]).T
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    fitted = design @ coef
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(coef[0]), float(coef[1]), r_squared


def shell_peaks(field):
    """{integer |k|^2: largest amplitude} over the shells of one field, mode by mode;
    k = 0 and shells of zero amplitude are left out."""
    grids = mode_grids(field.dim, field.truncation)
    ksq_int = np.rint(grids.ksq).astype(np.int64).ravel()
    amps = np.abs(field.coeffs).ravel()
    shells = {}
    for r2, a in zip(ksq_int.tolist(), amps.tolist()):
        if r2 == 0:
            continue
        if a > shells.get(r2, 0.0):
            shells[r2] = a
    return shells


def radius_fit(field, floor):
    """``analyticity_radius`` of one field, from its ``shell_peaks``: NaN rho and
    R^2 when fewer than 3 shells clear ``floor``."""
    points = sorted((math.sqrt(r2), a) for r2, a in shell_peaks(field).items() if a > floor)
    if len(points) < 3:
        return RadiusFit(rho=math.nan, r_squared=math.nan, n_shells=len(points))
    _, rho, r_squared = line_fit([p[0] for p in points], [-math.log(p[1]) for p in points])
    return RadiusFit(rho=rho, r_squared=r_squared, n_shells=len(points))


def fields(traj):
    """One FourierField per node of ``traj``, a view of its read-only half box.

    The views skip the field checks, which the trajectory has made.
    """
    views = []
    for half in traj.coeffs:
        field = object.__new__(FourierField)
        object.__setattr__(field, "dim", traj.dim)
        object.__setattr__(field, "truncation", traj.truncation)
        object.__setattr__(field, "coeffs", half)
        views.append(field)
    return tuple(views)


def full_box(half):
    """The ``(nodes,) + (2N+1,)*dim`` batch whose k_last >= 0 half is ``half``.

    Every other coefficient is written as conj(coeff(-k)) of the half box
    (see ``hermitian_k0_line`` for the k_last = 0 line), so each box is
    exactly Hermitian with a vanishing zero mode.  Index i is k = i - N.
    """
    dim = half.ndim - 1
    truncation = half.shape[-1] - 1
    out = np.empty(half.shape[:-1] + (2 * truncation + 1,), dtype=complex)
    out[..., truncation:] = half
    hermitian_k0_line(out[..., truncation:])
    flipped = out[(Ellipsis,) + (slice(None, None, -1),) * dim]  # k -> -k
    out[..., :truncation] = np.conj(flipped[..., :truncation])
    return out


def whole_ksq(dim, truncation):
    """|k|^2 over the whole (2N+1)^dim box, index i -> k = i - N along every axis."""
    axis = np.arange(-truncation, truncation + 1, dtype=float)
    if dim == 1:
        return axis**2
    kx, ky = np.meshgrid(axis, axis, indexing="ij")
    return kx**2 + ky**2


def random_decay_whole(truncation, seed, amplitude=0.2, decay=3.0, dim=1):
    """The whole box of ``presets.random_decay``, drawn and normalized as first defined.

    The envelope and the j = 2 norm use the whole box's |k|, and the norm
    is the whole-box sum with unit weights.
    """
    rng = np.random.default_rng(seed)
    n = 2 * truncation + 1
    shape = (n,) * dim
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    ksq = whole_ksq(dim, truncation)
    kmag = np.sqrt(ksq)
    raw *= np.exp(-decay * kmag)
    sl = tuple(slice(None, None, -1) for _ in range(dim))
    coeffs = 0.5 * (raw + np.conj(raw[sl]))
    coeffs[(truncation,) * dim] = 0.0
    pairs = np.broadcast_to(1.0, ksq.shape)
    norm = float(np.sum(pairs * kmag**2 * np.abs(coeffs), axis=tuple(range(-dim, 0))))
    return coeffs * float(amplitude / norm)


def zero(dim, truncation):
    """The zero field."""
    shape = (2 * truncation + 1,) * (dim - 1) + (truncation + 1,)
    return FourierField(dim, truncation, np.zeros(shape, dtype=complex))


def coeff(field, k):
    """Coefficient at mode ``k``, an int (1-d) or a tuple of ``dim`` ints.

    A k with k_last < 0 is read as conj(coeff(-k)) from the half box.
    """
    comps = (int(k),) if isinstance(k, (int, np.integer)) else tuple(int(c) for c in k)
    if len(comps) != field.dim:
        raise ValueError(f"mode {comps} has wrong dimension for dim={field.dim}")
    n = field.truncation
    if any(abs(c) > n for c in comps):
        raise ValueError(f"mode {comps} outside truncation {n}")
    if comps[-1] < 0:
        return complex(np.conj(coeff(field, tuple(-c for c in comps))))
    return complex(field.coeffs[tuple(c + n for c in comps[:-1]) + (comps[-1],)])


def nonzero_modes(field):
    """(components, amplitude) pairs for the nonzero modes of the whole box, lexicographic."""
    whole = full_box(field.coeffs[None])[0]
    return sorted(
        (tuple(int(p) - field.truncation for p in pos), complex(whole[tuple(pos)]))
        for pos in np.argwhere(whole != 0)
    )


def max_abs(field):
    """The largest coefficient modulus; a half box has the whole box's."""
    return float(np.max(np.abs(field.coeffs)))


def _check_compatible(f, g):
    if f.dim != g.dim or f.truncation != g.truncation:
        raise ValueError(
            f"incompatible fields: dim/truncation ({f.dim},{f.truncation}) "
            f"vs ({g.dim},{g.truncation})"
        )


def add(f, g):
    """The field f + g."""
    _check_compatible(f, g)
    return FourierField(f.dim, f.truncation, f.coeffs + g.coeffs)


def sub(f, g):
    """The field f - g."""
    _check_compatible(f, g)
    return FourierField(f.dim, f.truncation, f.coeffs - g.coeffs)


def neg(f):
    """The field -f."""
    return FourierField(f.dim, f.truncation, -f.coeffs)


def resolve_depth(depth, r):
    """One node's depth J, for ``TaylorDepth.resolve``: r^(J+1)/(J+1)! below tolerance."""
    if depth.max_j is not None:
        return depth.max_j
    j = 2
    tail = r**3 / 6.0  # r^(J+1) / (J+1)! at J = 2
    while tail >= depth.tail_tol:
        j += 1
        if j > DEPTH_HARD_CAP:
            raise NumericalError(
                f"adaptive depth exceeded the cap of {DEPTH_HARD_CAP} terms; "
                f"achieved tail bound {tail:.3e} >= tolerance {depth.tail_tol:g}"
            )
        tail *= r / (j + 1)
    return j


def taylor_term(field, j, padding_factor=2.0):
    """The series term F_j = ((-1)^j / j!) (lap h)^j; (mean-zero field, mean).

    The mean is the term's zero mode, which the Laplacian applied on top
    annihilates.
    """
    dim, n = field.dim, field.truncation
    m = padded_grid_size(n, padding_factor)
    lap = synthesize(FourierField(dim, n, -mode_grids(dim, n).ksq * field.coeffs), m)
    return analyze(((-1.0) ** j / math.factorial(j)) * lap**j, n)


def series_sum(field, depth, padding_factor=2.0):
    """``taylor_sum`` of the one-node trajectory holding ``field``, as a field."""
    one_node = Trajectory([0.0], field.coeffs[None])
    return fields(taylor_sum(one_node, depth, padding_factor))[0]


def complex_series_sum(traj, depth, padding_factor=2.0):
    """``taylor_sum(traj, depth, padding_factor).coeffs``, formed as the package
    formed it on complex half boxes before the sum took the real layout.

    The whole trajectory is one batch: y = -lap h is synthesized from the
    complex ``ksq * half``, in 2-D through the real DFT products with the
    real parts concatenated over the imaginary ones; the Horner sweep is the
    package's; the analysis is reassembled into complex boxes, divided by
    M^dim and made exact on its k_last = 0 line by ``hermitian_k0_line``.
    """
    dim, truncation = traj.dim, traj.truncation
    depths = depth.resolve(wiener_norm(traj, 2))
    if depths.max() < 2:
        return np.zeros_like(traj.coeffs)
    m = padded_grid_size(truncation, padding_factor)
    half = mode_grids(dim, truncation).ksq * traj.coeffs
    if dim == 1:
        y = np.fft.irfft(half, m, norm="forward")
    else:
        lead_in, lead_out, trail_in, trail_out = dft_matrices(truncation, m)
        rows = lead_in @ np.concatenate((half.real, half.imag), axis=1)
        y = rows.reshape(len(half), m, -1) @ trail_in
    column = depths.reshape((-1,) + (1,) * dim)
    acc = np.zeros_like(y)
    for j in range(int(depths.max()), 1, -1):
        acc *= y
        acc += np.where(column >= j, 1.0 / math.factorial(j), 0.0)
    acc *= y
    acc *= y
    if dim == 1:
        spectrum = np.fft.rfft(acc)[:, : truncation + 1]
    else:
        parts = lead_out @ (acc @ trail_out).reshape(len(acc), -1, truncation + 1)
        n = 2 * truncation + 1
        spectrum = parts[:, :n] + 1j * parts[:, n:]
    series = spectrum / m**dim
    hermitian_k0_line(series)
    return series


def rhs_series(field, depth, padding_factor=2.0):
    """-|k|^4 h - |k|^2 sum_{j=2}^{J} F_j, the series route to the right-hand side."""
    grids = mode_grids(field.dim, field.truncation)
    series = series_sum(field, depth, padding_factor)
    return FourierField(
        field.dim, field.truncation, -grids.k4 * field.coeffs - grids.ksq * series.coeffs
    )


def duhamel_map(h0, h, depth, padding_factor=2.0):
    """T(h) = exp(-lap^2 t) h0 + I+ sum_{j>=2} F_j(h), one application of the map."""
    if h.dim != h0.dim or h.truncation != h0.truncation:
        raise ValueError("trajectory nodes must share dim and truncation with h0")
    series = taylor_sum(h, depth, padding_factor)
    linear = linear_trajectory(h0, h.times).coeffs
    return Trajectory(h.times, linear + duhamel_Iplus(series).coeffs)


def duhamel_scan(traj):
    """``duhamel_Iplus(traj).coeffs`` with the scan indexed by node: the same operations."""
    grids = mode_grids(traj.dim, traj.truncation)
    stacked = traj.coeffs
    steps = np.diff(traj.times)
    distinct, which = np.unique(steps, return_inverse=True)
    z = distinct.reshape((-1,) + (1,) * traj.dim) * grids.k4
    wa, wb = exp_moment_weights(z)
    decay = np.exp(-z)
    acc = np.empty_like(stacked)
    acc[0] = 0.0
    np.multiply(stacked[1:], wb[which], out=acc[1:])
    acc[1:] += stacked[:-1] * wa[which]
    acc[1:] *= steps.reshape((-1,) + (1,) * traj.dim)
    for i, w in enumerate(which):
        acc[i + 1] += decay[w] * acc[i]
    acc *= -grids.ksq
    acc[0] = 0.0
    acc[(slice(None),) + (traj.truncation,) * (traj.dim - 1) + (0,)] = 0.0
    return acc


def log_table(coeffs):
    """log|coeff| of every entry, with -inf at the zero ones."""
    with np.errstate(divide="ignore"):
        return np.log(np.abs(coeffs))


def weighted_sup(logamp, times, params):
    """The spacetime norm from its whole log-amplitude table ``logamp`` of
    (nodes,) + half box, weighed and summed over the whole half box."""
    grids = mode_grids(logamp.ndim - 1, logamp.shape[-1] - 1)
    times = times.reshape((-1,) + (1,) * (logamp.ndim - 1))
    peak = (params.alpha * times * grids.kmag + logamp).max(axis=0)
    with np.errstate(over="ignore"):
        amps = np.exp(peak)
    return float(np.sum(grids.pairs * grids.kmag**params.j * amps))


def spacetime_sup(traj, params):
    """``spacetime_norm(traj, params)`` with the whole log-amplitude table formed at once."""
    return weighted_sup(log_table(traj.coeffs), traj.times, params)


def dense_probe(traj, alphas):
    """``operator_bound_probe`` on the whole half box: the input's and the whole
    ``duhamel_Iplus`` image's log tables, each made once and weighed per alpha."""
    alphas = tuple(float(alpha) for alpha in alphas)
    logamp = log_table(traj.coeffs)
    denoms = [weighted_sup(logamp, traj.times, WeightParams(alpha, 0)) for alpha in alphas]
    if 0.0 in denoms:
        raise ValueError("operator probe needs a nonzero trajectory")
    logamp = log_table(duhamel_Iplus(traj).coeffs)
    reports = []
    for alpha, denom in zip(alphas, denoms):
        ratio = weighted_sup(logamp, traj.times, WeightParams(alpha, 2)) / denom
        bound = 1.0 / (1.0 - alpha)
        reports.append(ProbeReport(ratio=ratio, bound=bound, passed=ratio <= bound * (1.0 + 1e-6)))
    return tuple(reports)


def allocating_picard(h0, cert, config):
    """The loop of ``solve_picard``, allocating every array anew in each iteration.

    Returns the last iterate's half boxes and the tuples of deltas, empirical
    ratios and ball distances; the certificate and convergence checks are
    ``solve_picard``'s own.
    """
    params = WeightParams(cert.alpha, 2)
    center = linear_trajectory(h0, config.times)
    times = center.times
    current = center.coeffs
    deltas, ratios, balls = [], [], []
    for _ in range(config.max_iter):
        iterate = Trajectory._trusted(times, current)
        series = complex_series_sum(iterate, config.taylor, config.padding)
        updated = center.coeffs + duhamel_scan(Trajectory._trusted(times, series))
        delta = spacetime_sup(Trajectory._trusted(times, updated - current), params)
        deltas.append(delta)
        balls.append(spacetime_sup(Trajectory._trusted(times, updated - center.coeffs), params))
        if len(deltas) >= 2 and deltas[-2] > 0.0:
            ratios.append(deltas[-1] / deltas[-2])
        current = updated
        if delta < config.tol:
            break
    return current, tuple(deltas), tuple(ratios), tuple(balls)


def random_probe_trajectory(rng, dim, truncation, times):
    """The probe's random trajectory: its sparse draw in zero half boxes,
    read-only and, like the probe's, unvalidated."""
    times = sealed(times, float)
    support, columns = semigroup._draw_probe_case(rng, dim, truncation, times)
    box = (2 * truncation + 1,) * (dim - 1) + (truncation + 1,)
    half = np.zeros((times.size,) + box, dtype=complex)
    half.reshape(times.size, -1)[:, support] = columns
    return Trajectory._trusted(times, half)


def dense_probe_trajectory(rng, dim, truncation, times):
    """The probe's random trajectory drawn into its whole half boxes: the same
    rng calls in the same order as ``random_probe_trajectory``, each drawn mode
    added into its half-box column, and ``hermitian_k0_line`` for the line."""
    times = np.asarray(times, dtype=float)
    n = 2 * truncation + 1
    half = np.zeros((times.size,) + (n,) * (dim - 1) + (truncation + 1,), dtype=complex)
    n_modes = int(rng.integers(1, semigroup._PROBE_MAX_MODES + 1))
    count = 0
    while count < n_modes:
        comps = tuple(int(c) for c in rng.integers(-truncation, truncation + 1, size=dim))
        if all(c == 0 for c in comps):
            continue
        count += 1
        amp = complex(rng.standard_normal(), rng.standard_normal())
        gamma = float(rng.uniform(0.0, semigroup._PROBE_MAX_DECAY))
        profile = np.exp(-gamma * times)
        if comps[-1] < 0 or (comps[-1] == 0 and comps[0] < 0):  # -k is the half box's
            comps, amp = tuple(-c for c in comps), np.conj(amp)
        idx = tuple(c + truncation for c in comps[:-1]) + (comps[-1],)
        half[(slice(None),) + idx] += amp * profile
    hermitian_k0_line(half)
    return Trajectory(times, half)


def probe_rows(seed, trajectories, alphas, dims, max_truncation, t_final, dt):
    """The rows of ``operator_probe.csv`` below its header, drawn as ``probe-operator`` draws
    them; each trajectory is validated and probed by ``dense_probe``."""
    # a grid of its own, the oracle of the bytes of ``stepper.uniform_grid``
    times = np.linspace(0.0, t_final, round(t_final / dt) + 1)
    rng = np.random.default_rng(seed)
    rows = []
    for index in range(trajectories):
        dim = dims[index % len(dims)]
        truncation = int(rng.integers(2, max_truncation + 1))
        traj = dense_probe_trajectory(rng, dim, truncation, times)
        for alpha, report in zip(alphas, dense_probe(traj, alphas)):
            rows.append(
                f"{index},{dim},{truncation},{float(alpha)!r},"
                f"{report.ratio!r},{report.bound!r},{report.passed}"
            )
    return rows
