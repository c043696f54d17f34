"""Lattice bookkeeping, transforms and Fourier multipliers on the torus.

Real mean-zero fields on T^n (n in {1, 2}) are stored as truncated Fourier
coefficient boxes: all modes k with max-norm |k_i| <= N are retained, in an
array indexed so that position ``i`` along each axis holds wavenumber
``i - N``.  The coefficient convention is

    coeff(k) = (2*pi)^(-n) * integral of h(x) exp(-i k.x) dx,

so that cos(x) decomposes into the two coefficients {+1: 1/2, -1: 1/2}.
Realness of the represented function is the Hermitian symmetry
coeff(-k) == conj(coeff(k)); the zero mode is identically zero (the mean is
conserved by the evolution and is factored out of every representation).

The physical-space side is a uniform M^n grid over [0, 2*pi)^n; synthesis
and analysis are exact inverses of each other whenever M >= 2N + 1.

Because the fields are real, only the half box k_last >= 0 (the last axis
from index N on) carries information.  The transforms work on batches with
the real-FFT pair: a ``(nodes,) + box`` coefficient array is synthesized
with one ``irfftn`` of its half boxes, whose output is real by construction,
and samples are analyzed with one ``rfftn``, whose half spectrum is
completed to the full box by ``full_box`` from coeff(-k) = conj(coeff(k)).
``synthesize`` and ``analyze`` are the single-field forms of the same code.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

import numpy as np

#: Relative tolerance for the Hermitian-symmetry check at construction.
HERMITIAN_RTOL = 1e-10


def _as_components(k) -> tuple[int, ...]:
    if isinstance(k, (int, np.integer)):
        return (int(k),)
    return tuple(int(c) for c in k)


class _ModeGrids:
    """Cached |k|-power arrays over the (2N+1)^dim coefficient box."""

    __slots__ = ("ksq", "kmag", "k4")

    def __init__(self, dim, truncation):
        axis = np.arange(-truncation, truncation + 1, dtype=float)
        if dim == 1:
            ksq = axis**2
        else:
            kx, ky = np.meshgrid(axis, axis, indexing="ij")
            ksq = kx**2 + ky**2
        self.ksq = ksq
        self.kmag = np.sqrt(ksq)
        self.k4 = ksq**2
        for a in (self.ksq, self.kmag, self.k4):
            a.flags.writeable = False


@lru_cache(maxsize=None)
def mode_grids(dim: int, truncation: int) -> _ModeGrids:
    """Arrays of |k|^2, |k| and |k|^4 laid out like the coefficient box."""
    return _ModeGrids(dim, truncation)


def _flip(coeffs: np.ndarray, dim: int) -> np.ndarray:
    """View with k -> -k over the last ``dim`` axes."""
    return coeffs[(Ellipsis,) + (slice(None, None, -1),) * dim]


def _conj_flip(coeffs: np.ndarray, dim: int) -> np.ndarray:
    """conj(coeff(-k)) over the last ``dim`` axes."""
    return np.conj(_flip(coeffs, dim))


def check_coefficients(coeffs: np.ndarray, dim: int, truncation: int) -> None:
    """Raise ValueError unless every box in ``coeffs`` represents a real mean-zero field.

    ``coeffs`` holds one box, shape (2N+1,)*dim, or a batch with any leading
    axes.  Each box must be finite, have a vanishing zero mode and be
    Hermitian-symmetric to HERMITIAN_RTOL relative to max(1, its largest
    amplitude).
    """
    n = 2 * truncation + 1
    if coeffs.ndim < dim or coeffs.shape[coeffs.ndim - dim:] != (n,) * dim:
        raise ValueError(
            f"coefficient array has shape {coeffs.shape}, expected {(n,) * dim}"
            + (" per node" if coeffs.ndim > dim else "")
        )
    if not np.all(np.isfinite(coeffs)):
        raise ValueError("coefficients must all be finite")
    zero_mode = coeffs[(Ellipsis,) + (truncation,) * dim]
    if np.any(zero_mode != 0):
        bad = np.ravel(zero_mode)[np.flatnonzero(zero_mode)[0]]
        raise ValueError(f"zero mode must vanish (mean-zero reduction), got {bad}")
    box_axes = tuple(range(coeffs.ndim - dim, coeffs.ndim))
    scale = np.maximum(1.0, np.max(np.abs(coeffs), axis=box_axes))
    deviation = _conj_flip(coeffs, dim)
    deviation -= coeffs
    asym = np.max(np.abs(deviation), axis=box_axes)
    if np.any(asym > HERMITIAN_RTOL * scale):
        raise ValueError(
            f"coefficients are not Hermitian-symmetric (deviation {np.max(asym):.3e}); "
            "the represented function would not be real-valued"
        )


def place_modes(
    dim: int, truncation: int, nodes: int, node: np.ndarray, comps: np.ndarray, values
) -> np.ndarray:
    """Coefficient boxes for ``nodes`` nodes from (node, mode, amplitude) entries.

    ``comps`` has one row of integer components per entry.  A Hermitian
    partner -k that is not given is filled with conj(amplitude); one that is
    given must agree with it.  The zero mode may not carry a nonzero amplitude.
    Returns an array of shape (nodes,) + (2N+1,)*dim.
    """
    comps = np.asarray(comps, dtype=np.int64).reshape(-1, dim)
    values = np.asarray(values, dtype=complex).reshape(-1)
    node = np.asarray(node, dtype=np.int64).reshape(-1)
    outside = np.any(np.abs(comps) > truncation, axis=1)
    if np.any(outside):
        bad = tuple(int(c) for c in comps[np.argmax(outside)])
        raise ValueError(f"mode {bad} lies outside truncation {truncation}")
    zero = np.all(comps == 0, axis=1)
    if np.any(values[zero] != 0):
        raise ValueError("zero mode must vanish (mean-zero reduction)")
    comps, values, node = comps[~zero], values[~zero], node[~zero]
    shape = (nodes,) + (2 * truncation + 1,) * dim
    given = np.zeros(shape, dtype=complex)
    explicit = np.zeros(shape, dtype=bool)
    index = (node,) + tuple((comps + truncation).T)
    given[index] = values
    explicit[index] = True
    partner = _conj_flip(given, dim)
    partner_given = _flip(explicit, dim)
    clash = (
        explicit
        & partner_given
        & (np.abs(partner - given) > HERMITIAN_RTOL * np.maximum(1.0, np.abs(given)))
    )
    if np.any(clash):
        pos = np.argwhere(clash)[0][1:] - truncation
        k = tuple(int(c) for c in pos)
        raise ValueError(f"modes {k} and {tuple(-c for c in k)} are not conjugate partners")
    return np.where(explicit, given, partner)


def coeffs_from_entries(dim: int, truncation: int, entries_per_node) -> np.ndarray:
    """Inverse of ``mode_entries``: a ``(nodes,) + box`` batch from ``[k..., re, im]`` lists.

    ``entries_per_node`` is a sequence holding one list of entries per node;
    the numbers of all nodes are read into one table.  Hermitian partners may
    be omitted from the entries; ``place_modes`` restores them and rejects
    inconsistent ones.
    """
    width = dim + 2
    counts = []
    for entries in entries_per_node:
        if set(map(len, entries)) - {width}:
            bad = next(entry for entry in entries if len(entry) != width)
            raise ValueError(f"coefficient entry {bad} has wrong length for dim={dim}")
        counts.append(len(entries))
    numbers = chain.from_iterable(chain.from_iterable(entries_per_node))
    table = np.fromiter(numbers, float, sum(counts) * width).reshape(-1, width)
    node = np.repeat(np.arange(len(counts)), counts)
    values = np.ascontiguousarray(table[:, dim:]).view(complex).ravel()
    comps = table[:, :dim].astype(np.int64)
    return place_modes(dim, truncation, len(counts), node, comps, values)


def mode_entries(coeffs: np.ndarray, truncation: int) -> list[list[list]]:
    """Per node of a ``(nodes,) + box`` batch: ``[k..., re, im]`` for each nonzero mode.

    Modes are listed in lexicographic order of their components; this is the
    serialized form of a field's coefficients.
    """
    entries = []
    for node in coeffs:
        nonzero = np.nonzero(node)
        values = node[nonzero]
        ks = (np.stack(nonzero, axis=1) - truncation).tolist()
        re, im = values.real.tolist(), values.imag.tolist()
        entries.append([k + [a, b] for k, a, b in zip(ks, re, im)])
    return entries


@dataclass(frozen=True, eq=False)
class FourierField:
    """Truncated Fourier coefficients of a real mean-zero function on T^n.

    Attributes:
        dim: spatial dimension, 1 or 2
        truncation: box radius N; modes with max-norm |k_i| <= N are stored
        coeffs: complex array of shape (2N+1,)*dim, index i -> k_i = i - N;
            immutable after construction
    """

    dim: int
    truncation: int
    coeffs: np.ndarray

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if not isinstance(self.truncation, (int, np.integer)) or self.truncation < 1:
            raise ValueError(f"truncation must be a positive integer, got {self.truncation}")
        coeffs = np.ascontiguousarray(self.coeffs, dtype=complex)
        if coeffs.ndim != self.dim:
            n = 2 * self.truncation + 1
            raise ValueError(
                f"coefficient array has shape {coeffs.shape}, expected {(n,) * self.dim}"
            )
        check_coefficients(coeffs, self.dim, int(self.truncation))
        coeffs.flags.writeable = False
        object.__setattr__(self, "truncation", int(self.truncation))
        object.__setattr__(self, "coeffs", coeffs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def _trusted(cls, dim: int, truncation: int, coeffs: np.ndarray) -> "FourierField":
        """A field over a read-only box that its owner has already validated.

        Skips every check: for node views of a validated trajectory only.
        """
        field = object.__new__(cls)
        object.__setattr__(field, "dim", dim)
        object.__setattr__(field, "truncation", truncation)
        object.__setattr__(field, "coeffs", coeffs)
        return field

    @classmethod
    def zero(cls, dim: int, truncation: int) -> "FourierField":
        n = 2 * truncation + 1
        return cls(dim, truncation, np.zeros((n,) * dim, dtype=complex))

    @classmethod
    def from_modes(cls, dim: int, truncation: int, modes) -> "FourierField":
        """Build a field from {k: amplitude}, filling Hermitian partners.

        Each key k is an int (1-d) or a tuple of ``dim`` ints.  A partner -k
        given explicitly must agree with conj(coeff(k)); the zero mode may not
        carry a nonzero amplitude.
        """
        explicit = {}
        for k, a in dict(modes).items():
            comps = _as_components(k)
            if len(comps) != dim:
                raise ValueError(f"mode {comps} has wrong dimension for dim={dim}")
            explicit[comps] = complex(a)
        coeffs = place_modes(
            dim,
            truncation,
            1,
            np.zeros(len(explicit), dtype=np.int64),
            list(explicit.keys()),
            list(explicit.values()),
        )
        return cls(dim, truncation, coeffs[0])

    # -- access ------------------------------------------------------------

    def coeff(self, k) -> complex:
        """Coefficient at mode ``k``, an int (1-d) or a tuple of ``dim`` ints."""
        comps = _as_components(k)
        if len(comps) != self.dim:
            raise ValueError(f"mode {comps} has wrong dimension for dim={self.dim}")
        if any(abs(c) > self.truncation for c in comps):
            raise ValueError(f"mode {comps} outside truncation {self.truncation}")
        return complex(self.coeffs[tuple(c + self.truncation for c in comps)])

    def nonzero_modes(self):
        """(components, amplitude) pairs for nonzero modes, lexicographic order."""
        idx = np.argwhere(self.coeffs != 0)
        out = []
        for pos in idx:
            comps = tuple(int(p) - self.truncation for p in pos)
            out.append((comps, complex(self.coeffs[tuple(pos)])))
        out.sort(key=lambda item: item[0])
        return out

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.coeffs)))

    # -- arithmetic (pure; results are new fields) --------------------------

    def _check_compatible(self, other: "FourierField"):
        if self.dim != other.dim or self.truncation != other.truncation:
            raise ValueError(
                f"incompatible fields: dim/truncation ({self.dim},{self.truncation}) "
                f"vs ({other.dim},{other.truncation})"
            )

    def __add__(self, other):
        self._check_compatible(other)
        return FourierField(self.dim, self.truncation, self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._check_compatible(other)
        return FourierField(self.dim, self.truncation, self.coeffs - other.coeffs)

    def __neg__(self):
        return FourierField(self.dim, self.truncation, -self.coeffs)

    def __mul__(self, scalar):
        s = float(scalar)
        return FourierField(self.dim, self.truncation, self.coeffs * s)

    __rmul__ = __mul__

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        """JSON form: {"dim", "truncation", "coeffs": [[k..., re, im], ...]}."""
        entries = mode_entries(self.coeffs[None], self.truncation)[0]
        return {"dim": self.dim, "truncation": self.truncation, "coeffs": entries}

    @classmethod
    def from_json_dict(cls, data: dict) -> "FourierField":
        dim = int(data["dim"])
        truncation = int(data["truncation"])
        return cls(dim, truncation, coeffs_from_entries(dim, truncation, [data["coeffs"]])[0])


def _apply_multiplier(field: FourierField, multiplier: np.ndarray) -> FourierField:
    coeffs = field.coeffs * multiplier
    coeffs[(field.truncation,) * field.dim] = 0.0  # keep the zero mode exactly zero
    return FourierField(field.dim, field.truncation, coeffs)


def laplacian(field: FourierField) -> FourierField:
    """Multiply each mode by -|k|^2."""
    return _apply_multiplier(field, -mode_grids(field.dim, field.truncation).ksq)


def bilaplacian_neg(field: FourierField) -> FourierField:
    """Multiply each mode by -|k|^4 (the leading dissipative operator)."""
    return _apply_multiplier(field, -mode_grids(field.dim, field.truncation).k4)


# -- physical grid ----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GridField:
    """Real samples on the uniform M^dim grid x_j = 2*pi*j/M over [0, 2*pi)^dim."""

    dim: int
    samples: np.ndarray

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        samples = np.ascontiguousarray(self.samples, dtype=float)
        if samples.ndim != self.dim:
            raise ValueError(f"samples must be {self.dim}-dimensional, got shape {samples.shape}")
        if self.dim == 2 and samples.shape[0] != samples.shape[1]:
            raise ValueError(f"grid must be square, got shape {samples.shape}")
        if samples.shape[0] < 1:
            raise ValueError("grid must contain at least one point")
        if not np.all(np.isfinite(samples)):
            raise ValueError("grid samples must all be finite")
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)


def default_grid_size(truncation: int) -> int:
    """Next power of two >= 2(N+1); always satisfies the 2N+1 floor."""
    return 1 << (2 * truncation + 1).bit_length()


def _check_resolution(m: int, truncation: int) -> None:
    if m < 2 * truncation + 1:
        raise ValueError(
            f"grid resolution {m} is too small for truncation {truncation}; "
            f"need at least {2 * truncation + 1}"
        )


@lru_cache(maxsize=None)
def _half_index(dim: int, truncation: int, m: int) -> tuple:
    """Index of the k_last >= 0 half boxes inside a batch of M^dim ``rfftn`` spectra."""
    last = slice(0, truncation + 1)
    if dim == 1:
        return (slice(None), last)
    rows = np.arange(-truncation, truncation + 1) % m
    return (slice(None), rows, last)


def hermitian_k0_line(half: np.ndarray) -> None:
    """Make the k_last = 0 line of every half box exactly Hermitian, in place.

    ``half`` is a ``(nodes,) + (2N+1,)*(dim-1) + (N+1,)`` batch of half boxes.
    On that line -k is also in the half box: the entries with a negative
    leading component are overwritten by conj(coeff(-k)), and the zero mode
    is set to 0.
    """
    truncation = half.shape[-1] - 1
    line = half[..., 0]
    if line.ndim > 1:
        line[:, :truncation] = np.conj(line[:, : truncation : -1])
    line[(slice(None),) + (truncation,) * (line.ndim - 1)] = 0.0


def full_box(half: np.ndarray) -> np.ndarray:
    """The ``(nodes,) + box`` batch whose k_last >= 0 half is ``half``.

    Every other coefficient is written as conj(coeff(-k)) of the half box
    (see ``hermitian_k0_line`` for the k_last = 0 line), so each box is
    exactly Hermitian with a vanishing zero mode.
    """
    dim = half.ndim - 1
    truncation = half.shape[-1] - 1
    out = np.empty(half.shape[:-1] + (2 * truncation + 1,), dtype=complex)
    out[..., truncation:] = half
    hermitian_k0_line(out[..., truncation:])
    out[..., :truncation] = np.conj(_flip(out, dim)[..., :truncation])
    return out


def synthesize_half(half: np.ndarray, m: int) -> np.ndarray:
    """sum_k coeff(k) exp(i k.x) on the M^dim grid for every half box of a batch.

    One unscaled ``irfftn`` over the trailing axes; M >= 2N+1 is the caller's
    to check.  The output is real by construction: the negative half of the
    last axis is implied by Hermitian symmetry and never read.
    """
    dim = half.ndim - 1
    truncation = half.shape[-1] - 1
    spectrum = np.zeros((half.shape[0],) + (m,) * (dim - 1) + (m // 2 + 1,), dtype=complex)
    spectrum[_half_index(dim, truncation, m)] = half
    if dim == 1:  # irfftn's n-d argument handling costs more than the 1-D transform
        return np.fft.irfft(spectrum, m, norm="forward")
    return np.fft.irfftn(spectrum, s=(m, m), axes=(1, 2), norm="forward")


def analyze_half(samples: np.ndarray, truncation: int) -> tuple[np.ndarray, np.ndarray]:
    """Unscaled half-box coefficients and zero modes of a ``(nodes,) + (M,)*dim`` batch.

    One ``rfftn`` over the trailing axes; both results are M^dim times the
    true coefficients, so a caller can fold that factor into a multiplier.
    """
    dim = samples.ndim - 1
    spectrum = np.fft.rfft(samples) if dim == 1 else np.fft.rfftn(samples, axes=(1, 2))
    half = spectrum[_half_index(dim, truncation, samples.shape[1])]
    return half, spectrum[(slice(None),) + (0,) * dim].real


def synthesize_batch(coeffs: np.ndarray, m: int) -> np.ndarray:
    """Real samples on the M^dim grid for every box of a ``(nodes,) + box`` batch.

    One inverse real FFT of the k_last >= 0 half boxes (``synthesize_half``);
    the samples are real by construction, so there is no imaginary residue
    to check or discard.
    """
    truncation = (coeffs.shape[1] - 1) // 2
    _check_resolution(m, truncation)
    return synthesize_half(coeffs[..., truncation:], m)


def analyze_batch(samples: np.ndarray, truncation: int) -> tuple[np.ndarray, np.ndarray]:
    """Box coefficients and means of every node of a ``(nodes,) + (M,)*dim`` sample batch.

    One forward real FFT over the trailing axes (``analyze_half``).  The zero
    mode is split off as the mean, and the rest of the box is rebuilt from
    the half spectrum by ``full_box``, so every box is exactly Hermitian.
    """
    dim = samples.ndim - 1
    m = samples.shape[1]
    _check_resolution(m, truncation)
    half, zero_modes = analyze_half(samples, truncation)
    scale = m**dim
    return full_box(half / scale), zero_modes / scale


def synthesize(field: FourierField, grid_points_per_dim: int | None = None) -> GridField:
    """Evaluate sum_k coeff(k) exp(i k.x) on a uniform grid.

    Parameters
    ----------
    field:
        The coefficients to synthesize.
    grid_points_per_dim:
        Grid resolution M; defaults to the next power of two >= 2(N+1).
        Must satisfy M >= 2N+1 so synthesis is alias-free.

    Returns
    -------
    GridField with real samples, from one inverse real FFT of the half box
    k_last >= 0 (``synthesize_batch``).
    """
    n = field.truncation
    m = default_grid_size(n) if grid_points_per_dim is None else int(grid_points_per_dim)
    return GridField(field.dim, synthesize_batch(field.coeffs[None], m)[0])


def analyze(grid: GridField, truncation: int) -> tuple[FourierField, float]:
    """Discrete Fourier coefficients of the samples, restricted to the box.

    Returns the mean-zero field together with the discarded mean (the zero
    mode of the samples), which the caller may want for diagnostics.
    """
    n = int(truncation)
    if n < 1:
        raise ValueError(f"truncation must be a positive integer, got {truncation}")
    coeffs, means = analyze_batch(grid.samples[None], n)
    return FourierField(grid.dim, n, coeffs[0]), float(means[0])


def embed(field: FourierField, truncation: int) -> FourierField:
    """Re-express a field in a larger coefficient box (zero padding)."""
    n = int(truncation)
    if n < field.truncation:
        raise ValueError(
            f"cannot embed truncation {field.truncation} into smaller box {n}"
        )
    if n == field.truncation:
        return field
    size = 2 * n + 1
    coeffs = np.zeros((size,) * field.dim, dtype=complex)
    lo, hi = n - field.truncation, n + field.truncation + 1
    coeffs[(slice(lo, hi),) * field.dim] = field.coeffs
    return FourierField(field.dim, n, coeffs)


def multiply(f: FourierField, g: FourierField) -> tuple[FourierField, float]:
    """Pointwise product of two fields, exact in the combined truncation.

    The product of trigonometric polynomials with boxes N_f and N_g lives in
    the box N_f + N_g; the grid is sized so no aliasing occurs.  Returns the
    mean-zero part of the product and its mean.
    """
    if f.dim != g.dim:
        raise ValueError(f"dimension mismatch: {f.dim} vs {g.dim}")
    n_out = f.truncation + g.truncation
    m = default_grid_size(n_out)
    a = synthesize(f, m).samples
    b = synthesize(g, m).samples
    return analyze(GridField(f.dim, a * b), n_out)
