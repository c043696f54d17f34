"""Lattice bookkeeping, the coefficient half box and its transforms on the torus.

Real mean-zero fields on T^n (n in {1, 2}) are truncated Fourier series over
the modes k with max-norm |k_i| <= N.  The coefficient convention is

    coeff(k) = (2*pi)^(-n) * integral of h(x) exp(-i k.x) dx,

so that cos(x) decomposes into the two coefficients {+1: 1/2, -1: 1/2}.
Realness of the represented function is the Hermitian symmetry
coeff(-k) == conj(coeff(k)); the zero mode is identically zero (the mean is
conserved by the evolution and is factored out of every representation).

Because the fields are real, only the half box k_last >= 0, shape
(2N+1,)*(dim-1) + (N+1,), carries information (the r2c half spectrum of
Frigo & Johnson, Proc. IEEE 93, 2005), and it is the one layout: a
``FourierField``, a trajectory's nodes, the files and the solvers all hold
half boxes, checked by ``check_half``.  Index i is k = i - N along a leading
axis and k_last = i along the last; on the k_last = 0 line -k is in the half
box too, and ``hermitian_k0_line`` makes it exact.

The physical-space side is a uniform M^n grid over [0, 2*pi)^n; synthesis
and analysis are exact inverses of each other whenever M >= 2N + 1.  They
work on batches of half boxes in the one real layout of ``as_parts``, which
the stepper marches in too.  In 1-D they are the real-FFT pair.  In 2-D
numpy's FFT runs one short line at a time, M + N + 1 lines a node each way,
so there they are real DFT products instead, two per node each way, on the
matrices of ``dft_matrices``, built once per (N, M); the exponential route
of ``nonlinear`` takes the same matrices.  Each node gets its own product,
so its bits do not depend on the batch it is summed in.  The split is by
dimension, not size: in 1-D per-node products lose to the real FFT, by more
as N grows.  The |k|-power arrays that every multiplier is built from come
from ``mode_grids``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

#: Relative tolerance for the Hermitian-symmetry check at construction.
HERMITIAN_RTOL = 1e-10

#: A pass over a trajectory in row blocks (the Duhamel operator's interval
#: terms, the spacetime norm's log-amplitude table) holds temporaries of at
#: most this many elements, or of one node where a node holds more.  A 1-D
#: trajectory of 501 nodes at N = 16 stays one block, and so does a 2-D one
#: of 101 nodes: in blocks of 8 nodes, that 1-D Picard solve took 38-61 ms
#: against 20-34 ms, from the Python work of each block.
_BLOCK_ELEMENTS = 1 << 16


def _as_components(k) -> tuple[int, ...]:
    if isinstance(k, (int, np.integer)):
        return (int(k),)
    return tuple(int(c) for c in k)


class _ModeGrids:
    """Cached |k|-power arrays over the half box, and ``pairs``, the modes an
    entry stands for: 2 off the k_last = 0 line, else 1."""

    __slots__ = ("ksq", "kmag", "k4", "pairs")

    def __init__(self, dim, truncation):
        axis = np.arange(-truncation, truncation + 1, dtype=float)
        last = axis[truncation:]
        if dim == 1:
            ksq = last**2
        else:
            kx, ky = np.meshgrid(axis, last, indexing="ij")
            ksq = kx**2 + ky**2
        self.ksq = read_only(ksq)
        self.kmag = read_only(np.sqrt(ksq))
        self.k4 = read_only(ksq**2)
        self.pairs = np.broadcast_to(np.where(last == 0, 1.0, 2.0), ksq.shape)


@lru_cache(maxsize=None)
def mode_grids(dim: int, truncation: int) -> _ModeGrids:
    """Arrays of |k|^2, |k| and |k|^4 laid out like the half box."""
    return _ModeGrids(dim, truncation)


def _flip(coeffs: np.ndarray, dim: int) -> np.ndarray:
    """View with k -> -k over the last ``dim`` axes."""
    return coeffs[(Ellipsis,) + (slice(None, None, -1),) * dim]


def read_only(array: np.ndarray) -> np.ndarray:
    """``array``, made read-only: how the package hands over an array it made."""
    array.setflags(write=False)  # ``flags.writeable = False`` keeps an allocation alive
    return array


def sealed(values, dtype) -> np.ndarray:
    """``values`` as a read-only C-contiguous ``dtype`` array that no caller can write:
    taken as it is if it owns its data and is read-only already (handed over
    by ``read_only``), else copied (a view of a caller's array, say)."""
    owned = isinstance(values, np.ndarray) and values.flags.owndata and values.flags.c_contiguous
    if not owned or values.flags.writeable or values.dtype != dtype:
        values = read_only(np.array(values, dtype=dtype, order="C"))
    return values


def check_half(half: np.ndarray) -> None:
    """Raise ValueError unless every half box in ``half`` is that of a real mean-zero field.

    ``half`` is a ``(nodes,) + (2N+1,)*(dim-1) + (N+1,)`` batch.  Each half box
    must be finite, have a vanishing zero mode, and have a k_last = 0 line
    Hermitian to HERMITIAN_RTOL relative to max(1, its largest amplitude).
    """
    dim = half.ndim - 1
    if dim not in (1, 2) or half.shape[-1] < 2 or (
        half.shape[1:-1] != (2 * half.shape[-1] - 1,) * (dim - 1)
    ):
        raise ValueError(
            f"coefficient array of shape {half.shape} is not a batch of half boxes "
            "(nodes,) + (2N+1,)*(dim-1) + (N+1,)"
        )
    truncation = half.shape[-1] - 1
    if not np.all(np.isfinite(half)):
        raise ValueError("coefficients must all be finite")
    zero_mode = half[(slice(None),) + (truncation,) * (dim - 1) + (0,)]
    if np.any(zero_mode != 0):
        bad = zero_mode[np.flatnonzero(zero_mode)[0]]
        raise ValueError(f"zero mode must vanish (mean-zero reduction), got {bad}")
    line = half[..., 0]
    asym = np.max(np.abs(np.conj(_flip(line, dim - 1)) - line), axis=tuple(range(1, dim)))
    scale = np.maximum(1.0, np.max(np.abs(half), axis=tuple(range(1, dim + 1))))
    if np.any(asym > HERMITIAN_RTOL * scale):
        raise ValueError(
            f"coefficients are not Hermitian-symmetric (deviation {np.max(asym):.3e}); "
            "the represented function would not be real-valued"
        )


def place_modes(dim: int, truncation: int, comps, values) -> np.ndarray:
    """Half boxes, (nodes,) + (2N+1,)*(dim-1) + (N+1,), from one list of modes.

    ``comps`` has one row of integer components per listed mode, and
    ``values`` one row per node with one amplitude per listed mode.  A
    fractional component is refused, never truncated, and so are a mode
    listed twice, a mode outside the box and a nonzero zero mode.  Each mode
    goes to its written-half representative (``_written_half``): k itself,
    or -k with conj(amplitude).  A partner listed beside it must agree with
    it, and the written one is kept.  ``hermitian_k0_line`` fills the rest
    of the k_last = 0 line.
    """
    table = np.asarray(comps, dtype=float).reshape(-1, dim)
    fractional = ~np.isfinite(table) | (table != np.round(table))
    if np.any(fractional):
        row = table[np.argmax(np.any(fractional, axis=1))]
        raise ValueError(f"mode {tuple(row.tolist())} has a component that is not an integer")
    outside = np.any(np.abs(table) > truncation, axis=1)
    if np.any(outside):
        bad = tuple(int(c) for c in table[np.argmax(outside)])
        raise ValueError(f"mode {bad} lies outside truncation {truncation}")
    comps = table.astype(np.int64)
    values = np.asarray(values, dtype=complex)
    if np.any(values[:, np.all(comps == 0, axis=1)] != 0):
        raise ValueError("zero mode must vanish (mean-zero reduction)")
    n = 2 * truncation + 1
    # flat box positions; k -> -k flips every axis, which maps f to n^dim - 1 - f
    flat = np.ravel_multi_index(tuple((comps + truncation).T), (n,) * dim)
    column = np.full(n**dim, -1)
    column[flat] = np.arange(flat.size)
    if np.count_nonzero(column >= 0) != flat.size:
        raise ValueError("a mode is given more than once")
    partner = column[n**dim - 1 - flat]
    paired = partner >= 0
    given = values[:, paired]
    gap = np.abs(np.conj(values[:, partner[paired]]) - given)
    clash = gap > HERMITIAN_RTOL * np.maximum(1.0, np.abs(given))
    if np.any(clash):
        k = comps[paired][np.argmax(np.any(clash, axis=0))]
        raise ValueError(
            f"modes {tuple(k.tolist())} and {tuple((-k).tolist())} are not conjugate partners"
        )
    # -k is written for k_last < 0, and on the k_last = 0 line for a negative leading component
    flip = (comps[:, -1] < 0) | ((comps[:, -1] == 0) & (comps[:, 0] < 0))
    written = np.where(flip[:, None], -comps, comps) + ([truncation] * (dim - 1) + [0])
    shape = (n,) * (dim - 1) + (truncation + 1,)
    position = np.ravel_multi_index(tuple(written.T), shape)
    out = np.zeros((values.shape[0],) + shape, dtype=complex)
    flat = out.reshape(values.shape[0], -1)  # a view: out keeps its own data
    flat[:, position[flip]] = np.conj(values[:, flip])
    flat[:, position[~flip]] = values[:, ~flip]  # of a listed pair, the written mode is kept
    hermitian_k0_line(out)
    return read_only(out)  # a Trajectory takes it without a copy


def as_int(value) -> int:
    """``value`` if it is an integer or integral number such as 16.0; 8.7 and true are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError("expected an integer")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError("expected an integer")
    return int(value)


def box_header(data: dict) -> tuple[int, int]:
    """``dim`` and ``truncation`` of a serialized field or trajectory, refused
    (never truncated) unless both are integers and ``dim`` is 1 or 2."""
    try:
        dim, truncation = as_int(data["dim"]), as_int(data["truncation"])
    except (TypeError, ValueError) as err:
        got = f"{data['dim']!r} and {data['truncation']!r}"
        raise ValueError(f"dim and truncation must be integers, got {got}") from err
    if dim not in (1, 2):
        raise ValueError(f"dim must be 1 or 2, got {dim}")
    return dim, truncation


def _check_numbers(rows, what: str) -> None:
    """Raise ValueError naming the first of ``rows`` that holds anything but JSON
    numbers: a string such as "1" or a bool is refused, never converted."""
    bad = next((row for row in rows if not all(type(v) in (int, float) for v in row)), None)
    if bad is not None:
        raise ValueError(f"{what} {bad} must hold JSON numbers only")


def coeffs_from_entries(dim: int, truncation: int, entries) -> np.ndarray:
    """One half box from the ``[k..., re, im]`` entries of ``FourierField.to_json_dict``.

    Hermitian partners may be omitted; ``place_modes`` places each mode,
    rejects inconsistent partners and completes the k_last = 0 line.
    """
    width = dim + 2
    bad = next((entry for entry in entries if len(entry) != width), None)
    if bad is not None:
        raise ValueError(f"coefficient entry {bad} has wrong length for dim={dim}")
    _check_numbers(entries, "coefficient entry")
    table = np.array(entries, dtype=float).reshape(-1, width)
    values = np.ascontiguousarray(table[:, dim:]).view(complex).T  # one node's row
    return place_modes(dim, truncation, table[:, :dim], values)[0]


def coeffs_from_packed(dim: int, truncation: int, nodes: int, modes, tables) -> np.ndarray:
    """Inverse of ``packed_modes``: a batch of half boxes from one mode list.

    ``modes`` holds ``[k...]`` per listed mode, and ``tables`` must be the
    float64 array of shape (2, nodes, len(modes)).
    """
    comps = np.array(modes, dtype=float)
    if comps.shape != (len(modes), dim) and len(modes):
        raise ValueError(f"modes must list [k...] with {dim} integer components each")
    _check_numbers(modes, "mode")
    shape = (2, nodes, len(modes))
    if not isinstance(tables, np.ndarray) or tables.dtype != np.dtype("<f8"):
        found = getattr(tables, "dtype", type(tables).__name__)
        raise ValueError(f"tables must be a little-endian float64 array, got {found}")
    if tables.shape != shape:
        raise ValueError(
            f"tables have shape {tables.shape}, expected {shape}: re and im, one row per "
            "time node and one number per listed mode"
        )
    values = np.empty(shape[1:], dtype=complex)
    values.real, values.imag = tables
    return place_modes(dim, truncation, comps, values)


@lru_cache(maxsize=None)
def _written_half(dim: int, truncation: int) -> np.ndarray:
    """Mask over the k_last >= 0 half box of the modes a serialized field may list.

    One mode of each Hermitian pair: k_last > 0, and on the k_last = 0 line
    those whose leading component is positive (in 1-D, k > 0).  Index i is
    k = i - N along a leading axis and k_last = i along the last.
    """
    keep = np.ones((2 * truncation + 1,) * (dim - 1) + (truncation + 1,), dtype=bool)
    keep[(slice(truncation + 1),) * (dim - 1) + (0,)] = False
    return read_only(keep)


def packed_modes(half: np.ndarray) -> tuple[list, np.ndarray]:
    """The written modes of a batch of half boxes, once, and their tables.

    Only one mode of each Hermitian pair is written (``_written_half``), and
    only if it is nonzero at some node; modes are listed in lexicographic
    order.  The tables are one little-endian float64 array of shape
    (2, nodes, len(modes)): real parts, then imaginary parts.  The reader
    restores the rest of the k_last = 0 line as conj(coeff(-k))
    (``coeffs_from_packed``), so a half box with an exactly Hermitian line
    reads back equal; one Hermitian only to HERMITIAN_RTOL reads back as the
    completion of its written modes.
    """
    dim, truncation = half.ndim - 1, half.shape[-1] - 1
    written = np.nonzero(np.any(half != 0, axis=0) & _written_half(dim, truncation))
    values = half[(slice(None),) + written]
    # index i is k = i - N along a leading axis and k_last = i along the last
    modes = np.stack(written, axis=1) - np.array([truncation] * (dim - 1) + [0])
    # C-contiguous: numpy writes a strided array to a file element by element
    tables = np.stack((values.real, values.imag), out=np.empty((2,) + values.shape, "<f8"))
    return modes.tolist(), tables


@dataclass(frozen=True, eq=False)
class FourierField:
    """Truncated Fourier coefficients of a real mean-zero function on T^n.

    Attributes:
        dim: spatial dimension, 1 or 2
        truncation: box radius N; modes with max-norm |k_i| <= N are kept
        coeffs: complex k_last >= 0 half box, shape (2N+1,)*(dim-1) + (N+1,),
            index i -> k = i - N along a leading axis and k_last = i along the
            last; coeff(-k) is conj(coeff(k)); immutable after construction
    """

    dim: int
    truncation: int
    coeffs: np.ndarray

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if not isinstance(self.truncation, (int, np.integer)) or self.truncation < 1:
            raise ValueError(f"truncation must be a positive integer, got {self.truncation}")
        truncation = int(self.truncation)
        coeffs = sealed(self.coeffs, complex)
        expected = (2 * truncation + 1,) * (self.dim - 1) + (truncation + 1,)
        if coeffs.shape != expected:
            raise ValueError(f"coefficient array has shape {coeffs.shape}, expected {expected}")
        check_half(coeffs[None])
        object.__setattr__(self, "truncation", truncation)
        object.__setattr__(self, "coeffs", coeffs)

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
        half = place_modes(dim, truncation, list(explicit), [list(explicit.values())])
        return cls(dim, truncation, half[0])

    def __mul__(self, scalar):
        s = float(scalar)
        return FourierField(self.dim, self.truncation, self.coeffs * s)

    __rmul__ = __mul__

    def to_json_dict(self) -> dict:
        """JSON form: {"dim", "truncation", "coeffs": [[k..., re, im], ...]}.

        ``coeffs`` lists the written modes of ``packed_modes``: one mode of each
        Hermitian pair, if nonzero, in lexicographic order.
        """
        modes, tables = packed_modes(self.coeffs[None])
        re, im = tables[:, 0].tolist()
        entries = [k + [a, b] for k, a, b in zip(modes, re, im)]
        return {"dim": self.dim, "truncation": self.truncation, "coeffs": entries}

    @classmethod
    def from_json_dict(cls, data: dict) -> "FourierField":
        dim, truncation = box_header(data)
        return cls(dim, truncation, coeffs_from_entries(dim, truncation, data["coeffs"]))


# -- physical grid ----------------------------------------------------------


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


def block_rows(batch: np.ndarray) -> int:
    """Nodes of ``batch`` per row block of at most ``_BLOCK_ELEMENTS`` elements: at least one."""
    return max(1, _BLOCK_ELEMENTS // batch[0].size)


def parts_view(half: np.ndarray) -> np.ndarray:
    """A float view of a C-contiguous complex half-box batch in the layout of
    ``as_parts``: ``(nodes, 2(N+1))`` in 1-D, and ``(nodes, 2, 2N+1, N+1)``
    in 2-D, whose strides cannot merge the layout's ``2(2N+1)`` rows into
    one axis."""
    floats = half.view(float)
    if half.ndim == 2:
        return floats
    return floats.reshape(half.shape + (2,)).transpose(0, 3, 1, 2)


def as_parts(half: np.ndarray) -> np.ndarray:
    """A new real array of a complex half-box batch, in the package's one real layout.

    In 1-D it is ``(nodes, 2(N+1))``, each box's real and imaginary parts
    interleaved: the float view of the boxes.  In 2-D it is
    ``(nodes, 2(2N+1), N+1)``, each box's real parts stacked over its
    imaginary ones along the leading axis, which ``lead_in`` reads.
    """
    half = np.ascontiguousarray(half, dtype=complex)
    return np.array(parts_view(half)).reshape((len(half), -1) + half.shape[2:])


def tile_parts(grid: np.ndarray) -> np.ndarray:
    """A real per-mode array over the half box (``|k|^4``, say) laid over both
    parts of the layout of ``as_parts``, as a batch of one box.

    Its shape is a one-box state's, so a product with one needs no
    broadcasting, which cost about 0.7 µs more a product in 1-D at N = 16.
    """
    if grid.ndim == 1:
        return np.repeat(grid, 2)[None]
    return np.concatenate((grid, grid))[None]


def hermitian_k0_parts(parts: np.ndarray) -> None:
    """``hermitian_k0_line`` on a batch in the layout of ``as_parts``, in place.

    In 1-D the k_last = 0 line is the zero mode alone, the first two floats
    of a box.  In 2-D the line is column 0 of the real rows and of the
    imaginary ones.
    """
    if parts.ndim == 2:
        parts[:, :2] = 0.0
        return
    truncation = parts.shape[-1] - 1
    line = parts[..., 0]
    real, imag = line[:, : 2 * truncation + 1], line[:, 2 * truncation + 1 :]
    real[:, :truncation] = real[:, : truncation : -1]
    np.negative(imag[:, : truncation : -1], out=imag[:, :truncation])
    real[:, truncation] = imag[:, truncation] = 0.0


def _waves(modes: np.ndarray, m: int) -> np.ndarray:
    """exp(-i k x_j) for each grid point x_j = 2 pi j / M (rows) and mode k (columns).

    The phase k j is reduced modulo M in integers first, as 2 pi ((k j) mod M) / M,
    so every phase lies in [0, 2 pi) and a high mode's waves are as accurate as
    a low one's.
    """
    return np.exp(-2j * np.pi * (np.outer(np.arange(m), modes) % m) / m)


def _as_real(waves: np.ndarray) -> np.ndarray:
    """The real matrix of the product by complex ``waves``, on real parts stacked
    over imaginary parts; the result interleaves them by row.

    Row 2a of ``_as_real(w) @ [x.real; x.imag]`` is the real part of row a of
    w x, and row 2a+1 its imaginary part.  The transpose is the product by the
    conjugate transpose of ``waves``, from interleaved rows to stacked parts.
    """
    re, im = waves.real, waves.imag
    return np.stack([np.hstack([re, -im]), np.hstack([im, re])], axis=1).reshape(2 * len(waves), -1)


@lru_cache(maxsize=None)
def dft_matrices(truncation: int, m: int) -> tuple:
    """The real DFT matrices between 2-D half boxes and the M x M grid, built once
    per (N, M): ``(lead_in, lead_out, trail_in, trail_out)``, all read-only.

    Along the last axis, ``trail_in`` takes the N+1 half-box columns, real
    parts stacked over imaginary ones, to the M grid points, summing each
    k_last > 0 column with its conjugate partner (weight 2, the real part
    taken); ``trail_out`` takes M grid points back to those parts, unscaled.
    Along the leading axis, ``lead_in`` (``_as_real`` of exp(i k x)) takes the
    2N+1 rows k = -N..N, real parts stacked over imaginary ones, to the M grid
    rows with the parts interleaved, and ``lead_out``, its transpose, takes
    them back.  ``synthesize``, ``analyze`` and the exponential route of
    ``nonlinear`` share them.
    """
    last = np.arange(truncation + 1)
    waves = _waves(last, m)
    into = np.where(last == 0, 1.0, 2.0) * waves
    trail_in = np.concatenate((into.real.T, into.imag.T))
    trail_out = np.hstack((waves.real, waves.imag))
    lead = _as_real(np.conj(_waves(np.arange(-truncation, truncation + 1), m)))
    matrices = (lead, np.ascontiguousarray(lead.T), trail_in, trail_out)
    return tuple(read_only(matrix) for matrix in matrices)


def synthesize(parts: np.ndarray, m: int) -> np.ndarray:
    """sum_k coeff(k) exp(i k.x) on the M^dim grid for every half box of a batch
    in the layout of ``as_parts``.

    Unscaled; M >= 2N+1 is the caller's to check.  The output is real by
    construction: the negative half of the last axis is implied by Hermitian
    symmetry and never read.  In 1-D this is the inverse real FFT.  In 2-D
    each node takes two real products with ``dft_matrices``, the leading
    axis first; numpy's stacked ``matmul`` makes one product per node, so a
    node's bits do not depend on the batch it is in.
    """
    if parts.ndim == 2:
        return np.fft.irfft(parts.view(complex), m, norm="forward")
    lead_in, _, trail_in, _ = dft_matrices(parts.shape[-1] - 1, m)
    return (lead_in @ parts).reshape(len(parts), m, -1) @ trail_in


def analyze(samples: np.ndarray, truncation: int) -> np.ndarray:
    """Unscaled half-box coefficients of a ``(nodes,) + (M,)*dim`` batch in the
    layout of ``as_parts``: M^dim times the true ones, Hermitian on the
    k_last = 0 line only to roundoff (``hermitian_k0_parts`` makes it exact).

    In 1-D this is the forward real FFT, its first N+1 columns viewed as
    floats.  In 2-D each node takes two real products with ``dft_matrices``,
    the last axis first, one product per node as in ``synthesize``.
    """
    if samples.ndim == 2:
        return np.fft.rfft(samples)[:, : truncation + 1].view(float)
    _, lead_out, _, trail_out = dft_matrices(truncation, samples.shape[1])
    return lead_out @ (samples @ trail_out).reshape(len(samples), -1, truncation + 1)


def embed(field: FourierField, truncation: int) -> FourierField:
    """Re-express a field in a larger coefficient box (zero padding)."""
    n = int(truncation)
    if n < field.truncation:
        raise ValueError(
            f"cannot embed truncation {field.truncation} into smaller box {n}"
        )
    if n == field.truncation:
        return field
    coeffs = np.zeros((2 * n + 1,) * (field.dim - 1) + (n + 1,), dtype=complex)
    lo, hi = n - field.truncation, n + field.truncation + 1
    coeffs[(slice(lo, hi),) * (field.dim - 1) + (slice(field.truncation + 1),)] = field.coeffs
    return FourierField(field.dim, n, coeffs)
