"""Command-line orchestration: configuration, run modes, artifact emission.

Usage:
    epitaxy <mode> --config <path> [--alpha <f>] [--out <dir>] [--seed <u64>]
            [--override-certificate]

Modes: solve, certify, probe-operator, sweep, compare, radius.  Exit codes:
0 success, 2 validation error, 3 certificate failure without override,
4 numerical failure.  ``solve``, ``probe-operator``, and ``sweep`` with
``solve: true``, are refused up front (exit 2) when the trajectories they
would hold exceed the machine's physical memory; every initial field is sized
the same way before it is built.  One table per config section (the schema
below) gives each key its type, default and range; an unknown key, a value
of the wrong type or out of range, and an output directory that cannot be
created are refused (exit 2) with the key or directory named.

Artifacts are JSON and CSV, plus the ``.npy`` tables of each trajectory,
named with their sha256 digest by its JSON manifest.  Every JSON and CSV
artifact embeds the fully resolved run specification, and identical
specifications (including the seed) reproduce byte-identical files.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import presets
from .exceptions import CertificateError, NumericalError, PicardConvergenceError
from .nonlinear import (
    DEPTH_HARD_CAP,
    TaylorDepth,
    padded_grid_size,
    route_floats,
    series_chunk_nodes,
)
from .norms import _line_fit, analyticity_radius, certify, wiener_norm
from .picard import solve_picard
from .semigroup import Trajectory, probe_suite
from .spectral import FourierField, as_int, box_header, embed
from .stepper import SolverConfig, solve_timestep, step_count, uniform_grid

MODES = ("solve", "certify", "probe-operator", "sweep", "compare", "radius")

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CERTIFICATE = 3
EXIT_NUMERICAL = 4

SCHEMA_VERSION = 1


class ValidationError(ValueError):
    """Configuration or input file problem; maps to exit code 2."""


@dataclass(frozen=True)
class RunSpec:
    """A fully resolved run request; embedded in every artifact."""

    mode: str
    initial_data: dict
    solver: SolverConfig
    alpha: float | None
    seed: int
    output_dir: str
    mode_options: dict
    override_certificate: bool

    def to_json_dict(self) -> dict:
        # the solver's fields alone (``vars`` would hold its time grid once read),
        # and of the Taylor depth whichever of max_j and tail_tol is set
        solver = {f.name: getattr(self.solver, f.name) for f in fields(self.solver)}
        solver["taylor"] = {k: v for k, v in vars(self.solver.taylor).items() if v is not None}
        return {"schema_version": SCHEMA_VERSION, **vars(self), "solver": solver}

    @property
    def options(self) -> dict:
        """``mode_options`` resolved by the table of the mode."""
        return _resolve(MODE_OPTIONS[self.mode], self.mode_options, "mode_options")


# -- configuration ------------------------------------------------------------


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as err:  # a missing file, a directory, or a file it may not read
        raise ValidationError(f"cannot read config file {path}: {err}") from err
    except ValueError as err:  # not JSON, or not UTF-8
        raise ValidationError(f"config file is not valid JSON: {err}") from err
    if not isinstance(data, dict):
        raise ValidationError("config must be a JSON object")
    return data


class Key:
    """One key of a config section: a JSON value of type ``kind`` (for float any
    number, for int an integral one; true is neither) for which ``check`` holds,
    as ``rule`` says.  An absent key takes ``default``, and ``...`` marks one
    that is required.  With ``null``, null stands for None; with ``each``, the
    value is a nonempty list of such values."""

    __slots__ = ("kind", "default", "rule", "check", "null", "each")

    def __init__(self, kind, default, rule, check=None, null=False, each=False):
        self.kind, self.default, self.rule = kind, default, rule
        self.check, self.null, self.each = check, null, each

    def read(self, value, name: str):
        if value is None and self.null:
            return None
        try:
            result = as_int(value) if self.kind is int else value
            if self.kind is float and type(value) in (int, float):
                result = float(value)
            if type(result) is self.kind and (self.check is None or self.check(result)):
                return result
        except (TypeError, ValueError, OverflowError):
            pass
        raise ValidationError(f"{name} must {self.rule}, got {value!r}")


def _resolve(table: dict, section: dict, where: str) -> dict:
    """Every key of ``table``, read from ``section`` or defaulted; exit 2 on a key
    that is unknown, missing or invalid, naming it."""
    unknown = sorted(set(section) - set(table))
    if unknown:
        raise ValidationError(
            f"unknown {where or 'top-level'} key {', '.join(map(repr, unknown))}; "
            f"known keys: {', '.join(table) or 'none'}"
        )
    resolved = {}
    for key, spec in table.items():
        name = f"{where}.{key}" if where else key
        value = section.get(key, spec.default)
        if value is ...:
            raise ValidationError(f"{name} is required")
        if key not in section:
            resolved[key] = value
        elif not spec.each:
            resolved[key] = spec.read(value, name)
        elif isinstance(value, list) and value:
            resolved[key] = [spec.read(item, name) for item in value]
        else:
            raise ValidationError(f"{name} must be a nonempty list, got {value!r}")
    return resolved


def _positive(default, null=False, each=False) -> Key:
    return Key(float, default, "be a finite real > 0", lambda x: 0.0 < x < math.inf, null, each)


def _count(default, least: int = 1) -> Key:
    return Key(int, default, f"be an integer >= {least}", lambda n: n >= least)


# One table per section.  ``initial_data`` takes the table of its preset, or
# that of the form which reads a stored field; ``mode_options`` that of the mode.
_OBJECT = "be a JSON object"
_PATH = Key(str, ..., "be a file path string")
_SWITCH = Key(bool, False, "be true or false")
_ALPHA = Key(float, None, "lie strictly in (0, 1)", lambda a: 0.0 < a < 1.0, null=True)

TOP = {
    "schema_version": Key(int, SCHEMA_VERSION, f"be {SCHEMA_VERSION}", SCHEMA_VERSION.__eq__),
    "initial_data": Key(dict, {"preset": "single-mode", "amplitude": 0.2}, _OBJECT),
    "solver": Key(dict, {"truncation": 16}, _OBJECT),
    "alpha": _ALPHA,
    "seed": _count(0, least=0),
    "output_dir": Key(str, "epitaxy-out", _PATH.rule),
    "mode_options": Key(dict, {}, _OBJECT),
    "override_certificate": _SWITCH,
}

SOLVER = {
    "truncation": _count(...),
    "dt": _positive(None, null=True),
    "t_final": _positive(4.0),
    "padding": Key(float, 2.0, "be a finite real >= 1", lambda x: 1.0 <= x < math.inf),
    "taylor": Key(dict, {"tail_tol": 1e-12}, _OBJECT),
    "tol": _positive(1e-10),
    "max_iter": _count(200),
}

# exactly one is given; past the adaptive cap a fixed depth only costs time
TAYLOR = {
    "max_j": Key(
        int, None, f"be an integer in [1, {DEPTH_HARD_CAP}]", lambda j: 1 <= j <= DEPTH_HARD_CAP
    ),
    "tail_tol": _positive(None),
}

_PRESET = {
    "preset": Key(str, ..., "name a preset"),
    "amplitude": _positive(0.2),
    "dim": Key(int, 1, "be 1 or 2", lambda d: d in (1, 2)),
}

INITIAL_DATA = {
    "single-mode": {**_PRESET, "k": _count(1)},
    "two-mode": _PRESET,
    "random-decay": {
        **_PRESET,
        "seed": _count(None, least=0),  # None stands for the run's seed
        "decay": Key(float, 3.0, "be a finite real >= 0", lambda x: 0.0 <= x < math.inf),
    },
    "path": {"path": _PATH},
}

MODE_OPTIONS = {
    "solve": {},
    "probe-operator": {
        "trajectories": _count(100),
        "alphas": Key(float, [0.1, 0.5, 0.9], _ALPHA.rule, _ALPHA.check, each=True),
        "dims": Key(int, [1, 2], _PRESET["dim"].rule, _PRESET["dim"].check, each=True),
        "max_truncation": _count(16, least=2),
        "t_final": _positive(2.0),
        "dt": _positive(0.01),
    },
    "sweep": {
        "amplitudes": _positive([0.20, 0.24, 0.249, 0.251, 0.30], each=True),
        "solve": _SWITCH,
    },
    "compare": {"trajectory_a": _PATH, "trajectory_b": _PATH},
    "radius": {
        "trajectory": _PATH,
        "alpha": _ALPHA,
        "floor": _positive(1e-12),
        "fit_window": Key(float, None, "be a finite real", math.isfinite, each=True),
    },
}
# ``certify`` reads no option, but it takes a config written for any mode as
# it stands (perfbench's set-up certifies each workload's config): every mode's
# keys, each checked as its mode checks it, and none required
MODE_OPTIONS["certify"] = {
    name: Key(key.kind, None, key.rule, key.check, key.null, key.each)
    for keys in MODE_OPTIONS.values()
    for name, key in keys.items()
}


def _solver_config(section: dict) -> SolverConfig:
    settings = _resolve(SOLVER, section, "solver")
    taylor = _resolve(TAYLOR, settings.pop("taylor"), "solver.taylor")
    if (taylor["max_j"] is None) == (taylor["tail_tol"] is None):
        raise ValidationError("solver.taylor must hold exactly one of max_j and tail_tol")
    try:
        return SolverConfig(taylor=TaylorDepth(**taylor), **settings)
    except (ValueError, OverflowError) as err:  # dt must divide t_final, say
        raise ValidationError(f"invalid solver config: {err}") from err


def _field_options(init: dict, seed: int) -> tuple[str, dict]:
    """The form of ``initial_data``, a preset's name or "path", and its resolved keys."""
    name = "path" if "path" in init else init.get("preset")
    if name != "path" and (not isinstance(name, str) or name not in presets.PRESETS):
        raise ValidationError(
            f"unknown preset {name!r}; available: {sorted(presets.PRESETS)} or a 'path' entry"
        )
    options = _resolve(INITIAL_DATA[name], init, "initial_data")
    options.pop("preset", None)
    if options.get("seed", 0) is None:  # a random-decay seed defaults to the run's
        options["seed"] = seed
    return name, options


def build_runspec(mode: str, config: dict, args) -> RunSpec:
    """The run ``config`` and the flags ask for; every section is checked here,
    before anything is written."""
    flags = {"alpha": args.alpha, "seed": args.seed, "output_dir": args.out}
    top = _resolve(TOP, {**config, **{k: v for k, v in flags.items() if v is not None}}, "")
    del top["schema_version"]  # the rest are the fields of a RunSpec
    top["solver"] = _solver_config(top["solver"])
    top["override_certificate"] |= args.override_certificate
    spec = RunSpec(mode=mode, **top)
    options = spec.options
    initial = spec.initial_data
    if mode == "sweep":  # each row replaces the amplitude, so the base one is never read
        base = initial.get("amplitude")
        if isinstance(base, float) and not math.isfinite(base):  # but run.json holds it
            raise ValidationError(f"initial_data.amplitude must be finite, got {base!r}")
        initial = {**initial, "amplitude": options["amplitudes"][0]}
    _field_options(initial, spec.seed)
    return spec


def build_initial_field(spec: RunSpec) -> FourierField:
    """The run's initial field, refused (exit 2) before a box that cannot fit is built."""
    name, options = _field_options(spec.initial_data, spec.seed)
    truncation = spec.solver.truncation
    if name == "path":
        path = options["path"]
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            dim, stored = box_header(data)
            if stored > truncation:
                raise ValueError(
                    f"field truncation {stored} exceeds solver truncation {truncation}"
                )
            check_memory(spec.solver, dim, nodes=1)
            field = FourierField.from_json_dict(data)
        except (OSError, KeyError, TypeError, ValueError, OverflowError) as err:
            raise ValidationError(f"cannot load field from {path}: {err}") from err
        return embed(field, truncation)
    check_memory(spec.solver, options["dim"], nodes=1)
    try:
        return presets.PRESETS[name](truncation, **options)
    except ValueError as err:  # k beyond the truncation, say
        raise ValidationError(f"invalid initial data: {err}") from err


# The live-array counts below are in units of one trajectory's whole boxes,
# nodes x (2N+1)^dim complex numbers, although trajectories hold half boxes:
# a half box is (N+1)/(2N+1) of that, 0.52 at N = 16 and 2/3 at N = 1.  Each
# was traced with tracemalloc (random-decay data, seed 7) at N = 16 over
# 20,001 nodes in 1-D and 1,001 in 2-D, at N = 2 over 100,001 and 20,001, and
# at N = 1 over 100,001 and 300,001 in 1-D and 20,001 in 2-D.  At N = 1 the
# per-node Python objects of a manifest's ``times`` (the float list and its
# JSON text) weigh most beside the small boxes.  Each count is its largest
# peak rounded up, but for the write count (see there).

# Coefficient arrays alive at the peak of a Picard iteration: the linear
# flow, its two buffers, the j = 2 norms' temporaries of the depth
# resolution, a row block of the Duhamel operator's interval terms and its
# kernel, 16 bytes a node and 32 per half-box entry per distinct step (6 to 8
# on the benchmark's uniform grids; more steps, more kernel).  The peak was
# 2.11 and 2.08 at N = 16, 2.71 and 2.47 at N = 2, and 3.50, 3.50 and 3.03 at
# N = 1, where the kernel's nodes weigh.
PICARD_LIVE_TRAJECTORIES = 4

# Real grid arrays of one series chunk (``series_chunk_nodes`` nodes of the
# padded M^dim grid) alive at the peak of ``taylor_sum``, on top of the
# coefficient arrays: they grow as padding^dim, not with the box.  Traced on
# the same data over 11 nodes in 2-D, in chunks of 3 nodes, the whole Picard
# peak was 2.85 such arrays (6.21 trajectory sizes) at N = 16 and padding 4,
# and 2.32, 2.18 and 2.14 at N = 8, 4 and 2 and padding 8, 16 and 32, where
# the grids dominate more and more.
SERIES_GRID_ARRAYS = 3

# The stepper's exponential route holds its DFT matrices, ``route_floats``
# float64 numbers: 4 M (N+1) in 1-D, which grow as N^2 where a trajectory
# grows as N.  Built at N = 256 in 1-D and N = 48 in 2-D (padding 2), the
# route peaked under tracemalloc at 1.52 and 1.51 times its matrices.
ROUTE_BUILD_ARRAYS = 2

# Coefficient arrays alive while a trajectory is written: the Picard and
# stepper solutions, the float64 table array of the written modes, the
# ``.npy`` file's bytes read back for its digest, and the manifest's text.
# The peak, solutions included, was 2.06 and 2.03 at N = 16, 2.76 and 2.24 at
# N = 2, and 3.93, 4.17 and 2.45 at N = 1, where the 4.17 of 300,001 nodes
# (times of 17 digits) is covered by the solve estimate's larger Picard count.
WRITE_LIVE_TRAJECTORIES = 4

# Coefficient arrays alive while ``compare`` reads two trajectory files
# (``radius`` reads one, and fits every node at once): the other trajectory,
# the file's bytes, the table array, the half boxes ``place_modes`` fills and
# the check's temporaries.  The ``compare`` peak was 2.58 and 2.54 at N = 16,
# 3.50 and 2.76 at N = 2, and 5.18, 5.54 and 3.01 at N = 1; a whole ``radius``
# run peaked at 2.07 and 2.03 at N = 16, 2.33 and 2.17 at N = 2, and 2.73,
# 2.70 and 2.35 at N = 1, where its fit alone peaked at 1.85 in 1-D.
READ_LIVE_TRAJECTORIES = 6

# Coefficient arrays of the largest probe trajectory's size alive in a
# ``probe-operator`` run: the batches' columns, which hold at most one half
# box of the largest truncation at the largest dim together, the case being
# drawn, the image the batch's scan writes over them, their log-amplitude and
# weighted-peak tables, and the one Duhamel kernel, over the distinct |k|^2
# of that half box, taken at the batch's entries.  A whole run of 30 cases
# peaked at 0.20 in 2-D and 0.96 in 1-D at a largest truncation of 16 (1,001
# and 20,001 nodes), and 1.14 and 1.60 at 2, the least the probe takes
# (20,001 and 200,001 nodes), where the kernel and the grid weigh most; 0.15
# and 0.85 with dims [1, 2], and 0.07 in 2-D at 40 over 101 nodes.  200 cases
# with dims [1, 2] at 2 over 10,001 nodes, in 129 scans, peaked at 1.07.
PROBE_LIVE_TRAJECTORIES = 2


# Bytes of one ``operator_probe.csv`` row alive while the table is written:
# its string in the list of rows, and its line in the joined text and in the
# encoded bytes.  Traced with tracemalloc over 15,000 to 60,000 rows of 3 time
# nodes, a whole run peaked at 221 to 241 bytes a row.
TABLE_ROW_BYTES = 256


def _check_fits(nodes: int, modes: int, live: int, advice: str, grid_points=0, rows=0) -> None:
    """Refuse (exit 2) ``live`` complex arrays of ``nodes`` x ``modes``, plus
    ``grid_points`` real numbers and ``rows`` table rows, beyond physical memory.

    The estimate is an exact integer, so an absurd request is refused, never
    overflowed.
    """
    estimate = nodes * modes * 16 * live + grid_points * 8 + rows * TABLE_ROW_BYTES
    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if estimate > physical:
        # a Decimal formats integers beyond a float's range; imported only
        # here because the import costs about 6 ms of every start-up
        from decimal import Decimal

        more = ((grid_points, "padded-grid points"), (rows, "table rows"))
        more = "".join(f" plus {count} {what}" for count, what in more if count)
        raise ValidationError(
            f"run would need about {Decimal(estimate) / 2**30:.3g} GiB for {nodes} time "
            f"nodes ({live} trajectories of {modes} modes{more}), more than the "
            f"{physical / 2**30:.3g} GiB of physical memory; {advice}"
        )


def check_memory(config: SolverConfig, dim: int, nodes: int | None = None) -> None:
    """Refuse a run whose arrays would not fit in physical memory.

    ``nodes`` defaults to the time nodes of a solve, counted without building
    the grid; its estimate adds the series sum's grid arrays of one chunk and
    the exponential route's DFT matrices.  1 sizes a field before it is built.
    """
    grid_points = 0
    if nodes is None:
        nodes = step_count(config.dt, config.t_final) + 1
        m = padded_grid_size(config.truncation, config.padding)
        grid_points = SERIES_GRID_ARRAYS * min(nodes, series_chunk_nodes(dim, m)) * m**dim
        grid_points += ROUTE_BUILD_ARRAYS * route_floats(dim, config.truncation, m)
    modes = (2 * config.truncation + 1) ** dim
    live = max(PICARD_LIVE_TRAJECTORIES, WRITE_LIVE_TRAJECTORIES)
    _check_fits(nodes, modes, live, "raise dt or lower t_final or truncation", grid_points)


# -- deterministic artifact emission ------------------------------------------


def _runspec_comment(spec: RunSpec) -> str:
    text = json.dumps(spec.to_json_dict(), sort_keys=True, separators=(",", ":"), allow_nan=False)
    return "# runspec: " + text


def _create(path: Path):
    """``path`` opened as a new file: an existing one is unlinked, never truncated.

    A file rewritten in place was flushed on close, about 70 ms per file on
    ext4.  So a read-only artifact is replaced, and so is a symlink, whose
    target is left alone.
    """
    path.unlink(missing_ok=True)
    return open(path, "wb")


def write_json(path: Path, payload: dict, spec: RunSpec) -> None:
    body = {**payload, "runspec": spec.to_json_dict()}
    text = json.dumps(body, indent=2, sort_keys=True, allow_nan=False)  # NaN is not JSON
    with _create(path) as fh:
        fh.write((text + "\n").encode("utf-8"))


def write_csv(path: Path, header: str, rows: list[str], spec: RunSpec) -> None:
    lines = [_runspec_comment(spec), header, *rows]
    with _create(path) as fh:
        fh.write(("\n".join(lines) + "\n").encode("utf-8"))


def _sha256(data: bytes) -> str:
    # imported here, not at the top, because certify-only runs never hash
    import hashlib

    return hashlib.sha256(data).hexdigest()


def write_trajectory(path: Path, traj: Trajectory, spec: RunSpec) -> None:
    """The JSON manifest ``path`` of a trajectory, and its ``.npy`` tables beside it.

    The manifest's ``tables`` holds the ``.npy`` file's name and sha256 digest.
    """
    body = traj.to_json_dict()
    tables = path.with_suffix(".npy")
    with _create(tables) as fh:
        np.lib.format.write_array(fh, body["tables"], allow_pickle=False)
    body["tables"] = {"file": tables.name, "sha256": _sha256(tables.read_bytes())}
    write_json(path, body, spec)


def _read_tables(folder: Path, reference: dict) -> np.ndarray:
    """The table array a manifest's ``tables`` reference names, checked against its digest."""
    name = reference["file"]
    if not isinstance(name, str) or name in ("", "..") or Path(name).name != name:
        raise ValueError(f"tables.file must name a file beside the manifest, got {name!r}")
    raw = (folder / name).read_bytes()
    if _sha256(raw) != reference["sha256"]:
        raise ValueError(f"{name} does not match the sha256 digest its manifest records")
    try:
        return np.lib.format.read_array(io.BytesIO(raw), allow_pickle=False)
    except (MemoryError, OverflowError) as err:  # its header claims a shape too large
        raise ValueError(f"{name}: {err}") from err


def _fmt(value: float) -> str:
    return repr(float(value))


# -- mode runners --------------------------------------------------------------


def _run_certify(spec: RunSpec, out: Path) -> dict:
    h0 = build_initial_field(spec)
    report = certify(h0, spec.alpha).to_json_dict()
    write_json(out / "certificate.json", report, spec)
    return {"artifacts": ["certificate.json"], "pass": report["pass"], "r0": report["r0"]}


def _comparison(a: Trajectory, b: Trajectory) -> tuple[list[str], float]:
    """Rows ``t,wiener2_diff`` at the time nodes both trajectories hold, and the largest.

    Both grids start at t = 0, so they always share at least that node.
    """
    if a.dim != b.dim or a.truncation != b.truncation:
        raise ValidationError("trajectories must share dim and truncation")
    times, ia, ib = np.intersect1d(a.times, b.times, assume_unique=True, return_indices=True)
    # the difference of two valid trajectories needs no check of its own
    gaps = wiener_norm(Trajectory._trusted(times, a.coeffs[ia] - b.coeffs[ib]), 2)
    rows = [f"{_fmt(t)},{_fmt(gap)}" for t, gap in zip(times, gaps)]
    return rows, float(np.max(gaps))


def _run_solve(spec: RunSpec, out: Path) -> dict:
    h0 = build_initial_field(spec)
    config = spec.solver
    check_memory(config, h0.dim)
    cert = certify(h0, spec.alpha)
    write_json(out / "certificate.json", cert.to_json_dict(), spec)
    write_json(out / "initial_field.json", h0.to_json_dict(), spec)
    if not cert.passed and not spec.override_certificate:
        raise CertificateError(
            f"certificate failed (r0 = {cert.r0:.6g} vs threshold 0.25); "
            "rerun with --override-certificate to iterate anyway"
        )
    solution, diag = solve_picard(h0, cert, config, allow_uncertified=spec.override_certificate)
    marched = solve_timestep(h0, config)
    write_trajectory(out / "picard_trajectory.json", solution, spec)
    write_trajectory(out / "stepper_trajectory.json", marched, spec)
    diag_lines = diag.csv_lines()
    write_csv(out / "picard_diagnostics.csv", diag_lines[0], diag_lines[1:], spec)
    rows, worst = _comparison(solution, marched)
    write_csv(out / "engine_comparison.csv", "t,wiener2_diff", rows, spec)
    summary = {
        "certificate_pass": cert.passed,
        "iterations": diag.iterations,
        "final_delta": diag.deltas[-1],
        "max_engine_difference": worst,
        "ball_distance": diag.ball_distances[-1],
    }
    write_json(out / "summary.json", summary, spec)
    return {
        "artifacts": [
            "certificate.json", "initial_field.json",
            "picard_trajectory.json", "picard_trajectory.npy",
            "stepper_trajectory.json", "stepper_trajectory.npy",
            "picard_diagnostics.csv", "engine_comparison.csv", "summary.json",
        ],
        "iterations": diag.iterations,
        "max_engine_difference": worst,
    }


def _run_probe(spec: RunSpec, out: Path) -> dict:
    opts = spec.options
    count, alphas, dims = opts["trajectories"], opts["alphas"], opts["dims"]
    try:
        nodes = step_count(opts["dt"], opts["t_final"]) + 1
    except ValueError as err:  # on one node every ratio would read 0
        raise ValidationError(f"invalid mode_options.dt or mode_options.t_final: {err}") from err
    modes = (2 * opts["max_truncation"] + 1) ** max(dims)
    advice = "raise mode_options.dt or lower t_final, max_truncation or trajectories"
    _check_fits(nodes, modes, PROBE_LIVE_TRAJECTORIES, advice, rows=count * len(alphas))
    times = uniform_grid(opts["dt"], opts["t_final"])
    rng = np.random.default_rng(spec.seed)
    suite = probe_suite(rng, count, dims, opts["max_truncation"], times, alphas)
    rows = []
    all_pass = True
    for index, (dim, truncation, reports) in enumerate(suite):
        for alpha, report in zip(alphas, reports):
            all_pass = all_pass and report.passed
            rows.append(
                f"{index},{dim},{truncation},{_fmt(alpha)},"
                f"{_fmt(report.ratio)},{_fmt(report.bound)},{report.passed}"
            )
    write_csv(out / "operator_probe.csv", "index,dim,truncation,alpha,ratio,bound,pass", rows, spec)
    write_json(out / "summary.json", {"all_pass": all_pass, "cases": len(rows)}, spec)
    return {"artifacts": ["operator_probe.csv", "summary.json"], "all_pass": all_pass}


def _with_amplitude(spec: RunSpec, amplitude: float) -> RunSpec:
    return replace(spec, initial_data={**spec.initial_data, "amplitude": amplitude})


def _sweep_one(spec: RunSpec, out: Path, amplitude: float, do_solve: bool) -> tuple[str, bool]:
    sub = _with_amplitude(spec, amplitude)
    h0 = build_initial_field(sub)
    cert = certify(h0, spec.alpha)
    tag = f"amp_{_fmt(amplitude)}"
    write_json(out / "certificates" / f"{tag}.json", cert.to_json_dict(), sub)
    outcome, iterations, final_delta = "skipped", "", ""
    if do_solve:
        try:
            _, diag = solve_picard(h0, cert, spec.solver, allow_uncertified=True)
            outcome = "converged"
            iterations = str(diag.iterations)
            final_delta = _fmt(diag.deltas[-1])
        except PicardConvergenceError as err:
            outcome = "no-convergence"
            iterations = str(err.diagnostics.iterations)
            final_delta = _fmt(err.diagnostics.deltas[-1])
        except NumericalError:
            outcome = "numerical-error"
    row = (
        f"{_fmt(amplitude)},{_fmt(cert.r0)},{_fmt(cert.alpha)},{_fmt(cert.r1)},"
        f"{_fmt(cert.contraction_constant)},{_fmt(cert.mapping_lhs)},{cert.passed},"
        f"{outcome},{iterations},{final_delta}"
    )
    return row, cert.passed


def _run_sweep(spec: RunSpec, out: Path) -> dict:
    opts = spec.options
    amplitudes, do_solve = opts["amplitudes"], opts["solve"]
    if do_solve:
        dim = build_initial_field(_with_amplitude(spec, amplitudes[0])).dim
        check_memory(spec.solver, dim)
    (out / "certificates").mkdir(parents=True, exist_ok=True)
    results = [_sweep_one(spec, out, a, do_solve) for a in amplitudes]
    header = (
        "amplitude,r0,alpha,r1,contraction_constant,mapping_lhs,cert_pass,"
        "outcome,iterations,final_delta"
    )
    write_csv(out / "sweep.csv", header, [row for row, _ in results], spec)
    return {
        "artifacts": ["sweep.csv", "certificates/"],
        "pass_pattern": [passed for _, passed in results],
    }


def _load_trajectory(name: str) -> Trajectory:
    """The trajectory of the manifest ``name`` and its tables, refused (exit 2)
    before a box that cannot fit is built."""
    path = Path(name)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
        if "tables" not in data and ("fields" in data or "re" in data):
            form = "per-node 'fields'" if "fields" in data else "packed JSON-table ('re' and 'im')"
            raise ValueError(
                f"it holds the {form} form written by an earlier version of epitaxy; "
                "solve again to write it with .npy tables"
            )
        dim, truncation = box_header(data)
        advice = "the file's time grid and truncation are too large to load"
        _check_fits(len(data["times"]), (2 * truncation + 1) ** dim, READ_LIVE_TRAJECTORIES, advice)
        data["tables"] = _read_tables(path.parent, data["tables"])
        return Trajectory.from_json_dict(data)
    except (OSError, KeyError, TypeError, ValueError, OverflowError) as err:
        raise ValidationError(f"cannot load trajectory from {path}: {err}") from err


def _run_compare(spec: RunSpec, out: Path) -> dict:
    opts = spec.options
    a, b = _load_trajectory(opts["trajectory_a"]), _load_trajectory(opts["trajectory_b"])
    rows, worst = _comparison(a, b)
    write_csv(out / "comparison.csv", "t,wiener2_diff", rows, spec)
    write_json(
        out / "summary.json",
        {"max_wiener2_diff": worst, "shared_nodes": len(rows)},
        spec,
    )
    return {"artifacts": ["comparison.csv", "summary.json"], "max_wiener2_diff": worst}


def _run_radius(spec: RunSpec, out: Path) -> dict:
    opts = spec.options
    alpha = opts["alpha"] if spec.alpha is None else spec.alpha
    if alpha is None:
        raise ValidationError("radius needs an alpha (flag, config or mode_options)")
    floor, window = opts["floor"], opts["fit_window"]
    if window is not None and len(window) != 2:
        raise ValidationError(f"mode_options.fit_window must be [t_lo, t_hi], got {window}")
    traj = _load_trajectory(opts["trajectory"])
    t_lo, t_hi = window or (0.5, float(traj.times[-1]))
    fit = analyticity_radius(traj, floor)
    usable = fit.n_shells >= 3
    columns = (traj.times, fit.rho, fit.r_squared, fit.n_shells)
    rows = [
        f"{_fmt(t)},{_fmt(rho)},{_fmt(r_squared)},{n}"
        for t, rho, r_squared, n in zip(*(column[usable] for column in columns))
    ]
    in_window = usable & (t_lo <= traj.times) & (traj.times <= t_hi)
    n_points = int(in_window.sum())
    if n_points < 2:
        raise ValidationError(
            f"radius fit window [{t_lo}, {t_hi}] contains {n_points} usable nodes; need >= 2"
        )
    intercept, slope, r_squared = map(float, _line_fit(traj.times, fit.rho, in_window))
    summary = {
        "alpha": alpha,
        "slope": slope,
        "intercept": intercept,
        "r_squared": r_squared,
        "slope_minus_alpha": slope - alpha,
        "fit_window": [t_lo, t_hi],
        "n_points": n_points,
    }
    write_csv(out / "radius.csv", "t,rho,r_squared,n_shells", rows, spec)
    write_json(out / "radius_fit.json", summary, spec)
    return {"artifacts": ["radius.csv", "radius_fit.json"], **summary}


_RUNNERS = {
    "certify": _run_certify,
    "solve": _run_solve,
    "probe-operator": _run_probe,
    "sweep": _run_sweep,
    "compare": _run_compare,
    "radius": _run_radius,
}


def run(spec: RunSpec) -> dict:
    """Dispatch a resolved RunSpec; returns the status payload on success."""
    out = Path(spec.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ValidationError(f"cannot create output directory {out}: {err}") from err
    write_json(out / "run.json", {"mode": spec.mode}, spec)
    result = _RUNNERS[spec.mode](spec, out)
    result["artifacts"] = ["run.json", *result["artifacts"]]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="epitaxy",
        description="Pseudospectral solver and certificate toolkit for "
        "h_t = lap(exp(-lap h)) on the torus.",
    )
    parser.add_argument("mode", choices=MODES)
    parser.add_argument("--config", required=True, help="path to a JSON run configuration")
    parser.add_argument("--alpha", type=float, default=None, help="weight rate in (0, 1)")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, default=None, help="RNG seed (overrides config)")
    parser.add_argument(
        "--override-certificate",
        action="store_true",
        help="iterate even when the certificate fails (no contraction guarantee)",
    )
    args = parser.parse_args(argv)

    mode = args.mode
    try:
        config = load_config(args.config)
        spec = build_runspec(mode, config, args)
        result = run(spec)
    except ValidationError as err:
        return _fail(mode, err, EXIT_VALIDATION)
    except CertificateError as err:
        return _fail(mode, err, EXIT_CERTIFICATE)
    except (NumericalError, OSError) as err:  # a full disk, say
        return _fail(mode, err, EXIT_NUMERICAL)
    payload = {"status": "ok", "mode": mode, "exit_code": EXIT_OK, **result}
    print(json.dumps(payload, sort_keys=True, allow_nan=False))
    return EXIT_OK


def _fail(mode: str, err: Exception, code: int) -> int:
    payload = {
        "status": "error",
        "mode": mode,
        "exit_code": code,
        "error": {"type": type(err).__name__, "message": str(err)},
    }
    print(json.dumps(payload, sort_keys=True, allow_nan=False))
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
