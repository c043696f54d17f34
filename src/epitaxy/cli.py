"""Command-line orchestration: configuration, run modes, artifact emission.

Usage:
    epitaxy <mode> --config <path> [--alpha <f>] [--out <dir>] [--seed <u64>]
            [--override-certificate]

Modes: solve, certify, probe-operator, sweep, compare, radius.  Exit codes:
0 success, 2 validation error, 3 certificate failure without override,
4 numerical failure.  ``solve``, and ``sweep`` with ``solve: true``, are
refused up front (exit 2) when the trajectories they would hold exceed the
machine's physical memory; every initial field is sized the same way before
it is built.  Unknown ``solver`` keys and config values of the wrong type
are refused (exit 2) with the key named.

Artifacts are plain JSON and CSV; every artifact embeds the fully resolved
run specification, and identical specifications (including the seed)
reproduce byte-identical files.  JSON artifacts have the layout of
``json.dumps(body, indent=2, sort_keys=True)`` and are written as a stream.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from itertools import chain
from pathlib import Path

import numpy as np

from . import presets
from .exceptions import CertificateError, NumericalError, PicardConvergenceError
from .nonlinear import TaylorDepth
from .norms import _line_fit, analyticity_radius, certify, wiener_norm
from .picard import solve_picard
from .semigroup import Trajectory, operator_bound_probe, random_probe_trajectory
from .spectral import FourierField, embed
from .stepper import SolverConfig, solve_timestep

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
        return {
            "schema_version": SCHEMA_VERSION,
            "mode": self.mode,
            "initial_data": self.initial_data,
            "solver": _solver_to_dict(self.solver),
            "alpha": self.alpha,
            "seed": self.seed,
            "output_dir": self.output_dir,
            "mode_options": self.mode_options,
            "override_certificate": self.override_certificate,
        }


# -- configuration ------------------------------------------------------------


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError as err:
        raise ValidationError(f"config file not found: {path}") from err
    except json.JSONDecodeError as err:
        raise ValidationError(f"config file is not valid JSON: {err}") from err
    if not isinstance(data, dict):
        raise ValidationError("config must be a JSON object")
    version = data.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ValidationError(f"unsupported schema_version {version}; expected {SCHEMA_VERSION}")
    return data


def _section(config: dict, key: str, default: dict, where: str = "") -> dict:
    """A copy of ``config[key]`` (or of ``default``); exit 2 unless it is a JSON object."""
    value = config.get(key, default)
    if not isinstance(value, dict):
        raise ValidationError(f"{where}{key} must be a JSON object, got {value!r}")
    return dict(value)


def _option(section: dict, key: str, default, convert, where: str):
    """``convert(section[key])`` (or of ``default``); exit 2 naming the key if it fails."""
    value = section.get(key, default)
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as err:
        raise ValidationError(f"invalid {where}{key} {value!r}: {err}") from err


def _list_option(section: dict, key: str, default: list, convert, where: str) -> list:
    """``convert`` of each item of the list ``section[key]``; exit 2 if it is not a list."""

    def convert_items(value):
        if not isinstance(value, list):
            raise TypeError("expected a list")
        return [convert(item) for item in value]

    return _option(section, key, default, convert_items, where)


def _float_or_none(value) -> float | None:
    return None if value is None else float(value)


SOLVER_KEYS = ("truncation", "dt", "t_final", "padding", "taylor", "tol", "max_iter")


def _solver_from_dict(d: dict) -> SolverConfig:
    unknown = sorted(set(d) - set(SOLVER_KEYS))
    if unknown:
        raise ValidationError(
            f"unknown solver key {', '.join(map(repr, unknown))}; "
            f"known keys: {', '.join(SOLVER_KEYS)}"
        )
    if "truncation" not in d:
        raise ValidationError("solver config needs a 'truncation' entry")
    taylor_spec = _section(d, "taylor", {"tail_tol": 1e-12}, "solver.")
    if "max_j" in taylor_spec:
        depth = {"max_j": _option(taylor_spec, "max_j", None, int, "solver.taylor.")}
    elif "tail_tol" in taylor_spec:
        depth = {"tail_tol": _option(taylor_spec, "tail_tol", None, float, "solver.taylor.")}
    else:
        raise ValidationError("solver.taylor needs 'max_j' or 'tail_tol'")
    settings = {
        "truncation": _option(d, "truncation", None, int, "solver."),
        "dt": _option(d, "dt", None, _float_or_none, "solver."),
        "t_final": _option(d, "t_final", 4.0, float, "solver."),
        "padding": _option(d, "padding", 2.0, float, "solver."),
        "tol": _option(d, "tol", 1e-10, float, "solver."),
        "max_iter": _option(d, "max_iter", 200, int, "solver."),
    }
    try:
        return SolverConfig(taylor=TaylorDepth(**depth), **settings)
    except ValueError as err:
        raise ValidationError(f"invalid solver config: {err}") from err


def _solver_to_dict(config: SolverConfig) -> dict:
    taylor = (
        {"max_j": config.taylor.max_j}
        if config.taylor.max_j is not None
        else {"tail_tol": config.taylor.tail_tol}
    )
    return {
        "truncation": config.truncation,
        "dt": config.dt,
        "t_final": config.t_final,
        "padding": config.padding,
        "taylor": taylor,
        "tol": config.tol,
        "max_iter": config.max_iter,
    }


def build_runspec(mode: str, config: dict, args) -> RunSpec:
    solver = _solver_from_dict(_section(config, "solver", {"truncation": 16}))
    alpha = args.alpha
    if alpha is None:
        alpha = _option(config, "alpha", None, _float_or_none, "")
    seed = args.seed if args.seed is not None else _option(config, "seed", 0, int, "")
    out = args.out if args.out is not None else config.get("output_dir", "epitaxy-out")
    override = bool(args.override_certificate or config.get("override_certificate", False))
    initial = _section(config, "initial_data", {"preset": "single-mode", "amplitude": 0.2})
    return RunSpec(
        mode=mode,
        initial_data=initial,
        solver=solver,
        alpha=alpha,
        seed=seed,
        output_dir=str(out),
        mode_options=_section(config, "mode_options", {}),
        override_certificate=override,
    )


def build_initial_field(spec: RunSpec) -> FourierField:
    """The run's initial field, refused (exit 2) before a box that cannot fit is built."""
    init = spec.initial_data
    truncation = spec.solver.truncation
    if "path" in init:
        try:
            with open(init["path"], "r", encoding="utf-8") as fh:
                data = json.load(fh)
            stored = int(data["truncation"])
            if stored > truncation:
                raise ValueError(
                    f"field truncation {stored} exceeds solver truncation {truncation}"
                )
            check_memory(spec.solver, int(data["dim"]), nodes=1)
            field = FourierField.from_json_dict(data)
        except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as err:
            raise ValidationError(f"cannot load field from {init['path']}: {err}") from err
        return embed(field, truncation)
    name = init.get("preset")
    if not isinstance(name, str) or name not in presets.PRESETS:
        raise ValidationError(
            f"unknown preset {name!r}; available: {sorted(presets.PRESETS)} or a 'path' entry"
        )
    where = "initial_data."
    options = {
        "amplitude": _option(init, "amplitude", 0.2, float, where),
        "dim": _option(init, "dim", 1, int, where),
    }
    if name == "single-mode":
        options["k"] = _option(init, "k", 1, int, where)
    elif name == "random-decay":
        options["seed"] = _option(init, "seed", spec.seed, int, where)
        options["decay"] = _option(init, "decay", 3.0, float, where)
    check_memory(spec.solver, options["dim"], nodes=1)
    try:
        return presets.PRESETS[name](truncation, **options)
    except ValueError as err:
        raise ValidationError(f"invalid initial data: {err}") from err


# Coefficient arrays of one trajectory's size alive at the peak of a Picard
# iteration: the linear flow, the current iterate, the series sum, its Duhamel
# integral, the new iterate and the differences whose norms are taken.  Traced
# with tracemalloc at 1,001 nodes in 2-D and 20,001 nodes in 1-D, the peak was
# 7.5 and 8.6 trajectory sizes.
PICARD_LIVE_TRAJECTORIES = 8

# Coefficient arrays of one trajectory's size alive while a trajectory is
# written: the Picard and stepper solutions, and the JSON form that
# ``Trajectory.to_json_dict`` builds, one [k..., re, im] list per mode.  Traced
# with tracemalloc at 20,001 nodes in 1-D and 501 nodes in 2-D, writing took
# 9.5 and 10.4 trajectory sizes on top of the two solutions.
WRITE_LIVE_TRAJECTORIES = 13


def check_memory(config: SolverConfig, dim: int, nodes: int | None = None) -> None:
    """Refuse a run whose coefficient arrays would not fit in physical memory.

    ``nodes`` defaults to the time nodes of a solve; 1 sizes a single field
    before it is built.
    """
    if dim not in (1, 2):
        raise ValidationError(f"dim must be 1 or 2, got {dim}")
    nodes = config.n_steps() + 1 if nodes is None else nodes
    modes = (2 * config.truncation + 1) ** dim
    live = max(PICARD_LIVE_TRAJECTORIES, WRITE_LIVE_TRAJECTORIES)
    estimate = nodes * modes * 16 * live
    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if estimate > physical:
        raise ValidationError(
            f"run would need about {estimate / 2**30:.3g} GiB for {nodes} time nodes "
            f"({live} trajectories of {modes} modes), more than the "
            f"{physical / 2**30:.3g} GiB of physical memory; "
            "raise dt or lower t_final or truncation"
        )


# -- deterministic artifact emission ------------------------------------------


def _runspec_comment(spec: RunSpec) -> str:
    return "# runspec: " + json.dumps(spec.to_json_dict(), sort_keys=True, separators=(",", ":"))


# JSON artifacts have the layout of ``json.dumps(body, indent=2,
# sort_keys=True)``, which always runs the pure-Python encoder.  The writer
# below emits the same bytes as a stream of chunks.  Dicts and general lists
# are walked here.  A list of finite numbers, or of nonempty lists of them
# (the ``times`` grid and the per-node ``[k..., re, im]`` tables), is
# formatted by one C-level ``repr`` and re-indented: ``json`` writes finite
# floats with ``float.__repr__`` and ints with ``int.__repr__``, exactly as
# ``repr`` does.  Anything else (bools, non-finite floats, subclasses,
# tuples, empty containers, non-string keys) is written by ``json.dumps``.

_INDENT = "  "
_NUMBER_TYPES = {int, float}


def _number_list(items: list, pad: str) -> str | None:
    """JSON text of a nonempty list of finite numbers or of nonempty such lists, else None."""
    rows = type(items[0]) is list
    if rows:
        if not all(type(row) is list and row for row in items):
            return None
        kinds = set(map(type, chain.from_iterable(items)))
    else:
        kinds = set(map(type, items))
    if not kinds <= _NUMBER_TYPES:
        return None
    text = repr(items)
    if "n" in text:  # nan or inf, which json writes as NaN or Infinity
        return None
    inner = pad + _INDENT
    if not rows:
        return "[\n" + inner + text[1:-1].replace(", ", ",\n" + inner) + "\n" + pad + "]"
    deeper = inner + _INDENT
    body = text[2:-2].replace("], [", "\n" + inner + "],\n" + inner + "[\n" + deeper)
    body = body.replace(", ", ",\n" + deeper)
    return "[\n" + inner + "[\n" + deeper + body + "\n" + inner + "]\n" + pad + "]"


def _json_chunks(value, pad: str):
    """Yield ``json.dumps(value, indent=2, sort_keys=True)`` nested ``pad`` deep, in pieces."""
    if type(value) is dict and value and all(type(key) is str for key in value):
        inner = pad + _INDENT
        opener = "{\n" + inner
        for key in sorted(value):
            yield opener + json.dumps(key) + ": "
            yield from _json_chunks(value[key], inner)
            opener = ",\n" + inner
        yield "\n" + pad + "}"
    elif type(value) is list and value:
        text = _number_list(value, pad)
        if text is not None:
            yield text
            return
        inner = pad + _INDENT
        opener = "[\n" + inner
        for item in value:
            yield opener
            yield from _json_chunks(item, inner)
            opener = ",\n" + inner
        yield "\n" + pad + "]"
    elif isinstance(value, (dict, list, tuple)):
        yield json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + pad)
    else:
        yield json.dumps(value)


def write_json(path: Path, payload: dict, spec: RunSpec) -> None:
    body = dict(payload)
    body["runspec"] = spec.to_json_dict()
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_json_chunks(body, ""))
        fh.write("\n")


def write_csv(path: Path, header: str, rows: list[str], spec: RunSpec) -> None:
    lines = [_runspec_comment(spec), header, *rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _fmt(value: float) -> str:
    return repr(float(value))


# -- mode runners --------------------------------------------------------------


def _run_certify(spec: RunSpec, out: Path) -> dict:
    h0 = build_initial_field(spec)
    cert = certify(h0, spec.alpha)
    write_json(out / "certificate.json", cert.to_json_dict(), spec)
    return {"artifacts": ["certificate.json"], "pass": cert.passed, "r0": cert.r0}


def _comparison(a: Trajectory, b: Trajectory) -> tuple[list[str], float]:
    """Rows ``t,wiener2_diff`` at the time nodes both trajectories hold, and the largest.

    Both grids start at t = 0, so they always share at least that node.
    """
    if a.dim != b.dim or a.truncation != b.truncation:
        raise ValidationError("trajectories must share dim and truncation")
    times, ia, ib = np.intersect1d(a.times, b.times, assume_unique=True, return_indices=True)
    gaps = wiener_norm(Trajectory(times, a.coeffs[ia] - b.coeffs[ib]), 2)
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
    write_json(out / "picard_trajectory.json", solution.to_json_dict(), spec)
    write_json(out / "stepper_trajectory.json", marched.to_json_dict(), spec)
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
            "certificate.json",
            "initial_field.json",
            "picard_trajectory.json",
            "stepper_trajectory.json",
            "picard_diagnostics.csv",
            "engine_comparison.csv",
            "summary.json",
        ],
        "iterations": diag.iterations,
        "max_engine_difference": worst,
    }


def _run_probe(spec: RunSpec, out: Path) -> dict:
    opts = spec.mode_options
    where = "mode_options."
    count = _option(opts, "trajectories", 100, int, where)
    alphas = _list_option(opts, "alphas", [0.1, 0.5, 0.9], float, where)
    dims = _list_option(opts, "dims", [1, 2], int, where)
    max_truncation = _option(opts, "max_truncation", 16, int, where)
    t_final = _option(opts, "t_final", 2.0, float, where)
    dt = _option(opts, "dt", 0.01, float, where)
    if count < 1 or not alphas or not dims:
        raise ValidationError("probe-operator needs trajectories >= 1, alphas and dims")
    if not (0 < dt < math.inf and 0 < t_final < math.inf):
        raise ValidationError(
            f"probe-operator needs positive finite dt and t_final, got {dt} and {t_final}"
        )
    times = np.linspace(0.0, t_final, int(round(t_final / dt)) + 1)
    rng = np.random.default_rng(spec.seed)
    rows = []
    all_pass = True
    for index in range(count):
        dim = dims[index % len(dims)]
        truncation = int(rng.integers(2, max_truncation + 1))
        traj = random_probe_trajectory(rng, dim, truncation, times)
        for alpha in alphas:
            report = operator_bound_probe(traj, alpha)
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
    tag = f"amp_{amplitude:g}"
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
    opts = spec.mode_options
    default = [0.20, 0.24, 0.249, 0.251, 0.30]
    amplitudes = _list_option(opts, "amplitudes", default, float, "mode_options.")
    if not amplitudes:
        raise ValidationError("sweep needs a nonempty 'amplitudes' list")
    do_solve = bool(opts.get("solve", False))
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


def _load_trajectory(path: str) -> Trajectory:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return Trajectory.from_json_dict(json.load(fh))
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as err:
        raise ValidationError(f"cannot load trajectory from {path}: {err}") from err


def _run_compare(spec: RunSpec, out: Path) -> dict:
    opts = spec.mode_options
    for key in ("trajectory_a", "trajectory_b"):
        if key not in opts:
            raise ValidationError(f"compare needs mode_options.{key}")
    a = _load_trajectory(opts["trajectory_a"])
    b = _load_trajectory(opts["trajectory_b"])
    rows, worst = _comparison(a, b)
    write_csv(out / "comparison.csv", "t,wiener2_diff", rows, spec)
    write_json(
        out / "summary.json",
        {"max_wiener2_diff": worst, "shared_nodes": len(rows)},
        spec,
    )
    return {"artifacts": ["comparison.csv", "summary.json"], "max_wiener2_diff": worst}


def _run_radius(spec: RunSpec, out: Path) -> dict:
    opts = spec.mode_options
    if "trajectory" not in opts:
        raise ValidationError("radius needs mode_options.trajectory")
    traj = _load_trajectory(opts["trajectory"])
    where = "mode_options."
    alpha = spec.alpha
    if alpha is None:
        alpha = _option(opts, "alpha", None, _float_or_none, where)
    if alpha is None:
        raise ValidationError("radius needs an alpha (flag, config or mode_options)")
    floor = _option(opts, "floor", 1e-12, float, where)
    window = _list_option(opts, "fit_window", [0.5, float(traj.times[-1])], float, where)
    if len(window) != 2:
        raise ValidationError(f"mode_options.fit_window must be [t_lo, t_hi], got {window}")
    t_lo, t_hi = window
    rows = []
    fit_points = []
    for t, field in zip(traj.times, traj.fields):
        try:
            fit = analyticity_radius(field, floor)
        except ValueError:
            continue
        rows.append(f"{_fmt(t)},{_fmt(fit.rho)},{_fmt(fit.r_squared)},{fit.n_shells}")
        if t_lo <= t <= t_hi:
            fit_points.append((float(t), fit.rho))
    if len(fit_points) < 2:
        raise ValidationError(
            f"radius fit window [{t_lo}, {t_hi}] contains {len(fit_points)} usable nodes; need >= 2"
        )
    fit_times, fit_radii = zip(*fit_points)
    intercept, slope, r_squared = _line_fit(fit_times, fit_radii)
    summary = {
        "alpha": alpha,
        "slope": slope,
        "intercept": intercept,
        "r_squared": r_squared,
        "slope_minus_alpha": slope - alpha,
        "fit_window": [t_lo, t_hi],
        "n_points": len(fit_points),
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
    out.mkdir(parents=True, exist_ok=True)
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
    except (ValidationError, ValueError) as err:
        return _fail(mode, err, EXIT_VALIDATION)
    except CertificateError as err:
        return _fail(mode, err, EXIT_CERTIFICATE)
    except NumericalError as err:
        return _fail(mode, err, EXIT_NUMERICAL)
    except OSError as err:
        return _fail(mode, err, EXIT_NUMERICAL)
    payload = {"status": "ok", "mode": mode, "exit_code": EXIT_OK, **result}
    print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


def _fail(mode: str, err: Exception, code: int) -> int:
    payload = {
        "status": "error",
        "mode": mode,
        "exit_code": code,
        "error": {"type": type(err).__name__, "message": str(err)},
    }
    print(json.dumps(payload, sort_keys=True))
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
