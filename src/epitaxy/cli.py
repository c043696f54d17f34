"""Command-line orchestration: configuration, run modes, artifact emission.

Usage:
    epitaxy <mode> --config <path> [--alpha <f>] [--out <dir>] [--seed <u64>]
            [--override-certificate]

Modes: solve, certify, probe-operator, sweep, compare, radius.  Exit codes:
0 success, 2 validation error, 3 certificate failure without override,
4 numerical failure.  ``solve``, and ``sweep`` with ``solve: true``, are
refused up front (exit 2) when the trajectories they would hold exceed the
machine's physical memory.

Artifacts are plain JSON and CSV; every artifact embeds the fully resolved
run specification, and identical specifications (including the seed)
reproduce byte-identical files.  JSON artifacts have the layout of
``json.dumps(body, indent=2, sort_keys=True)`` and are written as a stream.
"""

from __future__ import annotations

import argparse
import json
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
    solver: dict
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
            "solver": self.solver,
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


def _solver_from_dict(d: dict) -> SolverConfig:
    if "truncation" not in d:
        raise ValidationError("solver config needs a 'truncation' entry")
    taylor_spec = d.get("taylor", {"tail_tol": 1e-12})
    if "max_j" in taylor_spec:
        taylor = TaylorDepth.fixed(int(taylor_spec["max_j"]))
    elif "tail_tol" in taylor_spec:
        taylor = TaylorDepth.adaptive(float(taylor_spec["tail_tol"]))
    else:
        raise ValidationError("solver.taylor needs 'max_j' or 'tail_tol'")
    try:
        return SolverConfig(
            truncation=int(d["truncation"]),
            dt=None if d.get("dt") is None else float(d["dt"]),
            t_final=float(d.get("t_final", 4.0)),
            padding=float(d.get("padding", 2.0)),
            taylor=taylor,
            tol=float(d.get("tol", 1e-10)),
            max_iter=int(d.get("max_iter", 200)),
            scheme=str(d.get("scheme", "if-rk4")),
        )
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
        "scheme": config.scheme,
    }


def build_runspec(mode: str, config: dict, args) -> RunSpec:
    solver = _solver_from_dict(config.get("solver", {"truncation": 16}))
    alpha = args.alpha if args.alpha is not None else config.get("alpha")
    seed = args.seed if args.seed is not None else int(config.get("seed", 0))
    out = args.out if args.out is not None else config.get("output_dir", "epitaxy-out")
    override = bool(args.override_certificate or config.get("override_certificate", False))
    initial = config.get("initial_data", {"preset": "single-mode", "amplitude": 0.2})
    if alpha is not None:
        alpha = float(alpha)
    return RunSpec(
        mode=mode,
        initial_data=dict(initial),
        solver=_solver_to_dict(solver),
        alpha=alpha,
        seed=seed,
        output_dir=str(out),
        mode_options=dict(config.get("mode_options", {})),
        override_certificate=override,
    )


def build_initial_field(spec: RunSpec) -> FourierField:
    init = spec.initial_data
    truncation = int(spec.solver["truncation"])
    if "path" in init:
        try:
            with open(init["path"], "r", encoding="utf-8") as fh:
                field = FourierField.from_json_dict(json.load(fh))
        except (OSError, json.JSONDecodeError, KeyError, ValueError) as err:
            raise ValidationError(f"cannot load field from {init['path']}: {err}") from err
        if field.truncation > truncation:
            raise ValidationError(
                f"field truncation {field.truncation} exceeds solver truncation {truncation}"
            )
        return embed(field, truncation)
    name = init.get("preset")
    if name not in presets.PRESETS:
        raise ValidationError(
            f"unknown preset {name!r}; available: {sorted(presets.PRESETS)} or a 'path' entry"
        )
    dim = int(init.get("dim", 1))
    amplitude = float(init.get("amplitude", 0.2))
    try:
        if name == "single-mode":
            return presets.single_mode(truncation, amplitude, k=int(init.get("k", 1)), dim=dim)
        if name == "two-mode":
            return presets.two_mode(truncation, amplitude, dim=dim)
        return presets.random_decay(
            truncation,
            seed=int(init.get("seed", spec.seed)),
            amplitude=amplitude,
            decay=float(init.get("decay", 3.0)),
            dim=dim,
        )
    except ValueError as err:
        raise ValidationError(f"invalid initial data: {err}") from err


# Coefficient arrays of one trajectory's size alive at the peak of a Picard
# iteration: the linear flow, the current iterate, the series sum, its Duhamel
# integral, the new iterate and the differences whose norms are taken.  Traced
# with tracemalloc at 1,001 nodes in 2-D and 20,001 nodes in 1-D, the peak was
# 7.5 and 8.6 trajectory sizes.
PICARD_LIVE_TRAJECTORIES = 8


def check_memory(config: SolverConfig, dim: int) -> None:
    """Refuse a solve whose trajectories would not fit in physical memory."""
    nodes = config.n_steps() + 1
    estimate = nodes * (2 * config.truncation + 1) ** dim * 16 * PICARD_LIVE_TRAJECTORIES
    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if estimate > physical:
        raise ValidationError(
            f"solve would need about {estimate / 2**30:.3g} GiB for {nodes} time nodes "
            f"({PICARD_LIVE_TRAJECTORIES} trajectories of {(2 * config.truncation + 1) ** dim} "
            f"modes), more than the {physical / 2**30:.3g} GiB of physical memory; "
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
    config = _solver_from_dict(spec.solver)
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
    count = int(opts.get("trajectories", 100))
    alphas = [float(a) for a in opts.get("alphas", [0.1, 0.5, 0.9])]
    dims = [int(d) for d in opts.get("dims", [1, 2])]
    max_truncation = int(opts.get("max_truncation", 16))
    t_final = float(opts.get("t_final", 2.0))
    dt = float(opts.get("dt", 0.01))
    if count < 1 or not alphas or not dims:
        raise ValidationError("probe-operator needs trajectories >= 1, alphas and dims")
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
        config = _solver_from_dict(spec.solver)
        try:
            _, diag = solve_picard(h0, cert, config, allow_uncertified=True)
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
    amplitudes = [float(a) for a in opts.get("amplitudes", [0.20, 0.24, 0.249, 0.251, 0.30])]
    if not amplitudes:
        raise ValidationError("sweep needs a nonempty 'amplitudes' list")
    do_solve = bool(opts.get("solve", False))
    if do_solve:
        dim = build_initial_field(_with_amplitude(spec, amplitudes[0])).dim
        check_memory(_solver_from_dict(spec.solver), dim)
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
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as err:
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
    alpha = spec.alpha if spec.alpha is not None else opts.get("alpha")
    if alpha is None:
        raise ValidationError("radius needs an alpha (flag, config or mode_options)")
    alpha = float(alpha)
    floor = float(opts.get("floor", 1e-12))
    window = opts.get("fit_window", [0.5, float(traj.times[-1])])
    t_lo, t_hi = float(window[0]), float(window[1])
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
    result.setdefault("artifacts", [])
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
