"""Benchmark of the epitaxy command line on three fixed workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload corpus-1d --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Every operation is an in-process ``epitaxy.cli.main([...])`` call, one at a
time (a closed loop with one client).  Each operation's outputs are checked;
a failed check is counted and logged, and the run goes on.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it carries the details (seeds,
versions, per-operation medians, sample counts, hashes, failures).
Operation times are scaled to reference-host seconds by a fixed task timed
around each operation (see ``calibration.py``).

``--trace 0`` reports the end-to-end metrics and installs no hooks.
``--trace 1`` alternates untraced and traced passes and reports per-layer
metrics per traced pass, plus the tracing overhead.  See README.md for the
workloads and the layer-to-metric map.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from calibration import REFERENCE_TASK_S, reference_seconds
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

GAP_LIMIT = 1e-6  # engines must agree to this in the Wiener-2 norm
SETUP_REPEATS = 9
TRAJECTORY_FILES = ("picard_trajectory.json", "stepper_trajectory.json")

WORKLOADS = ("corpus-1d", "solve-2d", "probe")
DEFAULT_SEEDS = {"corpus-1d": 7, "solve-2d": 7, "probe": 42}

# The acceptance corpus.  Its random-decay member keeps seed 7: the 1e-6
# engine-agreement claim is made for this corpus, and some other seeds exceed it.
CORPUS_SEED = 7
CORPUS = (
    ("single-mode", {"preset": "single-mode", "amplitude": 0.2}),
    ("two-mode", {"preset": "two-mode", "amplitude": 0.2}),
    ("random-decay", {"preset": "random-decay", "amplitude": 0.2, "seed": CORPUS_SEED}),
)
# Horizons are shorter than the acceptance settings (T = 2 in 1-D, 0.25 in 2-D,
# 2 for the probe) so that many operations fit in one timed run, each short
# enough for the reference task timed around it to track the host's speed.
SIZES = {
    "full": {
        "corpus-1d": {"truncation": 16, "dt": 1e-3, "t_final": 0.5},
        "solve-2d": {"truncation": 16, "dt": 1e-3, "t_final": 0.1},
        "probe": {"trajectories": 100, "max_truncation": 16, "t_final": 0.5, "dt": 0.01},
    },
    "smoke": {
        "corpus-1d": {"truncation": 4, "dt": 1e-3, "t_final": 0.05},
        "solve-2d": {"truncation": 4, "dt": 1e-3, "t_final": 0.05},
        "probe": {"trajectories": 4, "max_truncation": 4, "t_final": 0.2, "dt": 0.01},
    },
}
PROBE_ALPHAS = [0.1, 0.5, 0.9]


class CheckFailed(Exception):
    """An operation ran but its outputs are wrong."""


@dataclass(frozen=True)
class Item:
    """One unit of a pass: a solve (optionally read back) or a probe run."""

    name: str
    mode: str
    config: dict
    compare: bool = False
    cases: int = 0


def workload_items(workload: str, seed: int, size: str = "full") -> list[Item]:
    sizes = SIZES[size][workload]
    if workload == "probe":
        options = {**sizes, "alphas": PROBE_ALPHAS, "dims": [1, 2]}
        config = {"solver": {"truncation": 16}, "seed": seed, "mode_options": options}
        cases = sizes["trajectories"] * len(PROBE_ALPHAS)
        return [Item("probe", "probe-operator", config, cases=cases)]
    if workload == "corpus-1d":
        chosen, dim, compare = CORPUS, 1, False
    else:
        chosen, dim, compare = (CORPUS[2], CORPUS[1]), 2, True
    return [
        Item(
            f"{name}-{dim}d",
            "solve",
            {"initial_data": {**initial, "dim": dim}, "solver": dict(sizes), "seed": seed},
            compare=compare,
        )
        for name, initial in chosen
    ]


# -- package access -------------------------------------------------------------


def import_cli():
    """Import ``epitaxy.cli`` from this checkout's ``src``, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("epitaxy.cli")
    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        raise ImportError(f"epitaxy was imported from {cli.__file__}, not from {SRC}")
    return cli


def call_cli(cli, argv: list[str]) -> tuple[int, str]:
    """Run one CLI command in process; returns the exit code and its status line."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    lines = buf.getvalue().strip().splitlines()
    return code, lines[-1] if lines else ""


def write_config(path: Path, config: dict, output_dir: Path, **mode_options) -> str:
    body = {"schema_version": 1, **config, "output_dir": str(output_dir)}
    if mode_options:
        body["mode_options"] = {**config.get("mode_options", {}), **mode_options}
    path.write_text(json.dumps(body, sort_keys=True), encoding="utf-8")
    return str(path)


# -- output checks ----------------------------------------------------------------


def read_summary(out: Path) -> dict:
    return json.loads((out / "summary.json").read_text(encoding="utf-8"))


def check_exit(mode: str, code: int, status: str):
    if code != 0:
        raise CheckFailed(f"{mode} exited {code}: {status}")


def check_solve(out: Path) -> dict:
    summary = read_summary(out)
    if summary.get("certificate_pass") is not True:
        raise CheckFailed(f"certificate_pass is {summary.get('certificate_pass')!r}")
    gap = summary.get("max_engine_difference")
    if not (isinstance(gap, float) and gap <= GAP_LIMIT):
        raise CheckFailed(f"max_engine_difference {gap!r} exceeds {GAP_LIMIT}")
    return summary


def check_compare(out: Path, solve_summary: dict):
    got = read_summary(out).get("max_wiener2_diff")
    want = solve_summary["max_engine_difference"]
    if got != want:
        raise CheckFailed(f"compare max_wiener2_diff {got!r} != solve gap {want!r}")


def check_probe(out: Path, cases: int):
    summary = read_summary(out)
    if summary.get("all_pass") is not True:
        raise CheckFailed(f"probe all_pass is {summary.get('all_pass')!r}")
    if summary.get("cases") != cases:
        raise CheckFailed(f"probe ran {summary.get('cases')!r} cases, expected {cases}")


def check_repeat(known: dict, key: str, digest: str):
    """A repeat of the same operation must write byte-identical trajectories."""
    first = known.setdefault(key, digest)
    if first != digest:
        raise CheckFailed(f"{key} changed between repeats: {first[:12]} -> {digest[:12]}")


@contextlib.contextmanager
def work_dir(prefix: str):
    """A scratch directory under the checkout, removed with its contents afterwards."""
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=prefix, dir=WORK_ROOT))
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


# -- running operations -------------------------------------------------------------


class Runner:
    """Runs items, checks them, and keeps times, hashes and failure counts.

    ``tamper(mode, out)``, when given, edits an operation's outputs before they
    are checked; the self-test uses it to show that bad outputs are counted.
    """

    def __init__(self, cli, work: Path, tamper=None):
        self.cli = cli
        self.work = work
        self.tamper = tamper
        self.tracer: Tracer | None = None
        self.attempted = 0
        self.failures: list[str] = []
        self.times: dict[str, list[float]] = {}  # "<item>:<mode>" -> wall seconds
        self.scaled: dict[str, list[float]] = {}  # the same in reference-host seconds
        self.item_wall: dict[str, list[float]] = {}  # wall times per item, checks included
        self.hashes: dict[str, str] = {}
        self.gaps: dict[str, float] = {}
        self.iterations = 0
        self.artifact_bytes = 0

    def _timed(self, mode: str, config: str, out: Path) -> tuple[float, float]:
        """Run one CLI call; returns its wall seconds and the host-speed factor.

        The reference task is timed right before and right after the call; the
        factor turns the call's wall time into reference-host seconds.
        """
        span = self.tracer.span("cli.main") if self.tracer else contextlib.nullcontext()
        before = reference_seconds(1)
        start = time.perf_counter()
        with span:
            code, status = call_cli(self.cli, [mode, "--config", config])
        elapsed = time.perf_counter() - start
        factor = 2.0 * REFERENCE_TASK_S / (before + reference_seconds(1))
        if self.tamper:
            self.tamper(mode, out)
        check_exit(mode, code, status)
        self.artifact_bytes += tree_bytes(out)
        return elapsed, factor

    def _operation(self, label: str, run) -> float | None:
        """Run one checked operation; a failure is counted and logged, never raised."""
        self.attempted += 1
        try:
            return run()
        except Exception as err:  # noqa: BLE001 - every failure is counted, the run goes on
            self.failures.append(f"{label}: {type(err).__name__}: {err}")
            print(f"FAILED {label}: {type(err).__name__}: {err}", file=sys.stderr)
            if not isinstance(err, CheckFailed):
                traceback.print_exc(file=sys.stderr)
            return None

    def _record(self, key: str, elapsed: float, factor: float):
        self.times.setdefault(key, []).append(elapsed)
        self.scaled.setdefault(key, []).append(elapsed * factor)

    def run_item(self, item: Item) -> float:
        """Run every operation of one item; returns the summed CLI time."""
        start = time.perf_counter()
        out = self.work / item.name
        readback = self.work / f"{item.name}-compare"
        cli_time = 0.0
        try:
            if item.mode == "probe-operator":
                cli_time += self._operation(item.name, lambda: self._probe(item, out)) or 0.0
            else:
                solved = self._operation(f"{item.name} solve", lambda: self._solve(item, out))
                if solved is not None:
                    elapsed, summary = solved
                    cli_time += elapsed
                    if item.compare:
                        cli_time += self._operation(
                            f"{item.name} compare",
                            lambda: self._compare(item, out, readback, summary),
                        ) or 0.0
        finally:
            shutil.rmtree(out, ignore_errors=True)
            shutil.rmtree(readback, ignore_errors=True)
        self.item_wall.setdefault(item.name, []).append(time.perf_counter() - start)
        return cli_time

    def _solve(self, item: Item, out: Path):
        config = write_config(self.work / f"{item.name}.json", item.config, out)
        elapsed, factor = self._timed("solve", config, out)
        summary = check_solve(out)
        for name in TRAJECTORY_FILES:
            check_repeat(self.hashes, f"{item.name}/{name}", sha256(out / name))
        self.gaps[item.name] = summary["max_engine_difference"]
        self.iterations += int(summary["iterations"])
        self._record(f"{item.name}:solve", elapsed, factor)
        return elapsed, summary

    def _compare(self, item: Item, solved: Path, out: Path, summary: dict) -> float:
        config = write_config(
            self.work / f"{item.name}-compare.json",
            item.config,
            out,
            trajectory_a=str(solved / TRAJECTORY_FILES[0]),
            trajectory_b=str(solved / TRAJECTORY_FILES[1]),
        )
        elapsed, factor = self._timed("compare", config, out)
        check_compare(out, summary)
        self._record(f"{item.name}:compare", elapsed, factor)
        return elapsed

    def _probe(self, item: Item, out: Path) -> float:
        config = write_config(self.work / f"{item.name}.json", item.config, out)
        elapsed, factor = self._timed("probe-operator", config, out)
        check_probe(out, item.cases)
        self._record(f"{item.name}:probe-operator", elapsed, factor)
        return elapsed

    def run_pass(self, items: list[Item]) -> float:
        return sum(self.run_item(item) for item in items)

    def medians(self, scaled: bool = True) -> dict[str, float]:
        times = self.scaled if scaled else self.times
        return {key: statistics.median(values) for key, values in times.items()}


# -- set-up ---------------------------------------------------------------------------


def setup(items: list[Item], work: Path):
    """Import the package, build each item's config and initial data, fill caches.

    ``epitaxy certify`` on each item's config is the cheapest CLI call that
    parses the config, constructs the preset and fills the mode-grid caches.
    numpy is imported before the clock starts: its import is a fixed
    third-party cost that swings by 2x or more on a shared host.  Returns the
    CLI module and the seconds this took.
    """
    import numpy  # noqa: F401

    start = time.perf_counter()
    cli = import_cli()
    for item in items:
        out = work / f"setup-{item.name}"
        config = write_config(work / f"setup-{item.name}.json", item.config, out)
        code, status = call_cli(cli, ["certify", "--config", config])
        if code != 0:
            raise RuntimeError(f"set-up certify of {item.name} exited {code}: {status}")
    elapsed = time.perf_counter() - start
    for item in items:
        shutil.rmtree(work / f"setup-{item.name}", ignore_errors=True)
    return cli, elapsed


class SetupSampler:
    """Set-up seconds from fresh interpreters, so import costs count every time.

    Samples are spread over the run, one before each operation, so that their
    median does not hinge on the machine's state in the run's first seconds.
    """

    def __init__(self, workload: str, seed: int, count: int):
        self.argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
                     "--workload", workload, "--seed", str(seed)]
        self.remaining = count
        self.samples: list[float] = []
        self.wall = 0.0  # longest wall time of one sample, interpreter start included

    def take(self):
        if self.remaining <= 0:
            return
        start = time.perf_counter()
        proc = subprocess.run(self.argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process exited {proc.returncode}: {proc.stderr.strip()}")
        self.samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
        self.remaining -= 1
        self.wall = max(self.wall, time.perf_counter() - start)

    def reserve(self) -> float:
        """Seconds the samples still to take are expected to need."""
        return self.remaining * self.wall


# -- measurement loops ------------------------------------------------------------------


def measure_untraced(
    runner: Runner, items: list[Item], deadline: float, setup: SetupSampler
) -> int:
    """Cycle through the items until the next one would overrun the deadline."""
    passes = 0
    while True:
        for item in items:
            needed = statistics.median(runner.item_wall.get(item.name, [0.0])) + setup.reserve()
            if passes and time.perf_counter() + needed > deadline:
                while setup.remaining:
                    setup.take()
                return passes
            setup.take()
            runner.run_item(item)
        passes += 1


def measure_traced(runner: Runner, items: list[Item], deadline: float) -> dict:
    """Alternate untraced and traced passes; per-layer figures per traced pass."""
    tracer = Tracer()
    plain, traced = [], []
    iterations = artifact_bytes = 0
    while not traced or time.perf_counter() + plain[-1] + traced[-1] <= deadline:
        plain.append(runner.run_pass(items))
        before = (runner.iterations, runner.artifact_bytes)
        runner.tracer = tracer
        with tracer.install():
            traced.append(runner.run_pass(items))
        runner.tracer = None
        iterations += runner.iterations - before[0]
        artifact_bytes += runner.artifact_bytes - before[1]
    passes = len(traced)
    values, absent = tracer.metrics()
    per_pass = {name: value / passes for name, value in values.items()}
    per_pass["picard.iterations"] = iterations / passes
    per_pass["cli.artifact_bytes"] = artifact_bytes / passes
    if "picard.solve_picard.busy_s" in per_pass:
        busy = per_pass["picard.solve_picard.busy_s"]
        per_pass["picard.iter_s"] = busy / per_pass["picard.iterations"] if iterations else 0.0
    else:
        absent.append("picard.iter_s")
    if statistics.median(plain) > 0.0:
        per_pass["trace_overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    else:  # every untraced operation failed
        absent.append("trace_overhead_frac")
    return {"values": per_pass, "absent": absent, "passes": passes, "spans": len(tracer.spans)}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "cli.artifact_bytes":
        return "B"
    if name == "spectral.fft_points":
        return "points"
    if name == "trace_overhead_frac":
        return "frac"
    return "count"


# -- entry points -------------------------------------------------------------------------


def environment(workload: str, seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seeds": {
            "workload": seed,
            "probe_rng": seed if workload == "probe" else None,
            "random_decay": CORPUS_SEED if workload != "probe" else None,
        },
    }


def run_benchmark(args) -> int:
    started = time.perf_counter()
    deadline = started + args.seconds
    items = workload_items(args.workload, args.seed)
    with work_dir(f"{args.workload}-") as work:
        cli, _ = setup(items, work)
        runner = Runner(cli, work)
        details = {"workload": args.workload, "trace": args.trace, **environment(args.workload, args.seed)}
        if args.trace:
            traced = measure_traced(runner, items, deadline)
            metrics = {}
            for name, value in traced.pop("values").items():
                unit = layer_unit(name)
                if unit != "s" and unit != "frac" and float(value).is_integer():
                    value = int(value)
                metrics[name] = {"value": value, "unit": unit}
            details.update(traced)
        else:
            sampler = SetupSampler(args.workload, args.seed, SETUP_REPEATS)
            passes = measure_untraced(runner, items, deadline, sampler)
            medians = runner.medians()
            wall_medians = runner.medians(scaled=False)
            by_mode = {
                mode: sum(v for k, v in medians.items() if k.endswith(f":{mode}"))
                for mode in ("solve", "compare", "probe-operator")
            }
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "setup_s": {"value": statistics.median(sampler.samples), "unit": "s"},
                "pass_s": {"value": sum(medians.values()), "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
            }
            details.update(
                passes=passes,
                setup_samples=sampler.samples,
                samples={key: len(values) for key, values in runner.times.items()},
                times=runner.scaled,
                wall_times=runner.times,
                medians=medians,
                wall_medians=wall_medians,
                wall_pass_s=sum(wall_medians.values()),
                solve_s=by_mode["solve"],
                compare_s=by_mode["compare"],
                probe_s=by_mode["probe-operator"],
                engine_gap_w2=max(runner.gaps.values(), default=None),
            )
        details.update(
            failed_frac=len(runner.failures) / max(runner.attempted, 1),
            failures=runner.failures,
            hashes=runner.hashes,
            elapsed_s=time.perf_counter() - started,
        )
    print(json.dumps({"details": details}, sort_keys=True))
    result = {
        "correct": not runner.failures and runner.attempted > 0,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def run_setup_only(args) -> int:
    with work_dir("setup-") as work:
        _, elapsed = setup(workload_items(args.workload, args.seed), work)
    print(json.dumps({"setup_s": elapsed}))
    return 0


def run_smoke() -> int:
    """Every operation and check once on tiny sizes, traced and untraced, plus
    tampered outputs that must each be counted as exactly one failure."""
    problems = []
    with work_dir("smoke-") as work:
        cli = import_cli()
        for workload in WORKLOADS:
            items = workload_items(workload, DEFAULT_SEEDS[workload], size="smoke")
            runner = Runner(cli, work)
            runner.run_pass(items)
            traced = measure_traced(runner, items, deadline=0.0)
            problems += runner.failures
            if traced["absent"]:
                problems.append(f"{workload}: absent per-layer metrics {traced['absent']}")
            print(f"smoke {workload}: {runner.attempted} operations, "
                  f"{len(runner.failures)} failed, {traced['spans']} spans")

        def set_summary(key, value):
            def tamper(mode, out):
                if mode in ("solve", "probe-operator"):
                    path = out / "summary.json"
                    summary = json.loads(path.read_text())
                    summary[key] = value(summary[key])
                    path.write_text(json.dumps(summary))
            return tamper

        def edit_second_trajectory():
            calls = []

            def tamper(mode, out):
                calls.append(mode)
                if mode == "solve" and len(calls) > 1:
                    with open(out / TRAJECTORY_FILES[0], "a", encoding="utf-8") as fh:
                        fh.write("\n")
            return tamper

        solve_1d = workload_items("corpus-1d", CORPUS_SEED, size="smoke")[:1]
        solve_2d = workload_items("solve-2d", CORPUS_SEED, size="smoke")[:1]
        probe = workload_items("probe", DEFAULT_SEEDS["probe"], size="smoke")
        cases = {
            "gap over the limit": (solve_1d, set_summary("max_engine_difference", lambda g: 2 * GAP_LIMIT)),
            "gap not matched by compare": (solve_2d, set_summary("max_engine_difference", lambda g: g * (1 + 1e-9))),
            "probe all_pass false": (probe, set_summary("all_pass", lambda p: False)),
            "probe case count": (probe, set_summary("cases", lambda c: c - 1)),
            "trajectory bytes changed on repeat": (solve_1d * 2, edit_second_trajectory()),
        }
        for label, (items, tamper) in cases.items():
            runner = Runner(cli, work, tamper=tamper)
            runner.run_pass(items)
            counted = len(runner.failures) == 1
            print(f"smoke tamper {label}: {'counted' if counted else 'NOT counted'} "
                  f"({len(runner.failures)} of {runner.attempted} failed)")
            if not counted:
                problems.append(f"tamper '{label}' gave {len(runner.failures)} failures, expected 1")
    for problem in problems:
        print(f"SMOKE PROBLEM {problem}", file=sys.stderr)
    print("smoke ok" if not problems else f"smoke failed: {len(problems)} problems")
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny self-test of every operation and check")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "epitaxy" / "__init__.py").is_file():
        print(f"no epitaxy package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    if args.smoke:
        return run_smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed is None:
        args.seed = DEFAULT_SEEDS[args.workload]
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return run_setup_only(args) if args.setup_only else run_benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
