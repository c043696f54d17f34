"""Artifact gate: the benchmark's runs on a parent revision and on this checkout, compared.

Run from the root of a checkout:

    python3 tools/artifact_gate.py --parent <rev>

``git archive`` extracts ``<rev>`` into a temporary directory.  On both trees
the ``epitaxy`` command line (``python -m epitaxy.cli`` on the tree's ``src``)
runs the benchmark's items at the benchmark's sizes with this checkout's
``perfbench`` configs: the five solves, the two 2-D ``compare`` read-backs
and the operator probe.  Both trees run in directories of their own under
the same relative output paths, so identical runs write identical bytes.

Gates, one verdict per file:
- the trajectories (``.npy`` and manifest), ``certificate.json``,
  ``initial_field.json`` and ``run.json`` of every solve are byte-identical;
- every other file is byte-identical, or holds the same text apart from its
  numbers, each within ``RTOL`` (1e-15) relative.  So the ``pass`` column,
  booleans and Picard iteration counts must be equal.

The report lists each file's verdict, the Picard iteration counts and the
largest relative difference per file.  A ``.npy`` table that differs fails,
and the next line gives the size of the change: its largest
|change - parent| relative to the parent table's largest entry.  Exit code 0
means every gate passed, 1 that one failed, 2 that a run could not be made.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import re
import runpy
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
WORKLOADS = ("corpus-1d", "solve-2d", "probe")
RTOL = 1e-15
# files of a solve that must keep their bytes
BYTE_IDENTICAL = (
    "picard_trajectory.npy",
    "picard_trajectory.json",
    "stepper_trajectory.npy",
    "stepper_trajectory.json",
    "certificate.json",
    "initial_field.json",
    "run.json",
)
NUMBER = re.compile(r"-?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|inf)|nan")


def _bench() -> SimpleNamespace:
    """This checkout's ``perfbench/run.py``, for its workload items and config writer."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        return SimpleNamespace(**runpy.run_path(str(PERFBENCH / "run.py")))
    finally:
        sys.path.remove(str(PERFBENCH))


def extract(rev: str, into: Path) -> Path:
    """The files of ``rev`` under ``into``, by ``git archive``."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev],
        check=True,
        capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return into


def run_items(src: Path, work: Path) -> None:
    """Every benchmark item with the package under ``src``, outputs under ``work/out``."""
    bench = _bench()
    env = {**os.environ, "PYTHONPATH": str(src)}
    work.mkdir(parents=True)

    def cli(mode: str, config: str) -> None:
        done = subprocess.run(
            [sys.executable, "-m", "epitaxy.cli", mode, "--config", config],
            cwd=work,
            env=env,
            capture_output=True,
            text=True,
        )
        if done.returncode != 0:
            raise RuntimeError(f"{mode} {config} in {src} exited {done.returncode}: {done.stdout}")

    for workload in WORKLOADS:
        for item in bench.workload_items(workload, bench.DEFAULT_SEEDS[workload]):
            out = Path("out") / item.name
            config = f"{item.name}.json"
            bench.write_config(work / config, item.config, out)
            cli(item.mode, config)
            if item.compare:
                config = f"{item.name}-compare.json"
                bench.write_config(
                    work / config,
                    item.config,
                    Path("out") / f"{item.name}-compare",
                    trajectory_a=str(out / bench.TRAJECTORY_FILES[0]),
                    trajectory_b=str(out / bench.TRAJECTORY_FILES[1]),
                )
                cli("compare", config)


def _relative(a: float, b: float) -> float:
    if a == b:  # also equal infinities
        return 0.0
    if math.isnan(a) and math.isnan(b):
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def _numbers(text: str) -> tuple[list[str], list[float]]:
    """``text`` split into its non-number pieces and its numbers."""
    return NUMBER.split(text), [float(n) for n in NUMBER.findall(text)]


def compare_file(name: str, parent: bytes, change: bytes):
    """(passed, verdict) for one file's bytes on the parent and on the change."""
    if parent == change:
        return True, "byte-identical"
    if name in BYTE_IDENTICAL or not name.endswith((".csv", ".json")):
        return False, "bytes differ"
    try:
        text_a, text_b = parent.decode("utf-8"), change.decode("utf-8")
    except UnicodeDecodeError:
        return False, "bytes differ"
    pieces_a, numbers_a = _numbers(text_a)
    pieces_b, numbers_b = _numbers(text_b)
    if pieces_a != pieces_b or len(numbers_a) != len(numbers_b):
        return False, "text differs apart from its numbers"
    worst = max(_relative(a, b) for a, b in zip(numbers_a, numbers_b))
    verdict = f"numbers within {worst:.2g} relative of {len(numbers_a)}"
    return worst <= RTOL, verdict + ("" if worst <= RTOL else f", above {RTOL:g}")


def table_change(parent: bytes, change: bytes) -> str:
    """How far a ``.npy`` table moved: its largest |change - parent| relative
    to the parent's largest entry, or why that cannot be said."""
    try:
        a, b = (np.load(io.BytesIO(raw), allow_pickle=False) for raw in (parent, change))
    except (ValueError, EOFError, OSError) as err:
        return f"not comparable as tables: {err}"
    if a.shape != b.shape:
        return f"table shapes differ: {a.shape} -> {b.shape}"
    worst = float(np.max(np.abs(b - a), initial=0.0))
    scale = float(np.max(np.abs(a), initial=0.0))
    if scale == 0.0:
        return f"largest |change - parent| {worst:.2g}, on a parent table of zeros"
    return f"largest |change - parent| {worst / scale:.2g} of the parent's largest entry"


def picard_iterations(out: Path) -> dict[str, int]:
    """Picard iteration count of every solve under ``out``, from its ``summary.json``."""
    counts = {}
    for summary in sorted(out.glob("*/summary.json")):
        body = json.loads(summary.read_text(encoding="utf-8"))
        if "iterations" in body:
            counts[summary.parent.name] = body["iterations"]
    return counts


def compare_outputs(parent: Path, change: Path) -> tuple[bool, list[str]]:
    """Every gate on two output trees; (all passed, one report line per file and count)."""
    names = set()
    for root in (parent, change):
        names |= {path.relative_to(root).as_posix() for path in root.rglob("*") if path.is_file()}
    names = sorted(names)
    if not names:
        return False, ["FAIL no outputs to compare"]
    lines, passed = [], True
    for name in names:
        a, b = parent / name, change / name
        if not (a.is_file() and b.is_file()):
            ok, verdict = False, f"only in {'change' if b.is_file() else 'parent'}"
        else:
            ok, verdict = compare_file(Path(name).name, a.read_bytes(), b.read_bytes())
        passed = passed and ok
        lines.append(f"{'ok  ' if ok else 'FAIL'} {name}: {verdict}")
        if not ok and name.endswith(".npy") and a.is_file() and b.is_file():
            lines.append(f"     {name}: {table_change(a.read_bytes(), b.read_bytes())}")
    counts_a, counts_b = picard_iterations(parent), picard_iterations(change)
    for item in sorted(set(counts_a) | set(counts_b)):
        ok = counts_a.get(item) == counts_b.get(item)
        passed = passed and ok
        lines.append(
            f"{'ok  ' if ok else 'FAIL'} {item}: Picard iterations "
            f"{counts_a.get(item)} -> {counts_b.get(item)}"
        )
    return passed, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="artifact-gate-") as tmp:
        tmp = Path(tmp)
        try:
            parent_src = extract(args.parent, tmp / "parent-tree") / "src"
            run_items(parent_src, tmp / "parent")
            run_items(ROOT / "src", tmp / "change")
        except (subprocess.CalledProcessError, RuntimeError) as err:
            stderr = getattr(err, "stderr", b"") or b""
            print(f"cannot run the gate: {err} {stderr.decode(errors='replace')}", file=sys.stderr)
            return 2
        passed, lines = compare_outputs(tmp / "parent" / "out", tmp / "change" / "out")
    print("\n".join(lines))
    print(f"artifact gate against {args.parent}: {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
