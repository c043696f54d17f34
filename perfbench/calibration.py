"""Host-speed calibration: a fixed reference task timed next to each operation.

The benchmark runs on shared hosts whose speed drifts by up to 2x in phases
of tens of seconds, which swamps any change in the program.  A fixed task
that never touches ``epitaxy`` is timed right before and right after each
operation; the operation's wall time, scaled by the reference task's nominal
duration over its measured one, is its time in reference-host seconds.  The
task mixes the kinds of work the workloads do: interpreter-bound loops over
tiny arrays and small FFTs, 2-D FFTs on a padded 66x66 grid, and JSON
encoding and decoding of float arrays.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

# About the median duration of ``reference_task`` on the reference host, a 2-core
# Intel Xeon container with Python 3.11 and numpy 2.4.
REFERENCE_TASK_S = 0.1

_SMALL = np.linspace(0.0, 1.0, 33) + 0.5j
_GRID = np.outer(np.linspace(0.0, 1.0, 66), np.linspace(1.0, 2.0, 66)) + 0.25j
_ROWS = np.linspace(0.0, 1.0, 3000).tolist()


def reference_task() -> float:
    """A fixed mix of interpreter, FFT and JSON work; returns a checksum."""
    acc = 0.0
    for i in range(3000):
        field = np.fft.ifft(_SMALL * (1.0 + i * 1e-9))
        acc += float(np.abs(field).max()) + sum(k * 0.5 for k in range(20))
    for _ in range(400):
        acc += float(np.abs(np.fft.ifft2(_GRID)).sum())
    for _ in range(4):
        acc += sum(json.loads(json.dumps({"re": _ROWS, "im": _ROWS}))["re"])
    return acc


def reference_seconds(repeats: int = 3) -> float:
    """Median wall time of ``repeats`` runs of the reference task."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        reference_task()
        times.append(time.perf_counter() - start)
    return statistics.median(times)
