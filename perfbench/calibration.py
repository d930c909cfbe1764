"""Host-speed calibration for the end-to-end times.

The measuring host's speed drifts by up to a factor of two to three over
minutes (other tenants, frequency scaling), far beyond what a run can
average away.  A fixed kernel that touches nothing of the simulator is timed
between the passes of a run; the end-to-end times are reported scaled
to a host on which that kernel takes :data:`NOMINAL_S`.  A change to the
simulator moves the passes and not the kernel, so it shows in full; a
slower host moves both and cancels.

The kernel mixes the kinds of work the workloads do: pure-Python graph
traversal over dicts and lists, many small numpy calls, and JSON
encoding with hashing.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
import time
from typing import List

import numpy as np

#: Seconds the kernel takes on the reference host speed (speed factor 1).
NOMINAL_S = 0.1
#: Kernel runs per sample, taken before every pass and after the last.
RUNS_PER_SAMPLE = 3


def _python_graph() -> int:
    rng = random.Random(12345)
    n = 3000
    adjacency: dict = {v: [] for v in range(n)}
    for _ in range(4 * n):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            adjacency[a].append(b)
            adjacency[b].append(a)
    total = 0
    for root in range(0, 24, 4):
        depth = {root: 0}
        frontier = [root]
        while frontier:
            following = []
            for u in frontier:
                d = depth[u] + 1
                for w in adjacency[u]:
                    if w not in depth:
                        depth[w] = d
                        following.append(w)
            frontier = following
        total += sum(depth.values())
    return total


def _numpy_small_calls() -> int:
    rng = np.random.default_rng(12345)
    x = rng.integers(0, 1 << 20, size=100_000)
    acc = 0
    for start in range(0, 600_000, 2000):
        y = x[start % 98_000:start % 98_000 + 2000] * 3 + 1
        acc += int(np.bincount(y % 64, minlength=64).argmax())
        acc += int(np.flatnonzero(y & 1).size)
    order = np.argsort(x, kind="stable")
    return acc + int(np.cumsum(x[order])[-1] % 1000)


def _encode_and_hash() -> int:
    record = {
        "positions": {str(i): (i * 7919) % 1000 for i in range(600)},
        "rounds": list(range(600)),
        "label": "calibration",
    }
    acc = 0
    for _ in range(40):
        text = json.dumps(record, sort_keys=True)
        acc ^= int(hashlib.sha256(text.encode("utf-8")).hexdigest()[:8], 16)
        acc ^= len(json.loads(text)["positions"])
    return acc


def kernel_seconds() -> float:
    """One timed run of the calibration kernel."""
    t0 = time.perf_counter()
    _python_graph()
    _numpy_small_calls()
    _encode_and_hash()
    return time.perf_counter() - t0


class Calibration:
    """Kernel timings collected over a run, in the benchmark's own
    process.  (Timing it in forked processes pinned to each CPU, one
    after another or at once, tracked the passes worse: a fresh process
    adds first-touch costs to every sample.)"""

    def __init__(self) -> None:
        self.samples: List[float] = []
        kernel_seconds()  # warm-up: first-call costs stay out of the samples

    def sample(self) -> List[float]:
        """Time the kernel :data:`RUNS_PER_SAMPLE` times; returns the
        new timings."""
        new = [kernel_seconds() for _ in range(RUNS_PER_SAMPLE)]
        self.samples.extend(new)
        return new

    @property
    def kernel_ms(self) -> float:
        """Median kernel time of the run, in milliseconds."""
        return 1000.0 * statistics.median(self.samples)

    @property
    def slowdown(self) -> float:
        """How much slower than the reference speed the host ran: host
        seconds divided by this are reference seconds."""
        return statistics.median(self.samples) / NOMINAL_S
