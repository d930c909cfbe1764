"""In-memory span tracing around the calls into each layer of ``repro``.

The tracer wraps public functions and methods of the simulator from the
outside (no source under ``src/`` changes): :func:`install` swaps each
traced attribute for a wrapper and returns a handle whose ``uninstall``
puts the originals back.  Untraced runs never install anything.

A span is ``(id, parent, layer, op, start, end, run_id, pid)``; the run
id names the benchmark pass.  Each pass runs in its own forked process,
and pool workers fork from it, all with the wrappers installed.  Spans
stay in the memory of the process that records them until its top-level
span closes; it then appends them, with its counters, to
``<spool_dir>/<pid>.jsonl``.  ``run.py`` merges those files and writes
every span out when the run ends.
"""

from __future__ import annotations

import functools
import json
import os
import pickle
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: The layers the benchmark reports, in print order (layer = module).
LAYERS = (
    "graph.dynamic",
    "graph.validation",
    "sim.backend",
    "sim.backend_vectorized",
    "sim.engine",
    "sim.spec",
    "sim.store",
    "sim.runner",
)
#: The engine phase primitives timed on both backends.
PHASES = (
    "observe",
    "activate",
    "compute",
    "move",
    "settle",
    "audit_memory",
    "count_occupied_components",
)
#: Spans the benchmark opens itself; their self time is unattributed.
BENCH_LAYER = "perfbench"

Span = Tuple[int, Optional[int], str, str, float, float, str, int]


def per_layer_metrics() -> Dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units: Dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units.update({
        "graph.dynamic.snapshot_s": "s",
        "graph.dynamic.snapshot_calls": "count",
        "graph.dynamic.snapshot_ms_p50": "ms",
        "graph.dynamic.snapshot_ms_p99": "ms",
        "graph.validation.validate_s": "s",
        "graph.validation.validate_calls": "count",
    })
    for layer in ("sim.backend", "sim.backend_vectorized"):
        for phase in PHASES:
            units[f"{layer}.{phase}_s"] = "s"
            units[f"{layer}.{phase}_calls"] = "count"
    units.update({
        "sim.engine.rounds": "count",
        "sim.engine.round_ms_p50": "ms",
        "sim.engine.round_ms_p99": "ms",
        "sim.spec.build_s": "s",
        "sim.spec.digest_s": "s",
        "sim.store.get_s": "s",
        "sim.store.get_ms_p50": "ms",
        "sim.store.get_ms_p99": "ms",
        "sim.store.checksum_s": "s",
        "sim.store.decode_s": "s",
        "sim.store.encode_s": "s",
        "sim.store.put_s": "s",
        "sim.store.put_ms_p50": "ms",
        "sim.store.hits": "count",
        "sim.store.misses": "count",
        "sim.store.corrupt": "count",
        "sim.store.hit_ratio": "ratio",
        "sim.store.bytes_read": "bytes",
        "sim.store.bytes_written": "bytes",
        "sim.runner.run_s": "s",
        "sim.runner.worker_busy_s": "s",
        "sim.runner.overhead_s": "s",
        "sim.runner.units": "count",
        "sim.runner.retries": "count",
        "sim.runner.pickle_bytes": "bytes",
        "backend.speedup": "ratio",
        "trace.wall_s": "s",
        "trace.untraced_wall_s": "s",
        "trace.overhead_s": "s",
        "trace.unattributed_s": "s",
        "host.kernel_ms": "ms",
    })
    return units

class Tracer:
    """Collects spans and counters for one benchmark process tree."""

    def __init__(self, spool_dir: str) -> None:
        self.spool_dir = spool_dir
        self.pid = os.getpid()
        self.root_pid = self.pid
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        # Open spans as (id, layer, op), innermost last.
        self.stack: List[Tuple[int, str, str]] = []
        self.run_id = ""
        self.enabled = False
        self._serial = 0
        self._fork_depth = 0
        self.last_path: Optional[str] = None
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        if not self.enabled:
            return
        self.pid = os.getpid()
        self.spans = []
        self.counts = defaultdict(float)
        self._serial = 0
        # Spans open in the parent at fork time stay on the stack as the
        # parents of this process's spans; they are never closed here.
        self._fork_depth = len(self.stack)

    def open(self, layer: str, op: str) -> Tuple[int, Optional[int], float]:
        self._serial += 1
        span_id = self.pid * 10_000_000 + self._serial
        parent = self.stack[-1][0] if self.stack else None
        self.stack.append((span_id, layer, op))
        return span_id, parent, time.perf_counter()

    def close(self, span_id: int, parent: Optional[int], start: float) -> None:
        end = time.perf_counter()
        _, layer, op = self.stack.pop()
        self.spans.append(
            (span_id, parent, layer, op, start, end, self.run_id, self.pid)
        )

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counts[key] += amount

    def flush(self) -> None:
        """In a forked process (a pass or a pool worker) whose top-level
        span just closed, append its finished spans and counters to its
        file."""
        if self.pid == self.root_pid or len(self.stack) != self._fork_depth:
            return
        line = json.dumps({"spans": self.spans, "counts": dict(self.counts)})
        path = os.path.join(self.spool_dir, f"{self.pid}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        self.spans = []
        self.counts = defaultdict(float)

    def collect(self) -> None:
        """Merge every spooled file into this (top-level) tracer."""
        for name in sorted(os.listdir(self.spool_dir)):
            with open(os.path.join(self.spool_dir, name), encoding="utf-8") as handle:
                for line in handle:
                    data = json.loads(line)
                    self.spans.extend(tuple(span) for span in data["spans"])
                    for key, value in data["counts"].items():
                        self.counts[key] += value
            os.unlink(os.path.join(self.spool_dir, name))

    def bench_span(self, op: str) -> "_BenchSpan":
        """A span opened by the benchmark itself (a pass or a set-up)."""
        return _BenchSpan(self, op)

    def write(self, path: str) -> None:
        """Write every span out, one JSON object per line."""
        keys = ("id", "parent", "layer", "op", "start", "end", "run_id", "pid")
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: (s[4], s[0])):
                record = dict(zip(keys, span))
                record["name"] = f"{span[2]}.{span[3]}"
                handle.write(json.dumps(record) + "\n")


class _BenchSpan:
    def __init__(self, tracer: Tracer, op: str) -> None:
        self.tracer = tracer
        self.op = op

    def __enter__(self) -> "_BenchSpan":
        if self.tracer.enabled:
            self.opened = self.tracer.open(BENCH_LAYER, self.op)
        return self

    def __exit__(self, *exc: object) -> None:
        if self.tracer.enabled:
            self.tracer.close(*self.opened)
            self.tracer.flush()


def _span_wrapper(
    tracer: Tracer, fn: Callable, layer: Any, op: str,
    after: Optional[Callable[[Tracer, tuple, Any], None]] = None,
) -> Callable:
    """Wrap ``fn`` in a span.  ``layer`` is a name or a function of the
    bound instance (for methods shared by both engine backends).  A call
    that re-enters the same op (``super()`` fallbacks) is not re-spanned.
    ``after`` runs once the span is closed, so its cost is not booked to
    the layer."""

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if not tracer.enabled:
            return fn(*args, **kwargs)
        name = layer if isinstance(layer, str) else layer(args[0])
        if tracer.stack and tracer.stack[-1][1:] == (name, op):
            return fn(*args, **kwargs)
        span_id, parent, start = tracer.open(name, op)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span_id, parent, start)
        if after is not None:
            after(tracer, args, result)
        tracer.flush()
        return result

    return wrapper


class Installation:
    """Handle over the attributes :func:`install` replaced."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def patch(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []


def _after_get(tracer: Tracer, args: tuple, result: Any) -> None:
    if result is not None and tracer.last_path is not None:
        tracer.count("sim.store.bytes_read", os.stat(tracer.last_path).st_size)


def _after_worker_unit(tracer: Tracer, args: tuple, result: Any) -> None:
    # What crosses the process boundary for one unit: the spec in, the
    # result out.
    tracer.count("sim.runner.pickle_bytes", len(pickle.dumps(args[0])))
    tracer.count("sim.runner.pickle_bytes", len(pickle.dumps(result)))
    tracer.count("sim.runner.units")


def install(tracer: Tracer) -> Installation:
    """Wrap every traced entry point; spans record while ``tracer.enabled``."""
    from repro.graph import dynamic
    from repro.sim import backend, backend_vectorized, engine, runner, spec, store

    inst = Installation()

    def wrap(owner: Any, attr: str, layer: Any, op: str, after: Any = None) -> None:
        inst.patch(owner, attr, _span_wrapper(tracer, owner.__dict__[attr], layer, op, after))

    # graph.dynamic: every process's snapshot; the engine calls it once
    # per round, which is what the per-round timings are derived from.
    for cls in vars(dynamic).values():
        if (
            isinstance(cls, type)
            and issubclass(cls, dynamic.DynamicGraph)
            and "snapshot" in cls.__dict__
            and not getattr(cls.__dict__["snapshot"], "__isabstractmethod__", False)
        ):
            wrap(cls, "snapshot", "graph.dynamic", "snapshot")
    wrap(engine, "validate_snapshot", "graph.validation", "validate_snapshot")

    # sim.backend / sim.backend_vectorized: the vectorized backend
    # inherits some phases, so the layer is named by the instance.
    vectorized_cls = backend_vectorized.VectorizedBackend

    def backend_layer(instance: Any) -> str:
        return (
            "sim.backend_vectorized"
            if isinstance(instance, vectorized_cls) else "sim.backend"
        )

    for cls in (backend.ReferenceBackend, vectorized_cls):
        for phase in PHASES:
            if phase in cls.__dict__:
                wrap(cls, phase, backend_layer, phase)

    wrap(engine.SimulationEngine, "run", "sim.engine", "run")

    # sim.spec: engine materialization and content addressing, under the
    # module names their callers look up at call time.
    wrap(spec, "build_engine", "sim.spec", "build_engine")
    digest = _span_wrapper(tracer, spec.__dict__["spec_digest"], "sim.spec", "spec_digest")
    inst.patch(spec, "spec_digest", digest)
    inst.patch(store, "spec_digest", digest)

    # sim.store: the read and write paths.
    def remember_path(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def path_for(self: Any, digest_: str) -> Any:
            path = fn(self, digest_)
            tracer.last_path = str(path)
            return path

        return path_for

    def count_written(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def write_bytes(self: Any, path: Any, data: bytes, **kwargs: Any) -> Any:
            tracer.count("sim.store.bytes_written", len(data))
            return fn(self, path, data, **kwargs)

        return write_bytes

    inst.patch(store.RunStore, "path_for", remember_path(store.RunStore.path_for))
    inst.patch(store.VirtualFS, "write_bytes", count_written(store.VirtualFS.write_bytes))
    wrap(store.RunStore, "get", "sim.store", "get", _after_get)
    wrap(store.RunStore, "put", "sim.store", "put")
    wrap(store, "entry_checksum", "sim.store", "entry_checksum")
    wrap(store, "run_result_from_dict", "sim.store", "run_result_from_dict")
    wrap(store, "run_result_to_dict", "sim.store", "run_result_to_dict")
    wrap(store.CachingRunner, "run", "sim.store", "CachingRunner.run")
    # The task a store-carrying pool worker runs for each spec.
    wrap(store, "execute_through_store", "sim.store", "execute_through_store",
         _after_worker_unit)

    # sim.runner: the pass process's side of the pool.
    wrap(runner, "runner_from_jobs", "sim.runner", "runner_from_jobs")
    wrap(runner.ProcessPoolRunner, "run", "sim.runner", "ProcessPoolRunner.run")
    wrap(runner.ProcessPoolRunner, "close", "sim.runner", "ProcessPoolRunner.close")
    return inst


# ----------------------------------------------------------------------
# Analysis: spans -> per-layer metrics
# ----------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100); 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus what its same-process children cover."""
    child_time: Dict[int, float] = defaultdict(float)
    pid_of = {span[0]: span[7] for span in spans}
    for span in spans:
        parent = span[1]
        if parent is not None and pid_of.get(parent) == span[7]:
            child_time[parent] += span[5] - span[4]
    return {span[0]: (span[5] - span[4]) - child_time[span[0]] for span in spans}


def analyse(
    tracer: Tracer,
    passes: int,
    extra: Dict[str, float],
) -> Dict[str, float]:
    """Per-layer metrics from the traced passes, as means per pass.

    ``<layer>.self_s`` is self time inside the timed passes in the pass
    processes, so the layers' self times plus ``trace.unattributed_s``
    (the pass spans' own self time) equal ``trace.wall_s``.  Per-op totals
    (``snapshot_s``, ``compute_s``, ``get_s`` ...) cover set-up and pass
    alike and sum every process, pool workers included.  Percentiles
    pool the samples of all passes.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    per = 1.0 / passes
    metrics: Dict[str, float] = {}

    by_op: Dict[Tuple[str, str], List[Span]] = defaultdict(list)
    for span in spans:
        by_op[(span[2], span[3])].append(span)

    def total(layer: str, op: str) -> float:
        return sum(s[5] - s[4] for s in by_op[(layer, op)]) * per

    def calls(layer: str, op: str) -> float:
        return len(by_op[(layer, op)]) * per

    def ms(layer: str, op: str) -> List[float]:
        return [(s[5] - s[4]) * 1e3 for s in by_op[(layer, op)]]

    pass_spans = by_op[(BENCH_LAYER, "pass")]
    pass_pids = {span[7] for span in pass_spans}
    layer_self: Dict[str, float] = defaultdict(float)
    for span in spans:
        if span[7] in pass_pids and span[6].startswith("pass"):
            layer_self[span[2]] += selfs[span[0]]
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self[layer] * per
    metrics["trace.wall_s"] = sum(s[5] - s[4] for s in pass_spans) * per
    metrics["trace.unattributed_s"] = layer_self[BENCH_LAYER] * per

    metrics["graph.dynamic.snapshot_s"] = total("graph.dynamic", "snapshot")
    metrics["graph.dynamic.snapshot_calls"] = calls("graph.dynamic", "snapshot")
    metrics["graph.dynamic.snapshot_ms_p50"] = percentile(ms("graph.dynamic", "snapshot"), 50)
    metrics["graph.dynamic.snapshot_ms_p99"] = percentile(ms("graph.dynamic", "snapshot"), 99)
    metrics["graph.validation.validate_s"] = total("graph.validation", "validate_snapshot")
    metrics["graph.validation.validate_calls"] = calls("graph.validation", "validate_snapshot")

    for layer in ("sim.backend", "sim.backend_vectorized"):
        for phase in PHASES:
            metrics[f"{layer}.{phase}_s"] = total(layer, phase)
            metrics[f"{layer}.{phase}_calls"] = calls(layer, phase)

    # sim.engine: one round = the interval between consecutive snapshot
    # calls made directly by SimulationEngine.run.
    round_ms: List[float] = []
    run_ids = {s[0] for s in by_op[("sim.engine", "run")]}
    starts: Dict[int, List[float]] = defaultdict(list)
    for span in by_op[("graph.dynamic", "snapshot")]:
        if span[1] in run_ids:
            starts[span[1]].append(span[4])
    for run_span in run_ids:
        marks = sorted(starts[run_span])
        round_ms.extend((b - a) * 1e3 for a, b in zip(marks, marks[1:]))
    metrics["sim.engine.rounds"] = len(round_ms) * per
    metrics["sim.engine.round_ms_p50"] = percentile(round_ms, 50)
    metrics["sim.engine.round_ms_p99"] = percentile(round_ms, 99)

    metrics["sim.spec.build_s"] = total("sim.spec", "build_engine")
    metrics["sim.spec.digest_s"] = total("sim.spec", "spec_digest")

    metrics["sim.store.get_s"] = total("sim.store", "get")
    metrics["sim.store.get_ms_p50"] = percentile(ms("sim.store", "get"), 50)
    metrics["sim.store.get_ms_p99"] = percentile(ms("sim.store", "get"), 99)
    metrics["sim.store.checksum_s"] = total("sim.store", "entry_checksum")
    metrics["sim.store.decode_s"] = total("sim.store", "run_result_from_dict")
    metrics["sim.store.encode_s"] = total("sim.store", "run_result_to_dict")
    metrics["sim.store.put_s"] = total("sim.store", "put")
    metrics["sim.store.put_ms_p50"] = percentile(ms("sim.store", "put"), 50)
    metrics["sim.store.bytes_read"] = tracer.counts["sim.store.bytes_read"] * per
    metrics["sim.store.bytes_written"] = tracer.counts["sim.store.bytes_written"] * per

    # sim.runner: the pass process's time in the pool versus each
    # worker's busy time (its top-level spans), per pass.
    run_s = total("sim.runner", "ProcessPoolRunner.run")
    pid_of = {span[0]: span[7] for span in spans}
    busy: Dict[Tuple[str, int], float] = defaultdict(float)
    for span in spans:
        if span[1] is not None and pid_of.get(span[1]) != span[7]:
            busy[(span[6], span[7])] += span[5] - span[4]
    busiest: Dict[str, float] = defaultdict(float)
    for (run_id, _pid), seconds in busy.items():
        busiest[run_id] = max(busiest[run_id], seconds)
    metrics["sim.runner.run_s"] = run_s
    metrics["sim.runner.worker_busy_s"] = sum(busy.values()) * per
    metrics["sim.runner.overhead_s"] = (
        run_s - sum(busiest.values()) * per if run_s else 0.0
    )
    metrics["sim.runner.units"] = tracer.counts["sim.runner.units"] * per
    metrics["sim.runner.pickle_bytes"] = tracer.counts["sim.runner.pickle_bytes"] * per

    metrics.update(extra)
    return metrics

