"""Layered performance benchmark for the dispersion simulator.

Run from the repository root::

    python3 perfbench/run.py --workload churn --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
same passes untraced and then traced, and reports the per-layer metrics
and the tracing overhead.  ``--self-test`` feeds every checker a wrong
result and shows that the error rate rises.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Hard limit on one invocation; a run that reaches it stops measuring,
#: counts the interrupted runs as failed and still prints its result.
DEADLINE_S = 165.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "rounds_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class Deadline(Exception):
    """Raised by the alarm when the invocation runs out of time."""


def _bootstrap() -> None:
    """Import the simulator from this checkout's ``src``, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write(f"perfbench: no simulator sources under {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    sys.path.insert(0, ROOT)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"perfbench: imported repro from {repro.__file__}, not {SRC}\n")
        raise SystemExit(2)


@dataclass
class Tally:
    """Runs attempted and failed, with the failure messages."""

    attempted: int = 0
    failed: int = 0
    messages: List[str] = field(default_factory=list)

    def record(self, runs: int, failures: Sequence[str]) -> None:
        self.attempted += runs
        self.add_failures(failures)

    def add_failures(self, failures: Iterable[str]) -> None:
        """Count each failure as one failed run (never above attempted)."""
        failures = list(failures)
        self.failed = min(self.attempted, self.failed + len(failures))
        self.messages.extend(failures)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


class PassFailed(Exception):
    """A pass process raised, or died without reporting."""


def in_child(fn: Callable[[], Any]) -> Any:
    """Run ``fn`` in a forked process and return its JSON-able result.

    Every pass runs in a fresh process, as one simulator invocation
    would: passes do not inherit each other's heap, and a pass's peak
    memory is its own.  The child leads its own process group, so a
    deadline kills it together with any pool workers it started.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child never returns into the caller's frames
        os.close(read_fd)
        try:
            os.setpgid(0, 0)
            payload = {"ok": fn()}
        except BaseException as error:  # a forked child must end in os._exit
            payload = {"error": repr(error)}
        try:
            with os.fdopen(write_fd, "wb") as out:
                out.write(json.dumps(payload).encode("utf-8"))
        finally:
            os._exit(0)
    os.close(write_fd)
    try:
        os.setpgid(pid, pid)
    except OSError:
        pass  # the child already did, or already exited
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            data = pipe.read()
    except BaseException:
        try:
            os.killpg(pid, signal.SIGKILL)
        except OSError:
            pass
        raise
    finally:
        os.waitpid(pid, 0)
    payload = json.loads(data) if data else {"error": "pass process died"}
    if "error" in payload:
        raise PassFailed(payload["error"])
    return payload["ok"]


def peak_rss_mb() -> float:
    """Peak resident memory of this process or its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def one_pass(workload: Any, index: int, tracer: Any) -> Dict[str, Any]:
    """Set up, run and check pass ``index`` (inside its own process)."""
    tracer.run_id = f"setup{index}"
    with tracer.bench_span("setup"):
        setup_s, state = workload.setup(index)
    tracer.run_id = f"pass{index}"
    with tracer.bench_span("pass"):
        t0 = time.perf_counter()
        output = workload.run(index, state)
        wall_s = time.perf_counter() - t0
    peak = peak_rss_mb()
    result = workload.check(index, state, output)
    workload.release(state)
    return dict(asdict(result), index=index, setup_s=setup_s, wall_s=wall_s, peak_rss_mb=peak)


def measure(
    workload: Any,
    tally: Tally,
    tracer: Any,
    calibration: Any,
    *,
    seconds: float = 0.0,
    indices: Optional[Sequence[int]] = None,
) -> List[Dict[str, Any]]:
    """Run passes while the next one is expected to end within
    ``seconds`` (at least one pass), or exactly the passes ``indices``.
    The calibration kernel is sampled before every pass and after the
    last one."""
    passes: List[Dict[str, Any]] = []
    start = previous = time.perf_counter()
    count = 0
    while True:
        now = time.perf_counter()
        if indices is not None:
            if count >= len(indices):
                break
            index = indices[count]
        else:
            if passes and (now - start) + (now - previous) > seconds:
                break
            index = count
        previous = now
        count += 1
        kernel = calibration.sample()
        try:
            record = in_child(lambda: one_pass(workload, index, tracer))
        except PassFailed as error:
            tally.record(1, [f"pass {index}: {error}"])
            continue
        tally.record(record["runs"], [f"pass {index}: {f}" for f in record["failures"]])
        passes.append(record)
        print(f"# pass {index}: setup {record['setup_s']:.6f} s, wall {record['wall_s']:.6f} s, "
              f"{record['rounds']} rounds, peak {record['peak_rss_mb']:.1f} MB, calibration "
              f"{' '.join(f'{1000 * k:.1f}' for k in kernel)} ms", flush=True)
    calibration.sample()
    return passes


def end_to_end(passes: Sequence[Dict[str, Any]], slowdown: float) -> Dict[str, float]:
    """Medians over the passes, times scaled to the calibration's
    reference host speed (see ``perfbench/calibration.py``)."""
    return {
        "setup_s": statistics.median(p["setup_s"] for p in passes) / slowdown,
        "wall_s": statistics.median(p["wall_s"] for p in passes) / slowdown,
        "rounds_per_s": statistics.median(p["rounds"] / p["wall_s"] for p in passes) * slowdown,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def reference_passes(
    workload: Any, tally: Tally, passes: Sequence[Dict[str, Any]]
) -> List[float]:
    """Re-run ``passes`` on the reference backend where the workload has
    one (``churn``) and check the results match; returns the reference
    engine seconds."""
    from perfbench.workloads import identity_failures

    seconds = []
    if hasattr(workload, "reference_pass"):
        for record in passes:
            index = record["index"]
            ref_s, digest = in_child(lambda: workload.reference_pass(index))
            seconds.append(ref_s)
            tally.add_failures(
                f"pass {index}: {f}"
                for f in identity_failures("vectorized vs reference", record["digests"][0], digest)
            )
    return seconds


def backend_speedup(passes: Sequence[Dict[str, Any]], reference: Sequence[float]) -> float:
    """Reference over vectorized engine-run seconds on the same specs."""
    vectorized = sum(p["backend_seconds"].get("vectorized", 0.0) for p in passes)
    ref = sum(reference) or sum(p["backend_seconds"].get("reference", 0.0) for p in passes)
    return ref / vectorized if vectorized and ref else 0.0


def run_untraced(
    workload: Any, tally: Tally, seconds: float, tracer: Any, calibration: Any
) -> Dict[str, float]:
    passes = measure(workload, tally, tracer, calibration, seconds=seconds)
    if not passes:
        return {}
    # The reference backend re-runs the first pass only: re-running all
    # of them would more than double an untraced run.
    reference_passes(workload, tally, passes[:1])
    raw = end_to_end(passes, 1.0)
    print(f"# host seconds: setup {raw['setup_s']:.6f} s, wall {raw['wall_s']:.6f} s, "
          f"{raw['rounds_per_s']:.3f} rounds/s; calibration kernel "
          f"{calibration.kernel_ms:.3f} ms (slowdown {calibration.slowdown:.4f})", flush=True)
    return end_to_end(passes, calibration.slowdown)


def run_traced(
    workload: Any, tally: Tally, seconds: float, tracer: Any, calibration: Any, trace_path: str
) -> Dict[str, float]:
    from perfbench import tracing

    untraced = measure(workload, tally, tracer, calibration, seconds=seconds / 2)
    if not untraced:
        return {}
    indices = [p["index"] for p in untraced]
    installation = tracing.install(tracer)
    tracer.enabled = True
    try:
        traced = measure(workload, tally, tracer, calibration, indices=indices)
    finally:
        tracer.enabled = False
        installation.uninstall()
    tracer.collect()
    if len(traced) != len(indices):
        return {}
    reference = reference_passes(workload, tally, traced)

    passes = len(traced)
    counts: Dict[str, float] = {}
    for record in traced:
        for key, value in record["counters"].items():
            counts[key] = counts.get(key, 0.0) + value / passes
    extra = {f"sim.store.{key}": counts.get(key, 0.0) for key in ("hits", "misses", "corrupt")}
    lookups = extra["sim.store.hits"] + extra["sim.store.misses"]
    extra["sim.store.hit_ratio"] = extra["sim.store.hits"] / lookups if lookups else 0.0
    extra["sim.runner.retries"] = counts.get("retries", 0.0)
    extra["backend.speedup"] = backend_speedup(untraced, reference)
    metrics = tracing.analyse(tracer, passes, extra)
    metrics["trace.untraced_wall_s"] = statistics.fmean(p["wall_s"] for p in untraced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    metrics["host.kernel_ms"] = calibration.kernel_ms

    # The layers' self times plus trace.unattributed_s equal trace.wall_s
    # by construction; what can go wrong is a pass whose spans never
    # reached the spool.  Every traced pass must show up as one pass
    # span, and the pass spans must cover the passes' own clock.
    pass_spans = [s for s in tracer.spans if s[2] == tracing.BENCH_LAYER and s[3] == "pass"]
    if len(pass_spans) != passes:
        tally.add_failures([f"{len(pass_spans)} pass spans collected for {passes} traced passes"])
    clock_wall_s = statistics.fmean(p["wall_s"] for p in traced)
    gap = metrics["trace.wall_s"] - clock_wall_s
    if abs(gap) > max(1e-3, 0.01 * clock_wall_s):
        tally.add_failures([f"pass spans miss the traced passes' wall clock by {gap:.3g} s"])
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    tracer.write(trace_path)
    return metrics


def _on_alarm(signum: int, frame: Any) -> None:
    raise Deadline()


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("churn", "static", "resume"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="show that every check fails on a wrong result")
    args = parser.parse_args(argv)
    _bootstrap()

    if args.self_test:
        from perfbench import selftest

        return selftest.main()
    if args.workload is None:
        parser.error("--workload is required")

    from perfbench import tracing
    from perfbench.calibration import Calibration
    from perfbench.workloads import WORKLOADS
    from repro.sim.spec import registered_components

    # Process start-up stays out of every pass: the lazily registered
    # components (and numpy with them) load here, once, before any fork.
    registered_components()
    calibration = Calibration()
    gc.collect()
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    workdir = os.path.join(ROOT, ".perfbench", f"run-{os.getpid()}")
    os.makedirs(os.path.join(workdir, "spans"))
    tracer = tracing.Tracer(os.path.join(workdir, "spans"))
    workload = WORKLOADS[args.workload](args.seed, workdir)
    tally = Tally()
    metrics: Dict[str, float] = {}
    try:
        t0 = time.perf_counter()
        workload.prepare()
        print(f"# {args.workload} seed={args.seed}: inputs prepared in "
              f"{time.perf_counter() - t0:.3f} s", flush=True)
        if args.trace:
            trace_path = os.path.join(
                ROOT, ".perfbench", "traces", f"{args.workload}-seed{args.seed}.jsonl"
            )
            metrics = run_traced(workload, tally, args.seconds, tracer, calibration, trace_path)
        else:
            metrics = run_untraced(workload, tally, args.seconds, tracer, calibration)
    except Deadline:
        tally.record(1, [f"deadline of {DEADLINE_S:.0f} s reached"])
    except Exception as error:  # reported as a failed run, with its traceback
        traceback.print_exc()
        tally.record(1, [repr(error)])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        shutil.rmtree(workdir, ignore_errors=True)

    return report(args, metrics, tally)


def report(args: Any, metrics: Dict[str, float], tally: Tally) -> int:
    from perfbench.tracing import per_layer_metrics

    for message in tally.messages:
        print(f"CHECK FAILED: {message}")
    units = per_layer_metrics() if args.trace else END_TO_END_UNITS
    names = list(units)
    out: Dict[str, Dict[str, Any]] = {}
    for name in names:
        if name not in metrics:
            continue
        print(f"{args.workload:7s} {name:48s} {metrics[name]:14.6f} {units[name]}")
        out[name] = {"value": metrics[name], "unit": units[name]}
    print(f"{args.workload:7s} {'error_rate':48s} {tally.error_rate:14.6f} "
          f"ratio ({tally.failed}/{tally.attempted} runs)")
    correct = tally.failed == 0 and tally.attempted > 0 and len(out) == len(names)
    print(json.dumps({
        "correct": correct,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed if tally.attempted else 1,
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
