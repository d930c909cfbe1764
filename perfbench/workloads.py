"""The three benchmark workloads, driven through ``repro``'s public API.

Each workload turns the benchmark seed into ``RunSpec`` s and nothing
else reaches the program.  A workload is run as a sequence of passes,
each in a fresh process forked by ``run.py``: :meth:`Workload.setup`
(timed as set-up), :meth:`Workload.run` (the timed pass),
:meth:`Workload.check` and :meth:`Workload.release`.  What ``run.py``
needs back travels in the :class:`PassResult`.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

from repro.analysis.experiments import faults_specs, rounds_vs_k_specs
from repro.sim import runner as runner_mod
from repro.sim import spec as spec_mod
from repro.sim.metrics import RunResult, TerminationReason
from repro.sim.spec import ComponentSpec, RunSpec, make_spec
from repro.sim.store import RunStore
from repro.sim.traceio import run_result_to_json

def result_digest(result: RunResult) -> str:
    """sha256 of the result's canonical JSON: equal digests mean
    byte-identical results."""
    return hashlib.sha256(run_result_to_json(result).encode("utf-8")).hexdigest()


def dispersion_failures(spec: RunSpec, result: RunResult) -> List[str]:
    """The paper's guarantees for Algorithm 4 from a rooted start on a
    1-interval-connected graph with no faults."""
    k = spec.placement.k
    n = int(spec.graph.params["n"])
    failures = []
    positions = result.final_positions
    if sorted(positions) != list(range(1, k + 1)) or result.crashed_robots:
        failures.append(f"robots not conserved: {len(positions)} of {k} present")
    if result.reason is not TerminationReason.DISPERSED:
        failures.append(f"terminated {result.reason.name}, not DISPERSED")
    if len(set(positions.values())) != len(positions):
        failures.append("two robots share a node at the end")
    if any(not 0 <= node < n for node in positions.values()):
        failures.append("a robot ended off the graph")
    bound = k - result.initial_occupied
    if result.rounds > bound:
        failures.append(f"{result.rounds} rounds > k - alpha0 = {bound} (Theorem 4)")
    bits = k.bit_length()  # == ceil(log2(k + 1))
    if result.max_persistent_bits != bits:
        failures.append(
            f"{result.max_persistent_bits} persistent bits != "
            f"ceil(log2(k+1)) = {bits} (Lemma 8)"
        )
    return failures


def identity_failures(what: str, left: str, right: str) -> List[str]:
    """Byte-identity of two results, given as :func:`result_digest` s."""
    if left != right:
        return [f"{what}: results are not byte-identical"]
    return []


def served_failures(served: Sequence[str], serial: Sequence[str]) -> List[str]:
    """A resumed pass serves exactly what a serial ``execute`` computes
    (both given as :func:`result_digest` s, in spec order)."""
    failures = [
        f"spec #{index}: served result differs from serial execute"
        for index, (got, want) in enumerate(zip(served, serial))
        if got != want
    ]
    if len(served) != len(serial):
        failures.append(f"{len(served)} results for {len(serial)} specs")
    return failures


def split_failures(counters: Tuple[int, int, int], expected: Tuple[int, int]) -> List[str]:
    """The store hit exactly the pre-stored part of the grid, with no
    corrupt entry."""
    hits, misses, corrupt = counters
    failures = []
    if (hits, misses) != expected:
        failures.append(
            f"hits/misses {hits}/{misses}, pre-stored split is "
            f"{expected[0]}/{expected[1]}"
        )
    if corrupt:
        failures.append(f"{corrupt} corrupt store entries")
    return failures


def derived_seed(*parts: Any) -> int:
    """A spec seed derived from the benchmark seed and a position."""
    return random.Random(":".join(str(p) for p in parts)).randrange(2**31)


@dataclass
class PassResult:
    """What one timed pass produced."""

    runs: int
    rounds: float
    failures: List[str] = field(default_factory=list)
    #: Per-backend engine-run seconds (reference / vectorized), when known.
    backend_seconds: Dict[str, float] = field(default_factory=dict)
    #: :func:`result_digest` of the results ``run.py`` checks further.
    digests: List[str] = field(default_factory=list)
    #: Per-layer counts the workload observes itself (store hits ...).
    counters: Dict[str, float] = field(default_factory=dict)


class Workload:
    """Interface of a benchmark workload (see the module docstring)."""

    name = ""

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir

    def prepare(self) -> None:
        """One-time input generation before any pass."""

    def setup(self, index: int) -> Tuple[float, Any]:
        """Set pass ``index`` up; returns (set-up seconds, pass state)."""
        raise NotImplementedError

    def run(self, index: int, state: Any) -> Any:
        """The timed pass; returns whatever :meth:`check` needs."""
        raise NotImplementedError

    def check(self, index: int, state: Any, output: Any) -> PassResult:
        """Check the pass's outputs; returns all that run.py needs back."""
        raise NotImplementedError

    def release(self, state: Any) -> None:
        """Drop the pass's state (untimed)."""


#: Times a pass builds its engines; set-up time is the median build.
BUILDS = 7


def _timed_build(specs: Sequence[RunSpec]) -> Tuple[float, List[Any]]:
    """Build the engines for ``specs`` :data:`BUILDS` times; the median
    seconds of one build and the engines of the last.  A single build
    takes about a millisecond on ``churn``, most of it first-touch costs
    of the fresh pass process, which do not scale with the host's speed
    the way the rest of the pass does."""
    seconds = []
    for _ in range(BUILDS):
        t0 = time.perf_counter()
        engines = [spec_mod.build_engine(spec) for spec in specs]
        seconds.append(time.perf_counter() - t0)
    return statistics.median(seconds), engines


class ChurnWorkload(Workload):
    """Algorithm 4 on 1-interval-connected random churn, rooted, FSYNC
    (Table I row 3), on the vectorized backend; one spec seed per pass."""

    name = "churn"

    def __init__(self, seed: int, workdir: str, *, n: int = 768, k: int = 576) -> None:
        super().__init__(seed, workdir)
        self.n = n
        self.k = k

    def spec(self, index: int, backend: str = "vectorized") -> RunSpec:
        return make_spec(
            "random_churn",
            {"n": self.n, "extra_edges": self.n},
            k=self.k,
            seed=derived_seed("churn", self.seed, index),
            backend=ComponentSpec(backend),
            collect_records=False,
            label=f"churn pass {index}",
        )

    def setup(self, index: int) -> Tuple[float, Any]:
        seconds, engines = _timed_build([self.spec(index)])
        return seconds, engines[0]

    def run(self, index: int, state: Any) -> Any:
        t0 = time.perf_counter()
        result = state.run()
        return result, time.perf_counter() - t0

    def check(self, index: int, state: Any, output: Any) -> PassResult:
        result, seconds = output
        return PassResult(
            runs=1,
            rounds=result.rounds,
            failures=dispersion_failures(self.spec(index), result),
            backend_seconds={"vectorized": seconds},
            digests=[result_digest(result)],
        )

    def reference_pass(self, index: int) -> Tuple[float, str]:
        """Pass ``index``'s spec on the reference backend: engine seconds
        and result digest."""
        engine = spec_mod.build_engine(self.spec(index, "reference"))
        t0 = time.perf_counter()
        result = engine.run()
        return time.perf_counter() - t0, result_digest(result)


class StaticWorkload(Workload):
    """The former E13 cell: a static dense graph, each pass's spec run on
    the reference backend and then on the vectorized one."""

    name = "static"

    def __init__(self, seed: int, workdir: str, *, n: int = 384, k: int = 288) -> None:
        super().__init__(seed, workdir)
        self.n = n
        self.k = k

    def spec(self, index: int, backend: str) -> RunSpec:
        return make_spec(
            "static_family",
            {"family": "random_dense", "n": self.n},
            k=self.k,
            seed=derived_seed("static", self.seed, index),
            backend=ComponentSpec(backend),
            collect_records=False,
            label=f"static pass {index} {backend}",
        )

    def setup(self, index: int) -> Tuple[float, Any]:
        return _timed_build([self.spec(index, "reference"), self.spec(index, "vectorized")])

    def run(self, index: int, state: Any) -> Any:
        outputs = []
        for engine in state:
            t0 = time.perf_counter()
            result = engine.run()
            outputs.append((result, time.perf_counter() - t0))
        return outputs

    def check(self, index: int, state: Any, output: Any) -> PassResult:
        (reference, ref_s), (vectorized, vec_s) = output
        digests = [result_digest(reference), result_digest(vectorized)]
        failures = identity_failures("reference vs vectorized", *digests)
        failures += dispersion_failures(self.spec(index, "reference"), reference)
        return PassResult(
            runs=2,
            rounds=reference.rounds + vectorized.rounds,
            failures=failures,
            backend_seconds={"reference": ref_s, "vectorized": vec_s},
        )


def resume_grid() -> List[List[RunSpec]]:
    """Seven groups of four sibling specs (same kind and size, different
    spec seeds), so that which sibling misses barely moves the pass cost.
    The grid is the same for every benchmark seed, as a campaign's grid
    is; the seed picks the stored/miss splits."""
    rng = random.Random("perfbench:resume")

    def seeds() -> List[int]:
        return [rng.randrange(2**31) for _ in range(4)]

    def tag(specs: List[RunSpec], kind: str, **changes: Any) -> List[RunSpec]:
        return [s.with_(label=f"{kind} {s.label}", **changes) for s in specs]

    groups = [
        # rounds-vs-k churn cells; records off gives ~1 KB entries,
        # records on ~70 KB and ~0.7 MB.
        tag(rounds_vs_k_specs([32], seeds=seeds()), "plain"),
        tag(rounds_vs_k_specs([96], seeds=seeds()), "plain"),
        tag(rounds_vs_k_specs([64], seeds=seeds()), "records", collect_records=True),
        tag(rounds_vs_k_specs([224], seeds=seeds()), "records", collect_records=True),
        tag(faults_specs(48, [4], seeds=seeds()), "crash"),
    ]
    groups.append([
        s.with_(
            label=f"ssync {s.label}",
            scheduler=ComponentSpec(
                "ssync", {"policy": "random_subset", "p": 0.5, "seed": s.seed}
            ),
        )
        for s in rounds_vs_k_specs([64], seeds=seeds())
    ])
    groups.append([
        s.with_(label=f"async {s.label}", scheduler=ComponentSpec("async", {"seed": s.seed}))
        for s in rounds_vs_k_specs([64], seeds=seeds())
    ])
    return groups


class ResumeWorkload(Workload):
    """A campaign re-run: a ``CachingRunner`` over a 2-worker pool
    (``runner_from_jobs(2, store=...)``) against a store that already
    holds three quarters of the grid."""

    name = "resume"

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        self.groups: List[List[int]] = []
        self.grid: List[RunSpec] = []
        for group in resume_grid():
            self.groups.append(list(range(len(self.grid), len(self.grid) + len(group))))
            self.grid.extend(group)
        self.expected = (len(self.grid) - len(self.groups), len(self.groups))
        self.results: List[RunResult] = []
        self.serial: List[str] = []

    def missed(self, index: int) -> List[int]:
        """Pass ``index``'s misses, one per group.  The seed fixes a
        starting sibling per group and each pass moves on by one, so every
        four consecutive passes miss every spec of the grid once, and a
        run's median spans the whole grid whatever the seed."""
        rng = random.Random(f"perfbench:resume-split:{self.seed}")
        return [group[(rng.randrange(len(group)) + index) % len(group)] for group in self.groups]

    def prepare(self) -> None:
        # Every spec through a plain serial ``execute``: the pre-stored
        # part seeds each pass's store, and each digest is what a served
        # result must equal.
        self.results = runner_mod.SerialRunner().run(self.grid)
        self.serial = [result_digest(r) for r in self.results]

    def setup(self, index: int) -> Tuple[float, Any]:
        root = os.path.join(self.workdir, f"store-{index}")
        missed = set(self.missed(index))
        stored = [i for i in range(len(self.grid)) if i not in missed]
        t0 = time.perf_counter()
        store = RunStore(root)
        for i in stored:
            store.put(self.grid[i], self.results[i])
        return time.perf_counter() - t0, root

    def run(self, index: int, state: Any) -> Any:
        store = RunStore(state)
        events: List[str] = []
        with runner_mod.runner_from_jobs(2, store=store) as runner:
            runner.inner.failure_hook = lambda kind, *_: events.append(kind)
            results = runner.run(self.grid)
        return results, (store.hits, store.misses, store.corrupt), len(events)

    def check(self, index: int, state: Any, output: Any) -> PassResult:
        results, counters, retries = output
        served = [result_digest(r) for r in results]
        return PassResult(
            runs=len(self.grid),
            # Only the misses ran an engine during the pass: the rounds of
            # one miss per group, averaged over the group (over the cycle
            # of splits), so which siblings a pass misses does not move
            # the metric; the misses' pass time barely depends on them.
            rounds=sum(
                statistics.fmean(results[i].rounds for i in group) for group in self.groups
            ),
            failures=served_failures(served, self.serial) + split_failures(counters, self.expected),
            counters=dict(zip(("hits", "misses", "corrupt"), counters), retries=retries),
        )

    def release(self, state: Any) -> None:
        shutil.rmtree(state, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (ChurnWorkload, StaticWorkload, ResumeWorkload)}
