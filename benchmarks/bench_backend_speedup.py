"""Extra experiment E13: the vectorized engine backend.

The `vectorized` backend replaces the reference engine's per-robot
Python loops with numpy struct-of-arrays kernels (CSR adjacency,
batched component labeling, flat DFS step selection) behind the same
`EngineBackend` phase API.  Its whole contract is *bit-identicality*:
same spec in, byte-identical `RunResult` out.  This experiment charts

* equivalence -- every cell's run serializes byte-for-byte equal to the
  reference backend's (the speedup is free, not approximate);
* speedup -- wall-clock ratio reference/vectorized grows with instance
  size, since the numpy kernels amortize per-round overhead over the
  whole robot population.

No speedup is gated anywhere: E13 in ``repro campaign --json`` checks
identity only.  The repeatable measurement is ``backend.speedup`` in
``perfbench`` (see ``perfbench/README.md``): 5.81 on the static dense
workload and 1.50 on the paper's random-churn workload, where snapshot
generation rather than the engine dominates.
"""

import time

from repro.sim.spec import ComponentSpec, PlacementSpec, RunSpec, execute
from repro.sim.traceio import run_result_to_json

CELLS = [(64, 48), (128, 96), (256, 192)]


def make_spec(n, k, backend=None):
    return RunSpec(
        graph=ComponentSpec(
            "static_family", {"family": "random_dense", "n": n, "seed": 9}
        ),
        placement=PlacementSpec(kind="rooted", k=k),
        backend=ComponentSpec(backend) if backend else None,
        label=f"E13 n={n} k={k} backend={backend or 'reference'}",
    )


def timed(spec):
    start = time.perf_counter()
    result = execute(spec)
    return result, time.perf_counter() - start


def test_backend_speedup_grid(benchmark, report):
    rows = []
    for n, k in CELLS:
        reference, ref_seconds = timed(make_spec(n, k))
        vectorized, vec_seconds = timed(make_spec(n, k, "vectorized"))
        assert reference.dispersed, (n, k)
        # Bit-identicality is the contract the speedup rides on.
        assert run_result_to_json(reference) == run_result_to_json(
            vectorized
        ), (n, k)
        rows.append(
            (f"n={n} k={k}", reference.rounds, ref_seconds, vec_seconds,
             ref_seconds / vec_seconds)
        )
    report.table(
        ("cell", "rounds", "reference s", "vectorized s", "speedup"),
        rows,
        title="E13 -- vectorized engine backend: byte-identical runs, "
        "reference/vectorized wall-clock ratio by instance size",
    )
    # Smoke check only: the vectorized backend must win on the largest
    # cell.  The measured ratios live in perfbench's `backend.speedup`.
    assert rows[-1][4] > 1.0, rows

    benchmark(lambda: execute(make_spec(*CELLS[0], "vectorized")))
