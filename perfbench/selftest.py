"""Show that every benchmark check fails on a wrong result.

``python3 perfbench/run.py --self-test`` runs each workload's checker on
small real results, first unmodified and then with one deliberate fault
each, through the same :class:`~perfbench.run.Tally` the benchmark
reports from.  It prints the error rate before and after every fault and
exits 1 unless every clean result passes and every fault is caught.
"""

from __future__ import annotations

import dataclasses
import os
import tempfile
from typing import Callable, List, Tuple

from perfbench import workloads as wl
from perfbench.run import Tally
from repro.sim.metrics import RunResult, TerminationReason


def _tampered(result: RunResult, **changes: object) -> RunResult:
    return dataclasses.replace(result, **changes)


def _swap_onto_neighbour(result: RunResult) -> RunResult:
    positions = dict(result.final_positions)
    first, second = sorted(positions)[:2]
    positions[first] = positions[second]
    return _tampered(result, final_positions=positions)


def _drop_robot(result: RunResult) -> RunResult:
    positions = dict(result.final_positions)
    positions.pop(max(positions))
    return _tampered(result, final_positions=positions)


def cases(workdir: str) -> List[Tuple[str, Callable[[], List[str]], Callable[[], List[str]]]]:
    """``(name, clean check, faulty check)`` for every check."""
    churn = wl.ChurnWorkload(7, workdir, n=48, k=36)
    spec = churn.spec(0)
    result = wl.spec_mod.execute(spec)
    reference = churn.reference_pass(0)[1]

    def churn_check(candidate: RunResult) -> Callable[[], List[str]]:
        return lambda: wl.dispersion_failures(spec, candidate)

    def against_reference(candidate: RunResult) -> Callable[[], List[str]]:
        return lambda: wl.identity_failures("churn", wl.result_digest(candidate), reference)

    static = wl.StaticWorkload(7, workdir, n=48, k=36)
    ref_result = wl.spec_mod.execute(static.spec(0, "reference"))
    vec_result = wl.spec_mod.execute(static.spec(0, "vectorized"))

    def static_check(candidate: RunResult) -> Callable[[], List[str]]:
        return lambda: wl.identity_failures(
            "static", wl.result_digest(ref_result), wl.result_digest(candidate))

    resume = wl.ResumeWorkload(7, workdir)
    served = [wl.result_digest(wl.spec_mod.execute(s)) for s in resume.grid[:3]]
    expected = resume.expected

    return [
        ("churn: dispersed", churn_check(result), churn_check(_swap_onto_neighbour(result))),
        ("churn: terminated DISPERSED", churn_check(result),
         churn_check(_tampered(result, reason=TerminationReason.ROUND_LIMIT))),
        ("churn: rounds <= k - alpha0 (Theorem 4)", churn_check(result),
         churn_check(_tampered(result, rounds=spec.placement.k))),
        ("churn: ceil(log2(k+1)) bits (Lemma 8)", churn_check(result),
         churn_check(_tampered(result, max_persistent_bits=result.max_persistent_bits + 1))),
        ("churn: robots conserved", churn_check(result), churn_check(_drop_robot(result))),
        ("churn: matches reference backend", against_reference(result),
         against_reference(_tampered(result, total_moves=result.total_moves + 1))),
        ("static: reference == vectorized", static_check(vec_result),
         static_check(_tampered(vec_result, rounds=vec_result.rounds + 1))),
        ("resume: served == serial execute",
         lambda: wl.served_failures(served, served),
         lambda: wl.served_failures(served, served[:1] + served[2:] + served[1:2])),
        ("resume: hits/misses == pre-stored split",
         lambda: wl.split_failures((expected[0], expected[1], 0), expected),
         lambda: wl.split_failures((expected[0] - 1, expected[1] + 1, 0), expected)),
        ("resume: no corrupt entries",
         lambda: wl.split_failures((expected[0], expected[1], 0), expected),
         lambda: wl.split_failures((expected[0], expected[1], 1), expected)),
    ]


def main() -> int:
    workdir = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           ".perfbench")
    os.makedirs(workdir, exist_ok=True)
    ok = True
    with tempfile.TemporaryDirectory(dir=workdir) as scratch:
        for name, clean, faulty in cases(scratch):
            tally = Tally()
            tally.record(1, clean())
            before = tally.error_rate
            messages = faulty()
            tally.record(1, messages)
            after = tally.error_rate
            caught = before == 0.0 and after > before
            ok &= caught
            print(f"{'caught' if caught else 'MISSED':6s} {name:42s} "
                  f"error_rate {before:.2f} -> {after:.2f}  {messages[:1]}")
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1
