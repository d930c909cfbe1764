"""Run the benchmark over several seeds and report each metric's spread.

Run from the repository root::

    python3 perfbench/sweep.py --workloads churn,static,resume --seeds 1-10 \\
        --out perfbench/results/baseline.jsonl

Each run is one ``perfbench/run.py`` invocation of ``run_seconds`` from
``BENCHMARK.json`` (the same on every commit); its JSON result line is
appended to ``--out`` as ``{"workload", "seed", "trace", "result"}``.
The table gives, per workload and metric, the median, the quartiles and
the spread (quartile distance over median) next to the bound that
``BENCHMARK.json`` fixes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text: str) -> List[int]:
    """``"1-10"`` or ``"3,5,8"``."""
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def load(path: str) -> List[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def quartiles(values: Sequence[float]) -> List[float]:
    """Q1, median, Q3 as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def benchmark() -> dict:
    """The parsed ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def spread_table(records: Sequence[dict]) -> List[str]:
    limits = {metric["name"]: metric["bound"] for metric in benchmark()["end_to_end"]}
    rows: Dict[tuple, List[float]] = {}
    for record in records:
        for name, metric in record["result"]["metrics"].items():
            key = (record["workload"], record["trace"], name)
            rows.setdefault(key, []).append(metric["value"])
    lines = [f"{'workload':8s} {'metric':44s} {'n':>3s} {'median':>12s} "
             f"{'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}"]
    for (workload, _trace, name), values in sorted(rows.items()):
        q1, median, q3 = quartiles(values)
        spread = (q3 - q1) / median if median else 0.0
        bound = limits.get(name)
        lines.append(
            f"{workload:8s} {name:44s} {len(values):3d} {median:12.6g} {q1:12.6g} "
            f"{q3:12.6g} {spread:8.4f} {'' if bound is None else bound:>6}"
        )
    return lines


def main(argv: Sequence[str] = ()) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="churn,static,resume")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv or None)
    spec = benchmark()
    failures = 0
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            command = list(spec["command"]) + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace),
            ]
            completed = subprocess.run(
                command, cwd=ROOT, capture_output=True, text=True, timeout=300
            )
            lines = completed.stdout.strip().splitlines()
            if completed.returncode != 0 or not lines:
                sys.stderr.write(completed.stdout + completed.stderr)
                failures += 1
                continue
            result = json.loads(lines[-1])
            failures += not result["correct"]
            with open(args.out, "a", encoding="utf-8") as handle:
                handle.write(json.dumps({
                    "workload": workload, "seed": seed,
                    "trace": args.trace, "result": result,
                }) + "\n")
            print(f"{workload} seed={seed} correct={result['correct']}", flush=True)
    print("\n".join(spread_table(load(args.out))))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
