"""Compare two benchmark result sets: the parent commit's and a change's.

Run from the repository root::

    python3 perfbench/compare.py parent.jsonl change.jsonl

Both files are ``perfbench/sweep.py`` outputs made with the same
settings.  Runs pair up by workload, seed and trace mode.  One row per
workload and metric gives each side's median and quartiles, the share of
pairs the change wins (ties count for neither side) and one verdict:

* ``improved``: the change wins at least 90% of the pairs and the
  medians differ, in its favour, by more than the parent's quartile
  distance;
* ``unresolved``: the run-to-run spread (quartile distance over median)
  of either side is wider than the metric's bound, unless every change
  run reads better than every parent run;
* ``worse``: the change's median is worse than the parent's by more than
  the bound (for per-layer metrics, which have no bound: the parent wins
  at least 90% of the pairs by more than its quartile distance);
* ``unchanged``: otherwise.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from sweep import benchmark, load, quartiles  # type: ignore[import-not-found]

WIN_SHARE = 0.9


def directions() -> Dict[str, Tuple[str, Optional[float]]]:
    """``{metric: (better, bound)}`` from ``BENCHMARK.json``."""
    spec = benchmark()
    found = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    found.update({m["name"]: (m["better"], None) for m in spec["per_layer"]})
    return found


def verdict(
    parent: Sequence[float],
    change: Sequence[float],
    pairs: Sequence[Tuple[float, float]],
    better: str,
    bound: Optional[float],
) -> Tuple[str, float]:
    """The verdict and the change's win share over ``pairs``."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    share = wins / len(pairs) if pairs else 0.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    gain = sign * (cm - pm)
    if share >= WIN_SHARE and gain > p3 - p1:
        return "improved", share
    if bound is None:
        if pairs and losses / len(pairs) >= WIN_SHARE and -gain > p3 - p1:
            return "worse", share
        return "unchanged", share
    spread = max((p3 - p1) / abs(pm) if pm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if spread > bound and not all_better:
        return "unresolved", share
    if pm and -gain / abs(pm) > bound:
        return "worse", share
    return "unchanged", share


def compare(parent_path: str, change_path: str) -> List[str]:
    known = directions()
    sides = []
    for path in (parent_path, change_path):
        table: Dict[Tuple[str, int, str], Dict[int, float]] = {}
        for record in load(path):
            for name, metric in record["result"]["metrics"].items():
                key = (record["workload"], record["trace"], name)
                table.setdefault(key, {})[record["seed"]] = metric["value"]
        sides.append(table)
    parent, change = sides
    lines = [
        f"{'workload':8s} {'metric':44s} {'parent median [q1, q3]':>37s} "
        f"{'change median [q1, q3]':>37s} {'wins':>5s}  verdict"
    ]
    for key in sorted(set(parent) & set(change)):
        workload, _trace, name = key
        if name not in known:
            continue
        better, bound = known[name]
        seeds = sorted(set(parent[key]) & set(change[key]))
        pairs = [(parent[key][s], change[key][s]) for s in seeds]
        p_values, c_values = list(parent[key].values()), list(change[key].values())
        result, share = verdict(p_values, c_values, pairs, better, bound)
        p1, pm, p3 = quartiles(p_values)
        c1, cm, c3 = quartiles(c_values)
        lines.append(
            f"{workload:8s} {name:44s} {pm:12.6g} [{p1:10.6g}, {p3:10.6g}] "
            f"{cm:12.6g} [{c1:10.6g}, {c3:10.6g}] {share:5.2f}  {result}"
        )
    return lines


def main(argv: Sequence[str] = ()) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv or None)
    print("\n".join(compare(args.parent, args.change)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
