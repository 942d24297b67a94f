"""Compare two sets of benchmark results: parent and change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR
    python3 perfbench/compare.py RESULTS_DIR        # one set: its spread only

Each directory holds result files written by ``run.py --trace 0 --out DIR``.
Runs of the two sides are paired by workload and seed; make the pairs by
running parent and change alternately, changing which goes first. For each
workload and end-to-end metric this prints each side's median and
quartiles, the spread (quartile distance over median), the fraction of
pairs the change won (ties count for neither), and a verdict:

  regression   the change's median is worse than the parent's by more
               than the metric's bound in BENCHMARK.json
  unresolved   the parent's spread is wider than the bound, and not every
               change run beats every parent run
  gain         the change won at least 9/10 of the pairs and the medians
               differ by more than the parent's quartile distance
  no-regress   none of the above
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict[str, dict[int, dict[str, float]]]:
    """{workload: {seed: {metric: value}}} from untraced result files."""
    runs = defaultdict(dict)
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        manifest = record["manifest"]
        if manifest["trace"]:
            continue
        values = {m: entry["value"] for m, entry in record["metrics"].items()}
        runs[manifest["workload"]][manifest["seed"]] = values
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(parent: dict, change: dict, metric: dict) -> tuple[str, str]:
    sign = 1.0 if metric["better"] == "lower" else -1.0
    bound = metric["bound"]
    seeds = sorted(set(parent) & set(change))
    wins = sum(1 for s in seeds if sign * (parent[s] - change[s]) > 0)
    p_vals, c_vals = list(parent.values()), list(change.values())
    p_q1, p_med, p_q3 = quartiles(p_vals)
    _, c_med, _ = quartiles(c_vals)
    won = f"{wins}/{len(seeds)}"
    if sign * (c_med - p_med) > bound * abs(p_med):
        return "regression", won
    all_better = max(sign * v for v in c_vals) < min(sign * v for v in p_vals)
    if (p_q3 - p_q1) > bound * abs(p_med) and not all_better:
        return "unresolved", won
    if seeds and wins >= 0.9 * len(seeds) and abs(c_med - p_med) > p_q3 - p_q1:
        return "gain", won
    return "no-regress", won


def _stats(values: list[float]) -> str:
    q1, med, q3 = quartiles(values)
    spread = (q3 - q1) / abs(med) if med else float("nan")
    return f"{med:11.5g} [{q1:.5g}, {q3:.5g}] spread {spread:6.2%} n={len(values)}"


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    sides = [load(Path(d)) for d in argv]
    regressions = 0
    for workload in sorted(set().union(*sides)):
        print(f"== {workload}")
        for metric in metrics:
            name = metric["name"]
            runs = [{s: v[name] for s, v in side.get(workload, {}).items()} for side in sides]
            if not all(runs):
                print(f"  {name:12} missing on one side")
                continue
            line = f"  {name:12} bound {metric['bound']:.0%}  " + "  ".join(
                _stats(list(r.values())) for r in runs
            )
            if len(runs) == 2:
                result, won = verdict(runs[0], runs[1], metric)
                regressions += result == "regression"
                line += f"  change won {won}  {result}"
            print(line)
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
