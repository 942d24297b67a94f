"""Smoke test of the benchmark itself, at a small ensemble size.

    python3 perfbench/smoke.py

For every workload it runs run.py untraced and traced on one seed and
untraced on a second seed, each at n = 1e5 for one second, and checks:

1. every end-to-end and per-layer metric in BENCHMARK.json is emitted,
   with its unit, and the correctness gate passes;
2. the traced and the untraced run write byte-identical outputs;
3. the other seed changes the recorded output hashes.

Exits 0 when all hold and 1 otherwise, listing each failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "results" / "smoke"
N_REALIZATIONS = 100_000
SEEDS = (1, 2)

sys.path.insert(0, str(BENCH))
from loop import WORKLOADS  # noqa: E402


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [
            sys.executable, str(BENCH / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", "1",
            "--trace", str(trace),
            "--n-realizations", str(N_REALIZATIONS),
            "--out", str(OUT),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=180,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"run.py {workload} seed {seed} trace {trace}: {proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    record = json.loads((OUT / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: spec["end_to_end"], 1: spec["per_layer"]}
    failures = []
    for workload in WORKLOADS:
        first, second = SEEDS
        keys = ((first, 0), (first, 1), (second, 0))
        runs = {(seed, trace): run(workload, seed, trace) for seed, trace in keys}
        for (seed, trace), (result, _) in runs.items():
            where = f"{workload} seed {seed} trace {trace}"
            if not result["correct"] or result["failed"]:
                failures.append(f"{where}: correctness gate failed")
            for metric in expected[trace]:
                got = result["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    failures.append(f"{where}: {metric['name']} missing or not in {metric['unit']}")
        plain, traced, other = (runs[k][1]["hashes"] for k in keys)
        if not plain or plain != traced:
            failures.append(f"{workload}: traced and untraced outputs differ")
        if plain == other:
            failures.append(f"{workload}: seeds {SEEDS} gave the same output hashes")
        print(f"{workload}: checked {len(runs)} runs")
    for failure in failures:
        print(f"FAIL {failure}")
    print("smoke test", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
