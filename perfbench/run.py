"""opasim benchmark: one workload, measured end to end or traced per layer.

    python3 perfbench/run.py --workload scan-vacuum --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; opasim is imported from its ``src``.
It starts one fresh process (loop.py) that runs the workload in a
closed loop. With ``--trace 0`` that process reports wall time, CPU time
and peak RSS, and times set-up in a fresh interpreter after each op. With ``--trace 1`` that
process alternates untraced and traced operations and the per-layer
metrics come from the spans. Every operation passes the correctness gate
or counts as failed. A result file with the run manifest is written to
``--out``; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from loop import WORKLOADS
from tracing import PER_LAYER, unit_of

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DEFAULT_SEED = 20260811  # opasim's RunConfig().seed
TIME_LIMIT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "wall_s_tail": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

class BenchError(Exception):
    pass


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile): the percentile with ten samples beyond it,
    but never below p75, interpolated linearly between order statistics.

    Fewer than 40 samples cannot support a tail of ten beyond a point at
    or above p75, so such runs (every 1e6 workload) report p75. The
    percentile depends on the count alone, never on which op was slowest,
    so it does not jump between the fastest and slowest op as the count
    crosses a threshold."""
    ordered = sorted(values)
    n = len(ordered)
    q = max(0.75, (n - 10) / n)
    pos = (n - 1) * q
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo]), 100.0 * q


def _run(cmd, env, deadline, **kwargs) -> subprocess.CompletedProcess:
    try:
        proc = subprocess.run(
            cmd,
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
            **kwargs,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{cmd[1]} did not finish within the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[:2])} exited {proc.returncode}:\n{proc.stderr}")
    return proc


def git_revision() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_caches() -> dict[str, str]:
    if shutil.which("lscpu") is None:
        return {}
    proc = subprocess.run(
        ["lscpu"], env=dict(os.environ, LC_ALL="C"), capture_output=True, text=True, timeout=10
    )
    fields = (line.partition(":") for line in proc.stdout.splitlines())
    return {k.strip(): v.strip() for k, _, v in fields if "cache" in k.lower()}


def reference_changes(workload: str, n: int, seed: int, hashes: dict) -> list[str] | None:
    """Output files whose bytes differ from the recorded reference, or
    None when no reference is recorded for this workload, size and seed."""
    refs = json.loads((BENCH / "reference_hashes.json").read_text())
    ref = refs.get(f"{workload} n={n} seed={seed}")
    if ref is None:
        return None
    return sorted(f for f in ref if hashes.get(f) != ref[f])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--n-realizations", type=int, help="override the workload's size (smoke test)"
    )
    parser.add_argument("--out", type=Path, default=BENCH / "results", help="result file directory")
    args = parser.parse_args()

    deadline = time.monotonic() + TIME_LIMIT_S
    src = ROOT / "src"
    if not (src / "opasim" / "__init__.py").is_file():
        print(f"error: no opasim sources under {src}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    n = args.n_realizations or wl.n_realizations
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
    workdir = BENCH / "work" / f"{args.workload}-{os.getpid()}"
    report_path = workdir / "report.json"
    try:
        workdir.mkdir(parents=True, exist_ok=True)
        _run(
            [
                sys.executable,
                str(BENCH / "loop.py"),
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--n-realizations", str(n),
                "--workdir", str(workdir),
                "--report", str(report_path),
            ],
            env,
            deadline,
        )
        report = json.loads(report_path.read_text())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = report["ops"]
    setup = report["setup_s"]
    timed = ops[1:]
    plain = [op for op in timed if not op["traced"]]
    traced = [op for op in timed if op["traced"]]
    failed = sum(1 for op in ops if op["error"])
    walls = [op["wall_s"] for op in plain]
    wall_tail, tail_pct = tail(walls)
    hashes = next((op["hashes"] for op in ops if op["hashes"]), {})
    changed = reference_changes(args.workload, n, args.seed, hashes)

    if args.trace:
        values = {
            m: statistics.median(op["layers"].get(m, 0.0) for op in traced) for m in PER_LAYER
        }
        values["import.busy_s"] = report["import_s"]
        values["trace.wall_s"] = statistics.median(op["wall_s"] for op in traced)
        values["trace.untraced_wall_s"] = statistics.median(walls)
        values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
        metrics = {m: {"value": values[m], "unit": unit_of(m)} for m in PER_LAYER}
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "wall_s_tail": wall_tail,
            "cpu_s": statistics.median(op["cpu_s"] for op in plain),
            "peak_rss_mb": report["peak_rss_mb"],
        }
        metrics = {m: {"value": values[m], "unit": unit} for m, unit in END_TO_END.items()}

    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }
    manifest = {
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "numpy": report["numpy"],
        "opasim": report["opasim"],
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "chunk": report["chunk"],
        "chunk_array_bytes": report["chunk_array_bytes"],
        "cpu_caches": cpu_caches(),
        "workload": args.workload,
        "seed": args.seed,
        "workers": wl.workers,
        "n_realizations": n,
        "seconds": args.seconds,
        "trace": args.trace,
        "argv": report["argv"],
    }
    record = {
        **result,
        "failed_frac": failed / len(ops),
        "manifest": manifest,
        "wall_s_samples": len(walls),
        "wall_s_tail_percentile": tail_pct,
        "setup_s_samples": setup,
        "hashes": hashes,
        "output_bytes_changed": changed,
        "errors": sorted({op["error"] for op in ops if op["error"]}),
        "ops": [{k: op[k] for k in ("traced", "wall_s", "cpu_s", "error")} for op in ops],
    }
    args.out.mkdir(parents=True, exist_ok=True)
    out_path = args.out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")

    print(
        f"{args.workload} seed={args.seed} n={n}: {len(ops)} ops "
        f"(1 warm-up, {len(plain)} untraced, {len(traced)} traced), "
        f"{failed} failed, failed_frac={failed / len(ops):g}"
    )
    for error in record["errors"]:
        print(f"  failure: {error}")
    if changed is None:
        print("output_bytes_changed: no reference recorded for this workload, size and seed")
    else:
        print(f"output_bytes_changed: {', '.join(changed) or 'none'}")
    if not args.trace:
        print(f"wall_s over {len(walls)} ops; wall_s_tail is p{tail_pct:g}; setup_s over {len(setup)} probes")
    for m, entry in metrics.items():
        print(f"  {m} = {entry['value']:.6g} {entry['unit']}")
    print(f"result file: {out_path}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
