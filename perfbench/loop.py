"""Measured process of the opasim benchmark: one workload in a closed loop.

run.py starts this file in a fresh interpreter with the checkout's ``src``
on PYTHONPATH. It imports opasim, runs one warm-up operation, then runs
operations back to back until ``--seconds`` have passed; ``ru_maxrss``
at the end is the peak RSS of a fresh process that ran the workload.
With ``--trace 0`` a set-up probe (a fresh interpreter that imports
opasim) follows each operation. Every operation is checked against the
closed form and its output files are hashed. With ``--trace 1`` untraced and traced operations alternate, so
the tracing overhead is measured in the same process. The report is
written as JSON to ``--report``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

GATE_REL = 0.02  # scan extrema vs the closed-form single-pass map

# fresh interpreter: import the CLI stack and build the workload's RunConfig
PROBE = """\
import time
from opasim import cli, config
config.with_overrides(config.RunConfig(), n_realizations={n}, seed={seed})
print(time.monotonic())
"""


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    n_realizations: int
    workers: int | None
    outputs: tuple[str, ...]


WORKLOADS = {
    "scan-vacuum": Workload(("scan",), 1_000_000, 1, ("scan.csv",)),
    "figure-fig2": Workload(
        ("figure", "fig2"),
        1_000_000,
        2,
        ("fig2_input.csv", "fig2_characteristic.csv", "fig2_output.csv", "fig2_scan.csv"),
    ),
    "validate-suite": Workload(("validate",), 100_000, None, ("validate.txt",)),
}


def cli_argv(name: str, seed: int, n: int, workdir: Path) -> list[str]:
    wl = WORKLOADS[name]
    argv = [*wl.argv, "--n-realizations", str(n), "--seed", str(seed)]
    if wl.workers is not None:
        argv += ["--workers", str(wl.workers)]
    if name == "scan-vacuum":
        argv += ["-o", str(workdir / "scan.csv")]
    elif name == "figure-fig2":
        argv += ["--outdir", str(workdir)]
    return argv


def _variances(path: Path) -> list[float]:
    with open(path, newline="") as stream:
        return [float(row["variance"]) for row in csv.DictReader(stream)]


def _extrema_error(variances, expected) -> str | None:
    lo, hi = expected
    got_lo, got_hi = min(variances), max(variances)
    if abs(got_lo - lo) > GATE_REL * lo or abs(got_hi - hi) > GATE_REL * hi:
        return f"scan extrema ({got_lo:.6g}, {got_hi:.6g}) not within 2% of ({lo:g}, {hi:g})"
    return None


def check(name: str, workdir: Path, expected, cfg, stdout: str) -> str | None:
    """The operation's correctness gate: None if its outputs are right."""
    wl = WORKLOADS[name]
    missing = [f for f in wl.outputs if not (workdir / f).is_file()]
    if missing:
        return f"missing output(s): {', '.join(missing)}"
    if name == "scan-vacuum":
        variances = _variances(workdir / "scan.csv")
        if len(variances) != cfg.thetas:
            return f"scan has {len(variances)} rows, expected {cfg.thetas}"
        return _extrema_error(variances, expected)
    if name == "figure-fig2":
        return _extrema_error(_variances(workdir / "fig2_scan.csv"), expected)
    from opasim.validate import CHECKS

    lines = stdout.splitlines()
    passed = [line for line in lines if line.startswith("PASS ")]
    if len(lines) != len(CHECKS) or len(passed) != len(CHECKS):
        return f"validate: {len(passed)} of {len(CHECKS)} checks PASS"
    return None


def _hashes(workdir: Path, outputs) -> dict[str, str]:
    return {f: hashlib.sha256((workdir / f).read_bytes()).hexdigest() for f in outputs}


def setup_probe(n: int, seed: int) -> float:
    """Seconds from launching a fresh interpreter until opasim's CLI is
    imported and the workload's RunConfig is built."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(n=n, seed=seed)],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(proc.stdout.split()[-1]) - t0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--n-realizations", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--report", type=Path, required=True)
    args = parser.parse_args()

    t0 = time.perf_counter()
    import numpy as np
    import opasim
    from opasim import cli
    from opasim.config import RunConfig, with_overrides
    from opasim.ensemble import CHUNK, GaussianState
    from opasim.oracle import PassGain, single_pass

    import_s = time.perf_counter() - t0

    import tracing

    name, wl = args.workload, WORKLOADS[args.workload]
    cfg = with_overrides(RunConfig(), n_realizations=args.n_realizations, seed=args.seed)
    oracle = single_pass(GaussianState.vacuum(cfg.convention()), PassGain(cfg.pump_ratio))
    expected = tuple(float(v) for v in np.linalg.eigvalsh(oracle.cov))
    argv = cli_argv(name, args.seed, args.n_realizations, args.workdir)
    args.workdir.mkdir(parents=True, exist_ok=True)

    ops = []
    setup = []
    first_hashes = None

    def run_op(traced: bool) -> None:
        nonlocal first_hashes
        tracer = uninstall = None
        if traced:
            tracer = tracing.Tracer()
            uninstall = tracing.install(tracer)
        for f in wl.outputs:
            (args.workdir / f).unlink(missing_ok=True)
        stdout = io.StringIO()
        error = None
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(argv)
        except Exception as exc:  # an op that raises is a failed op; keep looping
            rc, error = None, f"{type(exc).__name__}: {exc}"
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        if traced:
            uninstall()
        op = {"traced": traced, "wall_s": wall, "cpu_s": cpu, "hashes": {}}
        if error is None and rc != 0:
            error = f"exit code {rc}"
        if error is None:
            if name == "validate-suite":
                (args.workdir / "validate.txt").write_text(stdout.getvalue())
            error = check(name, args.workdir, expected, cfg, stdout.getvalue())
        if error is None:
            op["hashes"] = _hashes(args.workdir, wl.outputs)
            if first_hashes is None:
                first_hashes = op["hashes"]
            elif op["hashes"] != first_hashes:
                changed = [f for f in wl.outputs if op["hashes"][f] != first_hashes[f]]
                error = f"output bytes differ between ops: {', '.join(changed)}"
        op["error"] = error
        if traced:
            layers = tracing.layer_metrics(tracer.spans)
            covered = sum(s.end - s.start for s in tracer.spans if s.parent is None)
            layers["trace.uncovered_s"] = wall - covered
            op["layers"] = layers
        ops.append(op)

    run_op(traced=False)
    deadline = time.perf_counter() + args.seconds
    # at least one timed op; with tracing, at least one untraced and one traced
    timed, min_ops = 0, 1 + args.trace
    while timed < min_ops or time.perf_counter() < deadline:
        run_op(traced=bool(args.trace) and timed % 2 == 1)
        timed += 1
        if not args.trace:
            # one set-up probe after each op spreads them over the whole run,
            # as the ops are, instead of sampling the host at one moment
            setup.append(setup_probe(args.n_realizations, args.seed))
    # the high-water mark over every op: with 2 workers a single op's peak
    # depends on how the chunks in flight overlap
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    grid = cfg.grid()
    report = {
        "ops": ops,  # ops[0] is the warm-up
        "setup_s": setup,
        "peak_rss_mb": peak_rss_mb,
        "import_s": import_s,
        "opasim": opasim.__version__,
        "numpy": np.__version__,
        "chunk": CHUNK,
        # per-chunk working arrays of the propagation, float64
        "chunk_array_bytes": {
            "pairs_block": CHUNK * 2 * 8,
            "trace_block": CHUNK * grid.n_samples * 8,
            "reference_vector": grid.n_samples * 8,
        },
        "argv": argv,
    }
    args.report.write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
