"""The span engine keeps every output byte: golden CSV and stdout hashes, span invariance.

A span of CHUNK rows is the kernel block and the group of the scan and
figure sums. n = 2 * CHUNK + 1 makes the last span a single row, so the
ragged tail is exercised.
"""

import hashlib
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from opasim import ensemble
from opasim.cli import main
from opasim.config import RunConfig, with_overrides
from opasim.ensemble import CHUNK, propagate_ensemble, sample_state_array
from opasim.figures import figure_state
from opasim.validate import check_one_period_lockin

N = 2 * CHUNK + 1

# enough rows that OpenBLAS splits the (n, 2) x (2, 2) sampling product
# over threads when it may
BLAS_N = 100_000

# SHA-256 of the CSVs written by the span engine, one 4096-row kernel block
# per span
GOLDEN = {
    # re-recorded when scan summed its output pairs per span about the
    # noiseless output pair
    ("scan",): {
        "scan.csv": "ec518c3b2914d1ad6465023844de8d2aa50b8037dd1aaf6fd18a208ab3c8b5c1",
    },
    ("scan", "--A", "0.5", "--phi-deg", "30", "--chi3", "0.05"): {
        "scan.csv": "0a0e34c4fb775363e0120f5182e4cc8ed2bff46bb056b14141500f38794caf83",
    },
    ("figure", "fig2"): {
        # re-recorded when the input bands became the pairs' projected covariance
        "fig2_input.csv": "de0f26491056295cd09c6e10038d99a0af997010bf1049ac10d26652aa535ab6",
        "fig2_characteristic.csv": "0ccd5c33334b0e9e7bffd09b77abf9e6b7663f258d2ab30d935970ac8c202af9",
        # re-recorded when the output band came from the pairs' power sums
        # and the pairs were propagated on the smallest alias-free period
        "fig2_output.csv": "4f7f768376ad1c5205a275f31530c493505b45e8f1a189f44d5e895a4dec4dd8",
        "fig2_scan.csv": "188ce327da91685996f40f2966e4f544c148e2654004d7a1835f2f3d86fdc537",
    },
    ("figure", "fig3", "--A", "0.8"): {
        # re-recorded when the input bands were centred on the state's mean
        "fig3_input.csv": "7dd34ae4d97fa401689af7a478a2fe6a3dd8ecc1617b5aebc5ed8662478fdaf8",
        "fig3_characteristic.csv": "e549ace235f7d6509cde51cf2cff0f3ba1f7d91319166c12e8cef38fca54f332",
        # re-recorded when the output band came from the pairs' power sums
        # and the pairs were propagated on the smallest alias-free period
        "fig3_output.csv": "6423bc8db294e22dc05270e6de5b94fc14067c82080b6ff21eaba9bb71c22d9d",
        "fig3_scan.csv": "d164446e24537b910c24ab79d95323cd42a9e991a880e0e18ddb74e2073c9d58",
    },
    # re-recorded when the input bands became the pairs' projected covariance
    ("figure", "fig1b"): {
        "fig1b.csv": "67ab9e18377fb5f67736ea5bd1f4ad6e0999a03803ac8ac8e8265141cb7835bd",
    },
    # re-recorded when scan summed its output pairs per span
    ("scan", "--mode", "symplectic"): {
        "scan.csv": "78098a469a03bab4571eeba4e48981e34d8124ea26c1e8260dfb5cba335f9997",
    },
    ("scan", "--mode", "symplectic", "--pump-phase-deg", "37"): {
        "scan.csv": "6fc2e64a8252cc732bfb86e00cdd38fc18ef45387e5049316582125264f58b21",
    },
    # re-recorded when the input bands were centred on the state's mean
    ("figure", "fig1d", "--A", "1.5"): {
        "fig1d.csv": "8a318a749abc70890cc5afddb55154d66e40300ff2c64c9738c431c61e35d3cb",
    },
    # re-recorded when the input bands were centred on the state's mean
    ("figure", "fig1e", "--A", "1.5"): {
        "fig1e.csv": "a43e273f73126ba3f50749d576999ae5d2c5e326a44f24139e50f4b235ca414b",
    },
}


# SHA-256 of the standard output, which prints the checks' worst deviations
# and the pipeline's spectrum to the last digit, so a change of order in any
# sum the span engine or the lock-in makes shows here
STDOUT_GOLDEN = {
    # re-recorded when the determinism check compared span cuts instead of
    # worker counts; only its detail line changed
    ("validate",): "ca4e0daab6e713a137d238fbf72988efad1d678b145774777f2888d73fe2a7ca",
    (
        "validate", "--chi3", "0.05", "--chi1", "0.7", "--eps0", "2.5",
        "--pump-phase-deg", "37",
    ): "19ce48d7d475cd84f44c7132b3222571ea1a919a1f063a707cc7c01c90edf62a",
    # the smallest alias-free grid, and 381 samples: the lock-in sums over
    # fewer and over more than 128 samples take different pairwise paths
    ("validate", "--samples-per-period", "9", "--n-periods", "1"):
    "61c79d2ea50db0c1b4b6c9e8b87d1a0abbaa3b48eafbdedc552906cd9dd407f6",
    ("validate", "--samples-per-period", "127", "--n-periods", "3"):
    "18f7f2da5aff95702baca8d537d3f92913208c8b956ebe76fbf5a67a98b1b6d6",
    ("spectrum",): "7f71abf7233834e743acfd3e9c6ea5c86839346f913de41531fc31f5a29bbd75",
}


@pytest.mark.parametrize("command", list(STDOUT_GOLDEN), ids=" ".join)
def test_golden_stdout_bytes(command, capsys):
    assert main(list(command)) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == STDOUT_GOLDEN[command]


def _target(command, directory):
    """Output flags that put a command's CSVs into directory."""
    if command[0] == "scan":
        return ["-o", str(directory / "scan.csv")]
    return ["--outdir", str(directory)]


# --workers is parsed and ignored, so each value must give the golden bytes
@pytest.mark.parametrize("workers", ["1", "3"])
@pytest.mark.parametrize("command", list(GOLDEN), ids=" ".join)
def test_golden_csv_bytes(command, workers, tmp_path, capsys):
    target = _target(command, tmp_path)
    argv = [*command, "--n-realizations", str(N), "--workers", workers, *target]
    assert main(argv) == 0
    capsys.readouterr()
    hashes = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.iterdir()
    }
    assert hashes == GOLDEN[command]


@pytest.mark.parametrize(
    "command",
    [
        ("scan",),
        ("scan", "--A", "0.5", "--phi-deg", "30", "--chi3", "0.05"),
        ("figure", "fig2"),
    ],
    ids=" ".join,
)
def test_scan_bytes_do_not_depend_on_n_periods(command, tmp_path, capsys):
    name = "scan.csv" if command[0] == "scan" else f"{command[1]}_scan.csv"
    scans = []
    for periods in ("1", "4"):
        outdir = tmp_path / periods
        outdir.mkdir()
        argv = [*command, "--n-realizations", str(N), "--n-periods", periods]
        assert main([*argv, *_target(command, outdir)]) == 0
        scans.append((outdir / name).read_bytes())
    capsys.readouterr()
    assert scans[0] == scans[1]


@pytest.mark.parametrize("command", [("scan",), ("scan", "--chi3", "0.05")], ids=" ".join)
def test_scan_bytes_do_not_depend_on_the_grid(command, tmp_path, capsys):
    # the scan propagates on the smallest alias-free period, whatever the grid
    scans = set()
    for samples in ("16", "64", "256"):
        for periods in ("1", "4"):
            target = tmp_path / f"{samples}x{periods}.csv"
            argv = [*command, "--n-realizations", str(N), "-o", str(target)]
            argv += ["--samples-per-period", samples, "--n-periods", periods]
            assert main(argv) == 0
            scans.add(target.read_bytes())
    capsys.readouterr()
    assert len(scans) == 1


@pytest.mark.parametrize(
    "command",
    [
        ("scan",),
        ("scan", "--mode", "symplectic", "--pump-phase-deg", "37"),
        ("figure", "fig1b", "--pump-phase-deg", "37"),
        ("figure", "fig2"),
    ],
    ids=" ".join,
)
def test_bytes_do_not_depend_on_blas_threads_or_workers(command, tmp_path):
    # at 37 degrees fig1b samples through a non-diagonal noise matrix, and
    # the symplectic scan maps each span through a non-diagonal gain matrix
    outputs = []
    for threads in ("1", "2"):
        outdir = tmp_path / threads
        outdir.mkdir()
        argv = [*command, "--n-realizations", str(BLAS_N)]
        subprocess.run(
            [sys.executable, "-m", "opasim", *argv, *_target(command, outdir)],
            env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
            capture_output=True,
            check=True,
        )
        outputs.append({p.name: p.read_bytes() for p in outdir.iterdir()})
    assert outputs[0]
    assert outputs[1] == outputs[0]


def _propagated():
    cfg = with_overrides(RunConfig(), n_realizations=N)
    # a squeezed state has a non-diagonal noise matrix
    pairs = sample_state_array(figure_state("fig1b", cfg), cfg.ensemble())
    return propagate_ensemble(pairs, cfg.B, cfg.pump_phase, cfg.medium, cfg.grid())


def _on_threads(run, workers):
    """run() on each of workers threads at once, which switch often."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(workers) as pool:
            futures = [pool.submit(run) for _ in range(workers)]
            return [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)


# CHUNK in rows, the propagated rows' kernel block: spans of 1 row (1),
# short spans (3, 7, 27, 256), the default (4096) and one span for all N
# rows (16384). workers callers propagate at once: each thread has its own
# kernel buffers, so a span written to another caller's buffers would
# change the bits
@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("chunk", [1, 3, 7, 27, 256, 4096, 16384])
def test_outputs_do_not_depend_on_block_size_or_workers(chunk, workers, monkeypatch):
    want = _propagated()
    monkeypatch.setattr(ensemble, "CHUNK", chunk)
    for got in _on_threads(_propagated, workers):
        assert np.array_equal(got, want)


# CHUNK in rows: spans of 1 row (1), short spans (3, 27, 512), and one
# span for all 10 000 rows of the check (16384)
@pytest.mark.parametrize("chunk", [1, 3, 27, 512, 16384])
def test_one_period_lockin_check_passes_at_any_block_size(chunk, monkeypatch):
    cfg = RunConfig()
    want = check_one_period_lockin(cfg)
    monkeypatch.setattr(ensemble, "CHUNK", chunk)
    ok, message = check_one_period_lockin(cfg)
    assert ok
    assert (ok, message) == want
