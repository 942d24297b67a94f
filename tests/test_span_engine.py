"""The span engine keeps every output byte: golden CSV hashes and span invariance.

A span of CHUNK rows is the kernel block, the unit of pool work and the
group of the scan and figure sums. n = 2 * CHUNK + 1 makes the last span
a single row, so the ragged tail is exercised.
"""

import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

from opasim import ensemble
from opasim.cli import main, run_scan
from opasim.config import RunConfig, with_overrides
from opasim.ensemble import CHUNK, propagate_ensemble, sample_state_array
from opasim.figures import emit_figure, figure_state
from opasim.validate import check_one_period_lockin

N = 2 * CHUNK + 1

# enough rows that OpenBLAS splits the (n, 2) x (2, 2) sampling product
# over threads when it may
BLAS_N = 100_000

# SHA-256 of the CSVs written by the span-per-thread engine, one 4096-row
# kernel block per span
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


def _target(command, directory):
    """Output flags that put a command's CSVs into directory."""
    if command[0] == "scan":
        return ["-o", str(directory / "scan.csv")]
    return ["--outdir", str(directory)]


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
        for workers in ("1", "3"):
            outdir = tmp_path / f"{threads}-{workers}"
            outdir.mkdir()
            argv = [*command, "--n-realizations", str(BLAS_N), "--workers", workers]
            subprocess.run(
                [sys.executable, "-m", "opasim", *argv, *_target(command, outdir)],
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
                capture_output=True,
                check=True,
            )
            outputs.append({p.name: p.read_bytes() for p in outdir.iterdir()})
    assert outputs[0]
    assert all(output == outputs[0] for output in outputs[1:])


def _propagated(workers):
    cfg = with_overrides(RunConfig(), n_realizations=N)
    # a squeezed state has a non-diagonal noise matrix
    pairs = sample_state_array(figure_state("fig1b", cfg), cfg.ensemble())
    return propagate_ensemble(
        pairs, cfg.B, cfg.pump_phase, cfg.medium, cfg.grid(), workers=workers
    )


def _outputs(workers):
    cfg = with_overrides(RunConfig(), n_realizations=N)
    columns = []
    for mode in (cfg, with_overrides(cfg, mode="symplectic", pump_phase_deg=37.0)):
        scan = run_scan(mode, workers)
        columns.extend((scan.variances, scan.means))
    for name in ("fig2", "fig1b"):
        for table in emit_figure(name, cfg, workers=workers):
            columns.extend(table.columns)
    return columns


def _switching_often(run, workers):
    # threads that switch often: a span written to the wrong rows or a
    # sum taken out of order would change the bits
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        return run(workers)
    finally:
        sys.setswitchinterval(interval)


# CHUNK in rows, the propagated rows' kernel block: spans of 1 row (1),
# short spans (3, 7, 27, 256), the default (4096) and one span for all N
# rows (16384)
@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("chunk", [1, 3, 7, 27, 256, 4096, 16384])
def test_outputs_do_not_depend_on_block_size_or_workers(chunk, workers, monkeypatch):
    want = _propagated(workers=1)
    monkeypatch.setattr(ensemble, "CHUNK", chunk)
    assert np.array_equal(_switching_often(_propagated, workers), want)


# the scan and figure sums are grouped by span, so their bits are pinned
# at the default CHUNK; only the worker count may vary
def test_scan_and_figure_outputs_do_not_depend_on_workers():
    want = _outputs(workers=1)
    outputs = _switching_often(_outputs, workers=3)
    assert len(outputs) == len(want)
    for got, ref in zip(outputs, want):
        assert np.array_equal(got, ref)


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
