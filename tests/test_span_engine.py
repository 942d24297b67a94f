"""The span engine keeps every output byte: golden CSV hashes and block invariance.

n = 2 * SPAN + 1 makes the last span a single row, so the ragged tail of
both the spans and the kernel blocks is exercised.
"""

import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

from opasim import ensemble
from opasim.cli import main
from opasim.config import RunConfig, with_overrides
from opasim.ensemble import SPAN, propagate_ensemble, sample_state_array
from opasim.figures import emit_figure, figure_state

N = 2 * SPAN + 1

# enough rows that OpenBLAS splits the (n, 2) x (2, 2) sampling product
# over threads when it may
BLAS_N = 100_000

# SHA-256 of the CSVs written by the span-per-thread engine that used one
# 4096-row block per span, before the kernel blocks were cut to cache size
GOLDEN = {
    # re-recorded when propagate_ensemble moved to one fundamental period
    ("scan",): {
        "scan.csv": "b5579edb589c197c2677469a7ba8cbd27b678c2b43014cece9d06f15fa534389",
    },
    ("scan", "--A", "0.5", "--phi-deg", "30", "--chi3", "0.05"): {
        "scan.csv": "f523a4b97853891868fa28614b3ed73beb8efc398293ed0c700c467da1bd5334",
    },
    ("figure", "fig2"): {
        # re-recorded when the input bands became the pairs' projected covariance
        "fig2_input.csv": "de0f26491056295cd09c6e10038d99a0af997010bf1049ac10d26652aa535ab6",
        "fig2_characteristic.csv": "0ccd5c33334b0e9e7bffd09b77abf9e6b7663f258d2ab30d935970ac8c202af9",
        "fig2_output.csv": "cf57387d4bcd6763f9375104029dcbb058d399e15442a10f59c405d9a7c46c1c",
        "fig2_scan.csv": "8299f593be817aa9d8e14c135342bf092538c139aa0b0de18003c4cfad79f3ef",
    },
    ("figure", "fig3", "--A", "0.8"): {
        # re-recorded when the input bands became the pairs' projected covariance
        "fig3_input.csv": "38fe3dfc9372435164ca2ac3d57dab0348f475579fb6c14d6b20545cba76cf61",
        "fig3_characteristic.csv": "e549ace235f7d6509cde51cf2cff0f3ba1f7d91319166c12e8cef38fca54f332",
        "fig3_output.csv": "1c028b7cb42e3f4db299ff6532e2dcd21f9eddb2bb692967a8709e9a97ca1b19",
        "fig3_scan.csv": "3d449b6121c2cda6bfe35e146d5550351b321702d7b4a15239d2eac3d2fdbe21",
    },
    # re-recorded when the input bands became the pairs' projected covariance
    ("figure", "fig1b"): {
        "fig1b.csv": "67ab9e18377fb5f67736ea5bd1f4ad6e0999a03803ac8ac8e8265141cb7835bd",
    },
    # recorded before the oracle's state and array maps became one matrix map
    ("scan", "--mode", "symplectic"): {
        "scan.csv": "bf7d7e8899515b9c0c712dc89704c41114bf172cba7a938ff8f0fe5e924c83ba",
    },
    # re-recorded when gain_matrix became exactly symmetric
    ("scan", "--mode", "symplectic", "--pump-phase-deg", "37"): {
        "scan.csv": "be7feafd638f357eb7b485ee156b81687f5a153ca6265268aefce29d307c1d5e",
    },
    # re-recorded when the input bands became the pairs' projected covariance
    ("figure", "fig1d", "--A", "1.5"): {
        "fig1d.csv": "268e0c1e61e6a8dddc66ee18a11073e8e1be0a74b7564edd88a7dbd34bee88f7",
    },
    # re-recorded when the input bands became the pairs' projected covariance
    ("figure", "fig1e", "--A", "1.5"): {
        "fig1e.csv": "3ac6ad9b1fc1375863d33f21b3e396d195a6fb7ec0cb37821ad14a30ffafd3f8",
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
    [("scan",), ("scan", "--A", "0.5", "--phi-deg", "30", "--chi3", "0.05")],
    ids=" ".join,
)
def test_scan_bytes_do_not_depend_on_n_periods(command, tmp_path, capsys):
    for periods in ("1", "4"):
        output = str(tmp_path / f"{periods}.csv")
        argv = [*command, "--n-realizations", str(N), "--n-periods", periods]
        assert main([*argv, "-o", output]) == 0
    capsys.readouterr()
    assert (tmp_path / "1.csv").read_bytes() == (tmp_path / "4.csv").read_bytes()


@pytest.mark.parametrize(
    "command", [("scan",), ("figure", "fig1b", "--pump-phase-deg", "37")], ids=" ".join
)
def test_bytes_do_not_depend_on_blas_threads_or_workers(command, tmp_path):
    # at 37 degrees fig1b samples through a non-diagonal noise matrix
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


def _outputs(workers):
    cfg = with_overrides(RunConfig(), n_realizations=N)
    # a squeezed state has a non-diagonal noise matrix
    pairs = sample_state_array(figure_state("fig1b", cfg), cfg.ensemble())
    propagated = propagate_ensemble(
        pairs, cfg.B, cfg.pump_phase, cfg.medium, cfg.grid(), workers=workers
    )
    columns = [propagated]
    for name in ("fig2", "fig1b"):
        for table in emit_figure(name, cfg, workers=workers):
            columns.extend(table.columns)
    return columns


@pytest.fixture(scope="module")
def reference_outputs():
    return _outputs(workers=1)


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("chunk", [1, 7, 256, 4096])
def test_outputs_do_not_depend_on_block_size_or_workers(
    chunk, workers, reference_outputs, monkeypatch
):
    monkeypatch.setattr(ensemble, "CHUNK", chunk)
    # threads that switch often: a span written to the wrong rows or a
    # sum taken out of order would change the bits
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        outputs = _outputs(workers)
    finally:
        sys.setswitchinterval(interval)
    assert len(outputs) == len(reference_outputs)
    for got, want in zip(outputs, reference_outputs):
        assert np.array_equal(got, want)
