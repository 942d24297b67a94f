"""The span engine keeps every output byte: golden CSV and stdout hashes, span invariance.

The kernels' bits are also the same at numpy's default ufunc buffer size
and at the one of cli's numpy frame, which every golden is made in.

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
from opasim.cli import UFUNC_BUFFER, main, numpy_frame
from opasim.config import RunConfig, with_overrides
from opasim.ensemble import (
    CHUNK,
    channel_sums,
    medium_channel,
    propagate_ensemble,
    sample_state_array,
)
from opasim.fields import TimeGrid
from opasim.figures import figure_state
from opasim.medium import SusceptibilityProfile
from opasim.rng import uniforms
from opasim.spectral import spectrum_rows
from opasim.validate import SharedInputs, check_one_period_lockin

N = 2 * CHUNK + 1

# enough rows that OpenBLAS splits the (n, 2) x (2, 2) sampling product
# over threads when it may
BLAS_N = 100_000

# SHA-256 of the CSVs written by the span engine, one 4096-row kernel block
# per span. Every sampled CSV was re-recorded when the Box-Muller angle
# came from the 256-entry turn table; the *_characteristic.csv files hold
# no samples. The sampling radius takes numpy's log, so these hold on
# hosts with AVX-512 only
GOLDEN = {
    # re-recorded when the channel traced 2d + 2 samples, not 4d + 1
    ("scan",): {
        "scan.csv": "e9f77331ef6df3b12bbe350367c9691f0831c4f55c7adf02b8f289857856f8d3",
    },
    ("scan", "--A", "0.5", "--phi-deg", "30", "--chi3", "0.05"): {
        "scan.csv": "ea57851fd4d699066e14bbca8c6a8c86a6267d569a3eabd2a05e0b9c372ea225",
    },
    ("figure", "fig2"): {
        # re-recorded when phases became periodic
        "fig2_input.csv": "ff3d038c27a1ab455786ccdb55e487e7c31738b7b56e2bba8b75e042170c37b5",
        "fig2_characteristic.csv": "0ccd5c33334b0e9e7bffd09b77abf9e6b7663f258d2ab30d935970ac8c202af9",
        # re-recorded when the output band came from the pairs' power sums
        "fig2_output.csv": "88e16a510a2c4a683c50d611a2f17a0c8c089cce766b4e47e4ea216de691c23b",
        # re-recorded when the channel traced 2d + 2 samples
        "fig2_scan.csv": "e6cad90aafe73971b84e11ad25509588c56262355808227f5b1dce601483648e",
    },
    ("figure", "fig3", "--A", "0.8"): {
        # re-recorded when phases became periodic
        "fig3_input.csv": "35327bba55a2e3e5be3a6d47852d7613c57b02e6b042140e3736f171b7be182f",
        "fig3_characteristic.csv": "e549ace235f7d6509cde51cf2cff0f3ba1f7d91319166c12e8cef38fca54f332",
        # re-recorded when the output band came from the pairs' power sums
        "fig3_output.csv": "864c68ba4dc35702fc90dcb005c0c51e89dae98d664fa373e1b60ebe0a005059",
        # re-recorded when the channel traced 2d + 2 samples
        "fig3_scan.csv": "60fd65f90726b7a9d8451823f79eb5ffb95ff7319263434c3f9b2e9a306f50db",
    },
    # re-recorded when phases became periodic
    ("figure", "fig1b"): {
        "fig1b.csv": "c20bbdc59a0a370f421f157599760fec9f4040d92d0319ddf3268d6c9d59af5f",
    },
    # re-recorded when scan summed its output pairs per span
    ("scan", "--mode", "symplectic"): {
        "scan.csv": "b6c818f35d494d5006bcf7577abb903b8420163b83b6e682e46ec47fde112fdc",
    },
    ("scan", "--mode", "symplectic", "--pump-phase-deg", "37"): {
        "scan.csv": "7c49bb16a640680baf6ffca0a3e0dcb38ee06210485dfa88a364e5a50ce6f792",
    },
    # re-recorded when phases became periodic
    ("figure", "fig1d", "--A", "1.5"): {
        "fig1d.csv": "a5450ee4f09cfdb6df84d301476afe965930e771af02572135657e0d2a730387",
    },
    # re-recorded when phases became periodic
    ("figure", "fig1e", "--A", "1.5"): {
        "fig1e.csv": "c728a49aae61ba1d3ce5a7788a9c7628bc6630c698a9a5ba7437a9f87a7d9a8c",
    },
}


# SHA-256 of the standard output, which prints the checks' worst deviations
# and the pipeline's spectrum to the last digit, so a change of order in any
# sum the span engine or the lock-in makes shows here
STDOUT_GOLDEN = {
    # re-recorded when phases became periodic, when one-period-lockin
    # compared against one configured period, when the channel traced
    # 2d + 2 samples (only the one-period-lockin detail line changed), and
    # when the check inputs came from opasim.rng's uniforms (the detail
    # lines of lockin-exactness, parseval and closed-form-equivalence), and
    # when heisenberg-symplectic's bound scaled with n (its detail line)
    ("validate",): "d76ebb9a4d4d7f77f5fba6ab86a6dbf2ca4b94e31bdd1f40e6ef0efe75a81f1b",
    # re-recorded as the line above
    (
        "validate", "--chi3", "0.05", "--chi1", "0.7", "--eps0", "2.5",
        "--pump-phase-deg", "37",
    ): "272fabd45db9c1b060e5d7dab26f4c16743273f49cc37892546076a4f65debac",
    # the smallest alias-free grid, and 381 samples: the lock-in sums over
    # fewer and over more than 128 samples take different pairwise paths;
    # both re-recorded as the first line, and the first again when the
    # closed-form draws took a pump phase (its closed-form detail line)
    ("validate", "--samples-per-period", "9", "--n-periods", "1"):
    "614e51fbf368cdd52b0ecf6cc38101717e08929751a6b6bbe792c0fd00ce970a",
    ("validate", "--samples-per-period", "127", "--n-periods", "3"):
    "46a75fe20d3ca47c361713f36e1292c2ea673fa761755ff90faf9095f8f404a4",
    # re-recorded when phases became periodic; the spectrum entries were
    # all re-recorded when the closed form became the line algebra (only
    # the predicted and deviation columns moved)
    ("spectrum",): "9f29669a1fb508ba317fc912d57ce62672c0ed859d867b81bfb41d8602c0eeec",
    # a non-unit medium, where the 1/eps0 scale and the chi1 product enter
    (
        "spectrum", "--A", "0.7", "--phi-deg", "33", "--B", "1.3", "--chi1", "0.7",
        "--chi2", "-0.4", "--eps0", "2.5",
    ): "b45ee61035a497ab1111dda57d5fef08a07e4c5ecd72118a23dead2c12dbf358",
    # a lock-in over more than 128 samples
    (
        "spectrum", "--samples-per-period", "127", "--n-periods", "3", "--A", "1.5",
        "--phi-deg", "200",
    ): "2954742f31f610c57da4c2bf110e484f9b876433d277a187472bde8a4b423f12",
    # a full turn is reduced to phase 0 before radians, so this prints the
    # bytes of ("spectrum", "--A", "0.5") (test_cli checks that)
    ("spectrum", "--pump-phase-deg", "360", "--A", "0.5"):
    "e3c140812e803fc381ae76c6ccf9b86f53bb47cff3e7c4d1fa78041b9ed3572d",
    # a Kerr medium at a pump phase, on the fewest samples that resolve k <= 6
    (
        "spectrum", "--chi3", "0.05", "--chi1", "0.7", "--eps0", "2.5",
        "--pump-phase-deg", "37", "--A", "0.5", "--samples-per-period", "13",
        "--n-periods", "1",
    ): "26c65f7d770bbd4a5f5a5d6f473b53a564477c44b3b8bc9776f8db2e853e0259",
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


# --workers 1 runs every span in this process, and --workers 2 and 3 fork
# the later groups of N's 3 spans (as many as the CPUs allow) and add their
# sums in span order: each must give the golden bytes
@pytest.mark.parametrize("workers", ["1", "2", "3"])
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
    # the scan propagates on the channel's own period, whatever the grid
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
    # the symplectic scan maps each span through a non-diagonal gain matrix.
    # BLAS_N rows are 25 spans, so --workers 2 forks a child, at 2 threads
    # from a process that runs an OpenBLAS thread pool
    outputs = []
    for threads in ("1", "2"):
        outdir = tmp_path / threads
        outdir.mkdir()
        argv = [*command, "--n-realizations", str(BLAS_N), "--workers", "2"]
        subprocess.run(
            [sys.executable, "-m", "opasim", *argv, *_target(command, outdir)],
            env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
            capture_output=True,
            check=True,
        )
        outputs.append({p.name: p.read_bytes() for p in outdir.iterdir()})
    assert outputs[0]
    assert outputs[1] == outputs[0]


def _at_default_and_in_frame(run):
    """run()'s result bytes at numpy's default ufunc buffer and in cli's frame."""
    assert np.getbufsize() != UFUNC_BUFFER
    want = run()
    with numpy_frame():
        assert np.getbufsize() == UFUNC_BUFFER
        got = run()
    return [np.asarray(x).tobytes() for x in want], [np.asarray(x).tobytes() for x in got]


# a medium with no factor of 1.0, so every pass runs
FRAME_MEDIA = {
    "chi2": SusceptibilityProfile(chi1=0.7, chi2=-0.4, eps0=2.5),
    "chi3": SusceptibilityProfile(chi1=0.7, chi2=-0.4, chi3=0.05, eps0=2.5),
}


# spans at and below the 2048 columns that numpy's default buffer copies,
# and one above; the buffer size decides only which loop numpy runs, so
# the frame can never move a golden
@pytest.mark.parametrize("medium", FRAME_MEDIA)
@pytest.mark.parametrize("rows", [576, 1808, 2048, 2049])
def test_channel_bits_do_not_depend_on_the_ufunc_buffer(rows, medium):
    cfg = with_overrides(RunConfig(), n_realizations=rows)
    pairs = sample_state_array(figure_state("fig1b", cfg), cfg.ensemble())
    channel = medium_channel(1.3, 0.6, FRAME_MEDIA[medium])
    want, got = _at_default_and_in_frame(lambda: [channel(pairs)])
    assert got == want


def test_channel_sums_bits_do_not_depend_on_the_ufunc_buffer():
    # a whole span and a 1808-row one, summed to degree 4
    cfg = with_overrides(RunConfig(), n_realizations=CHUNK + 1808)
    state = figure_state("fig1b", cfg)
    channel = medium_channel(1.3, 0.6, FRAME_MEDIA["chi3"])
    want, got = _at_default_and_in_frame(
        lambda: channel_sums(state, cfg.ensemble(), [(channel, 4)])[0]
    )
    assert got == want


# the blocks of lockin-exactness (25 draws on the 64x4 grid) and of
# closed-form-equivalence (128 draws on one 64-sample period)
@pytest.mark.parametrize("grid, draws", [(TimeGrid(64, 4), 25), (TimeGrid(64, 1), 128)])
def test_spectrum_bits_do_not_depend_on_the_ufunc_buffer(grid, draws):
    block = uniforms(5, 0, grid.n_samples * draws).reshape(grid.n_samples, draws)
    want, got = _at_default_and_in_frame(
        lambda: [spectrum_rows(block.copy(), grid, grid.max_harmonic())]
    )
    assert got == want


def _propagated():
    cfg = with_overrides(RunConfig(), n_realizations=N)
    # a squeezed state has a non-diagonal noise matrix
    pairs = sample_state_array(figure_state("fig1b", cfg), cfg.ensemble())
    return propagate_ensemble(pairs, cfg.B, cfg.pump_phase, cfg.medium)


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
    want = check_one_period_lockin(SharedInputs(cfg))
    monkeypatch.setattr(ensemble, "CHUNK", chunk)
    ok, message = check_one_period_lockin(SharedInputs(cfg))
    assert ok
    assert (ok, message) == want
