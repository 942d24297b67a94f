"""The span engine keeps every output byte: golden CSV hashes and block invariance.

n = 2 * SPAN + 1 makes the last span a single row, so the ragged tail of
both the spans and the kernel blocks is exercised.
"""

import hashlib
import sys

import numpy as np
import pytest

from opasim import ensemble
from opasim.cli import main
from opasim.config import RunConfig, with_overrides
from opasim.ensemble import SPAN, propagate_ensemble, sample_state_array
from opasim.figures import emit_figure, figure_state

N = 2 * SPAN + 1

# SHA-256 of the CSVs written by the span-per-thread engine that used one
# 4096-row block per span, before the kernel blocks were cut to cache size
GOLDEN = {
    ("scan",): {
        "scan.csv": "6d3b21a7dcffdce3ed4f11d161ea1a9313fe025cf8dfa7ad401c8a43a11ace5d",
    },
    ("scan", "--A", "0.5", "--phi-deg", "30", "--chi3", "0.05"): {
        "scan.csv": "fbdea8471fe4de35c10e2faf9b4032d86c2755e019edabc22902327373f10609",
    },
    ("figure", "fig2"): {
        "fig2_input.csv": "855eb85fd0b1aca19b5883717b49034647bbf031727e3db28dbd1de4374083ba",
        "fig2_characteristic.csv": "0ccd5c33334b0e9e7bffd09b77abf9e6b7663f258d2ab30d935970ac8c202af9",
        "fig2_output.csv": "cf57387d4bcd6763f9375104029dcbb058d399e15442a10f59c405d9a7c46c1c",
        "fig2_scan.csv": "8299f593be817aa9d8e14c135342bf092538c139aa0b0de18003c4cfad79f3ef",
    },
    ("figure", "fig3", "--A", "0.8"): {
        "fig3_input.csv": "518c3d5a52dfc83aea1f83aae2bb892fd3becec0e14603ee5d44a796e2941cd4",
        "fig3_characteristic.csv": "e549ace235f7d6509cde51cf2cff0f3ba1f7d91319166c12e8cef38fca54f332",
        "fig3_output.csv": "1c028b7cb42e3f4db299ff6532e2dcd21f9eddb2bb692967a8709e9a97ca1b19",
        "fig3_scan.csv": "3d449b6121c2cda6bfe35e146d5550351b321702d7b4a15239d2eac3d2fdbe21",
    },
    ("figure", "fig1b"): {
        "fig1b.csv": "02b8afc596ea0cc5ef209dc708df1494b7e9ceeddd54bc4eaf04010651c104d6",
    },
    # recorded before the oracle's state and array maps became one matrix map
    ("scan", "--mode", "symplectic"): {
        "scan.csv": "bf7d7e8899515b9c0c712dc89704c41114bf172cba7a938ff8f0fe5e924c83ba",
    },
    ("scan", "--mode", "symplectic", "--pump-phase-deg", "37"): {
        "scan.csv": "8fa13e5fd58e9c058c600ce1dc784e09ecbb80fe3749b78990cd4cf88dc4625b",
    },
    ("figure", "fig1d", "--A", "1.5"): {
        "fig1d.csv": "4ed67a5a2b567e60209832ed2445ff3e7b4ac9027f9f4ffd2d31a8ee77218844",
    },
    ("figure", "fig1e", "--A", "1.5"): {
        "fig1e.csv": "9823af0b8556cbdd69c10be3ec7bccd6e048c4e8f993923ae97dd4042720e42c",
    },
}


@pytest.mark.parametrize("workers", ["1", "3"])
@pytest.mark.parametrize("command", list(GOLDEN), ids=" ".join)
def test_golden_csv_bytes(command, workers, tmp_path, capsys):
    if command[0] == "scan":
        target = ["-o", str(tmp_path / "scan.csv")]
    else:
        target = ["--outdir", str(tmp_path)]
    argv = [*command, "--n-realizations", str(N), "--workers", workers, *target]
    assert main(argv) == 0
    capsys.readouterr()
    hashes = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.iterdir()
    }
    assert hashes == GOLDEN[command]


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
