"""The in-place kernels give the bits of the allocating expressions they replaced.

The golden CSV hashes only cover chi1 = eps0 = 1, where the x1.0 passes are
skipped; here every kernel, and a whole span, is run on a ragged block
(one block plus 3 rows) for media with and without those factors, on inputs
holding signed zeros and values that overflow. Results are compared as
bit patterns, so a -0.0 turned into +0.0 fails.
"""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from opasim import ensemble
from opasim.ensemble import (
    block_references,
    lockin_rows,
    propagate_span,
    pump_trace,
    synthesize_rows,
)
from opasim.fields import TimeGrid
from opasim.medium import SusceptibilityProfile, polarization_values, transfer_values

GRID = TimeGrid(64, 4)
BLOCK = ensemble.CHUNK // GRID.n_samples
ROWS = BLOCK + 3

MEDIA = [
    SusceptibilityProfile(chi1=chi1, chi2=chi2, chi3=chi3, eps0=eps0)
    for chi1, eps0, chi2, chi3 in itertools.product(
        (1.0, 0.7), (1.0, 2.5), (0.5, -0.3), (0.0, 0.05)
    )
]


def _medium_id(m):
    return f"chi1={m.chi1}-eps0={m.eps0}-chi2={m.chi2}-chi3={m.chi3}"


# the expressions the kernels ran before they wrote into buffers


def reference_synthesize(pairs, pump, cos1, sin1):
    return pairs[:, 0:1] * cos1 + pairs[:, 1:2] * sin1 + pump


def reference_polarization(values, medium):
    out = medium.chi1 * values + medium.chi2 * values * values
    if medium.chi3 != 0.0:
        out += medium.chi3 * values * values * values
    return medium.eps0 * out


def reference_transfer(values, medium):
    return reference_polarization(values, medium) / (medium.eps0 * medium.chi1)


def reference_lockin(rows, cos1, sin1, n_samples):
    scale = 2.0 / n_samples
    c = scale * (rows * cos1).sum(axis=1)
    s = scale * (rows * sin1).sum(axis=1)
    return np.column_stack((c, s))


def reference_span(pairs, pump, cos1, sin1, medium):
    out = np.empty((len(pairs), 2))
    for lo in range(0, len(pairs), BLOCK):
        e_in = reference_synthesize(pairs[lo : lo + BLOCK], pump, cos1, sin1)
        e_out = reference_transfer(e_in, medium)
        out[lo : lo + BLOCK] = reference_lockin(e_out, cos1, sin1, cos1.size)
    return out


def same_bits(got, want):
    return got.shape == want.shape and np.array_equal(
        got.view(np.uint64), want.view(np.uint64)
    )


def _with_specials(values):
    flat = values.reshape(-1)
    specials = [0.0, -0.0, 1e150, -1e150, 1e200, -1e300, 5e-324, -5e-324]
    for i, value in enumerate(specials):
        flat[7 * i :: 97] = value
    return values


@pytest.fixture
def pairs():
    rng = np.random.default_rng(2024)
    pairs = _with_specials(rng.normal(size=(ROWS, 2)) * 3.0)
    # rows whose products are all signed zeros
    pairs[:3] = [(-0.0, -0.0), (0.0, -0.0), (-0.0, 0.0)]
    return pairs


@pytest.fixture
def traces():
    rng = np.random.default_rng(7)
    return _with_specials(rng.normal(size=(ROWS, GRID.n_samples)) * 2.0)


@pytest.fixture
def references():
    cos1, sin1 = GRID.harmonic(1)
    return pump_trace(1.0, 0.3, GRID), cos1, sin1


@pytest.mark.parametrize("pump", ["trace", "negative zero"])
def test_synthesize_rows_keeps_the_bits(pump, pairs, references):
    if pump == "negative zero":
        # a -0.0 pump keeps the sign of a zero sum, as a nonzero one would not
        references = (np.full(GRID.n_samples, -0.0), *references[1:])
    want = reference_synthesize(pairs, *references)
    with np.errstate(all="ignore"):
        assert same_bits(synthesize_rows(pairs, *references), want)
        tiled = [np.tile(row, (ROWS, 1)) for row in references]
        out, scratch = np.empty((ROWS, GRID.n_samples)), np.empty((ROWS, GRID.n_samples))
        got = synthesize_rows(pairs, *tiled, out=out, scratch=scratch)
    assert got is out
    assert same_bits(out, want)


@pytest.mark.parametrize("medium", MEDIA, ids=_medium_id)
def test_medium_kernels_keep_the_bits(medium, traces):
    with np.errstate(all="ignore"):
        want_p = reference_polarization(traces, medium)
        want_t = reference_transfer(traces, medium)
        assert same_bits(polarization_values(traces, medium), want_p)
        assert same_bits(transfer_values(traces, medium), want_t)
        for kernel, want in ((polarization_values, want_p), (transfer_values, want_t)):
            out, scratch = np.empty_like(traces), np.empty_like(traces)
            got = kernel(traces, medium, out=out, scratch=scratch)
            assert got is out
            assert same_bits(out, want)


def test_lockin_rows_keeps_the_bits(traces, references):
    _, cos1, sin1 = references
    want = reference_lockin(traces, cos1, sin1, GRID.n_samples)
    with np.errstate(all="ignore"):
        assert same_bits(lockin_rows(traces, cos1, sin1, GRID.n_samples), want)
        tiled = [np.tile(row, (ROWS, 1)) for row in (cos1, sin1)]
        out = np.empty((ROWS, 2))
        got = lockin_rows(
            traces, *tiled, GRID.n_samples, out=out, scratch=np.empty_like(traces)
        )
    assert got is out
    assert same_bits(out, want)


@pytest.mark.parametrize("medium", MEDIA, ids=_medium_id)
def test_propagate_span_keeps_the_bits(medium, pairs, references):
    with np.errstate(all="ignore"):
        want = reference_span(pairs, *references, medium)
        refs = block_references(references[0], GRID, ROWS)
        out = np.empty((ROWS, 2))
        propagate_span(pairs, *refs, medium, out)
    assert same_bits(out, want)


def test_block_references_are_read_only_block_tiles(references, monkeypatch):
    pump, cos1, sin1 = references
    refs = block_references(pump, GRID, ROWS)
    for tiled, row in zip(refs, references):
        # a block holds CHUNK samples of trace
        assert tiled.shape == (ensemble.CHUNK // GRID.n_samples, GRID.n_samples)
        assert not tiled.flags.writeable
        assert all(same_bits(tiled_row, row) for tiled_row in tiled)
    for period in (replace(GRID, n_periods=1), TimeGrid(9, 1)):
        pump_row = pump_trace(1.0, 0.3, period)
        shape = block_references(pump_row, period, 10**6)[0].shape
        assert shape == (ensemble.CHUNK // period.n_samples, period.n_samples)
    assert block_references(pump, GRID, 3)[0].shape == (3, GRID.n_samples)
    # a block is never empty, even when CHUNK is less than a trace
    monkeypatch.setattr(ensemble, "CHUNK", 3)
    assert block_references(pump, GRID, ROWS)[0].shape == (1, GRID.n_samples)
