"""The in-place kernels give the bits of the allocating expressions they replaced.

The kernels run on samples-major blocks, one column per realization. The
golden CSV hashes only cover chi1 = eps0 = 1, where the x1.0 passes are
skipped; here every kernel, and a whole span, is run for media with and
without those factors, on inputs holding signed zeros and values that
overflow. Each realization is checked against its own trace, built and
summed alone as a contiguous row. Results are compared as bit patterns, so
a -0.0 turned into +0.0 fails.
"""

import itertools

import numpy as np
import pytest

from opasim import ensemble, spectral
from opasim.ensemble import (
    lockin_rows,
    medium_channel,
    propagate_span,
    pump_trace,
    synthesize_rows,
)
from opasim.fields import TimeGrid
from opasim.medium import (
    SusceptibilityProfile,
    channel_samples,
    polarization_values,
    polynomial_values,
    transfer_values,
)

GRID = TimeGrid(64, 4)
ROWS = 131

MEDIA = [
    SusceptibilityProfile(chi1=chi1, chi2=chi2, chi3=chi3, eps0=eps0)
    for chi1, eps0, chi2, chi3 in itertools.product(
        (1.0, 0.7), (1.0, 2.5), (0.5, -0.3), (0.0, 0.05)
    )
]


def _medium_id(m):
    return f"chi1={m.chi1}-eps0={m.eps0}-chi2={m.chi2}-chi3={m.chi3}"


# each realization's trace and lock-in on its own, one contiguous row each


def reference_synthesize(pairs, pump, cos1, sin1):
    return np.array([x1 * cos1 + x2 * sin1 + pump for x1, x2 in pairs]).T


def reference_polarization(values, medium):
    out = medium.chi1 * values + medium.chi2 * values * values
    if medium.chi3 != 0.0:
        out += medium.chi3 * values * values * values
    return medium.eps0 * out


def reference_transfer(values, medium):
    return reference_polarization(values, medium) / (medium.eps0 * medium.chi1)


def reference_lockin(block, cos1, sin1, n_samples):
    scale = 2.0 / n_samples
    return np.array(
        [(scale * np.sum(trace * cos1), scale * np.sum(trace * sin1)) for trace in block.T]
    )


def reference_span(pairs, pump, cos1, sin1, medium):
    e_out = reference_transfer(reference_synthesize(pairs, pump, cos1, sin1), medium)
    return reference_lockin(e_out, cos1, sin1, cos1.size)


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
    # realizations whose products are all signed zeros
    pairs[:3] = [(-0.0, -0.0), (0.0, -0.0), (-0.0, 0.0)]
    return pairs


@pytest.fixture
def traces():
    rng = np.random.default_rng(7)
    traces = _with_specials(rng.normal(size=(GRID.n_samples, ROWS)) * 2.0)
    # a realization whose trace is all -0.0 sums to +0.0, as np.sum does
    traces[:, 5] = -0.0
    return traces


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
    shape = (GRID.n_samples, ROWS)
    with np.errstate(all="ignore"):
        assert same_bits(synthesize_rows(pairs, *references), want)
        out, scratch = np.empty(shape), np.empty(shape)
        got = synthesize_rows(pairs, *references, out=out, scratch=scratch)
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


# one medium per column: coefficient rows, and chi3 as a scalar or a row;
# row entries of exactly 1.0 are multiplied through, as x*1.0 is x
@pytest.mark.parametrize("chi3", [0.0, 0.05, "row"])
def test_polynomial_rows_give_each_column_its_own_mediums_bits(chi3, traces):
    media = [m for m in MEDIA if m.chi3 == (0.0 if chi3 == 0.0 else 0.05)]
    columns = [media[j % len(media)] for j in range(ROWS)]
    chi1, chi2, eps0 = (
        np.array([getattr(m, name) for m in columns]) for name in ("chi1", "chi2", "eps0")
    )
    chi3 = np.full(ROWS, 0.05) if chi3 == "row" else chi3
    with np.errstate(all="ignore"):
        want = np.array(
            [polarization_values(traces[:, j], m) for j, m in enumerate(columns)]
        ).T
        got = polynomial_values(traces, chi1, chi2, chi3, eps0)
    assert same_bits(got, want)


def test_lockin_rows_keeps_the_bits(traces, references):
    _, cos1, sin1 = references
    want = reference_lockin(traces, cos1, sin1, GRID.n_samples)
    with np.errstate(all="ignore"):
        assert same_bits(lockin_rows(traces, cos1, sin1, GRID.n_samples), want)
        out = np.empty((ROWS, 2))
        got = lockin_rows(
            traces, cos1, sin1, GRID.n_samples, out=out, scratch=np.empty_like(traces)
        )
    assert got is out
    assert same_bits(out, want)


# numpy's pairwise sum adds under 8 terms in order, up to 128 through
# eight accumulators, and splits longer series in two. Blocks narrower
# than n_samples are summed series-major, the others as whole-row adds,
# so widths n - 1, n and n + 1 sit on either side of that cut
@pytest.mark.parametrize("n_samples", [*range(1, 21), 64, 127, 128, 129, 256, 257])
@pytest.mark.parametrize("width", [1, 2, 3, 7, 4096, "n-1", "n", "n+1"])
def test_lockin_rows_sums_each_column_as_np_sum(n_samples, width):
    offsets = {"n-1": -1, "n": 0, "n+1": 1}
    width = max(1, n_samples + offsets[width]) if width in offsets else width
    rng = np.random.default_rng(n_samples * 10_000 + width)
    # magnitudes over ten decades, so another order of adds changes the bits
    block = rng.normal(size=(n_samples, width)) * 10.0 ** rng.integers(-5, 5, (n_samples, width))
    if width > 1:
        block[:, 1] = -0.0
    cos1, sin1 = rng.normal(size=(2, n_samples))
    want = reference_lockin(block, cos1, sin1, n_samples)
    assert same_bits(lockin_rows(block, cos1, sin1, n_samples), want)
    # a view whose rows are not adjacent, as propagate_span's blocks are
    wide = np.empty((n_samples, width + 8))
    wide[:, :width] = block
    assert same_bits(lockin_rows(wide[:, :width], cos1, sin1, n_samples), want)
    # a series-major block, as fields.synthesize_values makes narrow ones
    assert same_bits(lockin_rows(np.asfortranarray(block), cos1, sin1, n_samples), want)


# the series-major path never calls the whole-row adds, and wider blocks do
@pytest.mark.parametrize(
    "shape, series",
    [
        ((256, 25), True),
        ((256, 255), True),
        ((6, 1), True),
        ((6, 5), True),
        ((256, 256), False),
        ((64, 128), False),
        ((6, 4096), False),
    ],
    ids=str,
)
def test_blocks_narrower_than_their_series_are_summed_series_major(
    shape, series, monkeypatch
):
    calls = []
    pairwise_rows = spectral._pairwise_rows

    def counted(block):
        calls.append(block.shape)
        return pairwise_rows(block)

    monkeypatch.setattr(spectral, "_pairwise_rows", counted)
    block = np.random.default_rng(3).normal(size=shape)
    cos1, sin1 = np.random.default_rng(4).normal(size=(2, shape[0]))
    for order in ("C", "F"):
        lockin_rows(np.array(block, order=order), cos1, sin1, shape[0])
        assert (calls == []) is series
        calls.clear()
        spectral._column_sums(np.array(block, order=order))
        assert (calls == []) is series
        calls.clear()


@pytest.mark.parametrize("medium", MEDIA, ids=_medium_id)
def test_propagate_span_keeps_the_bits(medium, pairs, references):
    # a full span, a ragged one and a single row, as the channel's centre is
    for count in (ROWS, ROWS - 3, 1):
        with np.errstate(all="ignore"):
            want = reference_span(pairs[:count], *references, medium)
            out = np.empty((count, 2))
            propagate_span(pairs[:count], *references, medium, out)
        assert same_bits(out, want)


def test_channel_references_are_read_only_period_rows(monkeypatch):
    rows = []
    monkeypatch.setattr(ensemble, "propagate_span", lambda *args: rows.extend(args[1:4]))
    medium = SusceptibilityProfile(chi1=1.0, chi2=0.5, chi3=0.05)
    medium_channel(1.0, 0.3, medium)(np.zeros((1, 2)))
    # one period of the channel's samples, 8 for chi3
    period = TimeGrid(channel_samples(medium), 1)
    want = (pump_trace(1.0, 0.3, period), *period.harmonic(1))
    for row, want_row in zip(rows, want, strict=True):
        assert not row.flags.writeable
        assert same_bits(row, want_row)


def test_spans_reuse_the_thread_buffers(pairs, monkeypatch):
    monkeypatch.setattr(ensemble, "CHUNK", ROWS)
    channel = medium_channel(1.0, 0.3, MEDIA[0])
    samples = channel_samples(MEDIA[0])
    with np.errstate(all="ignore"):
        want = channel(pairs)
        held = [buffer.base for buffer in ensemble._block_buffers(samples, ROWS)]
        # the centre row and a ragged span run in the same buffers
        for count in (1, ROWS - 3):
            assert same_bits(channel(pairs[:count]), want[:count])
            views = ensemble._block_buffers(samples, count)
            assert all(view.base is base for view, base in zip(views, held, strict=True))
        # a block wider than a span runs too, in wider buffers
        assert same_bits(channel(np.tile(pairs, (2, 1))), np.tile(want, (2, 1)))
