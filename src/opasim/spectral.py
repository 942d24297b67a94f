"""Exact harmonic decomposition, and the pumped medium's spectrum.

The medium's spectrum has one numeric pipeline, :func:`pumped_spectrum`,
and one closed form, :func:`predict_spectrum`; the ``spectrum`` command
and the ``closed-form-equivalence`` check both compare the two.

Extraction is a plain Riemann projection onto cos(k*omega*t) and
sin(k*omega*t) over the integer number of periods held by the grid. On a
uniform left-aligned grid this is exact (to rounding) for any series
band-limited below the Nyquist order, so no windowing or leakage
tolerance enters anywhere.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .fields import (
    HarmonicComponent,
    TimeGrid,
    TimeSeries,
    cos_sin,
    pump_carrier,
    series_major,
    synthesize_values,
)
from .medium import polynomial_values


def lines_mean_square(lines: Sequence[tuple[float, float]]) -> float:
    """Mean-square value of a series from its lines (c, s), k = 0, 1, ... (Parseval).

    In Python floats: ``x**2`` is libm's ``pow``, which need not round as
    ``x * x`` does, so a numpy square would not keep these bits.
    """
    dc = lines[0][0]
    ac = sum(c**2 + s**2 for c, s in lines[1:])
    return dc**2 + 0.5 * ac


# elements of one stacked lock-in product: 256 KiB of float64, the size of
# validate's other transient blocks; 512 KiB products raised peak RSS
PRODUCT_ELEMENTS = 32 * 1024


def lockin_rows(
    block: np.ndarray,
    cos1: np.ndarray,
    sin1: np.ndarray,
    n_samples: int,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """(c, s) of each column of a samples-major block; exact for band-limited columns.

    ``block`` is (n_samples, m), one column per realization, and the
    references are rows of n_samples: c = (2/N) * sum block[n] * cos1[n]
    and s likewise. The m pairs go to ``out`` (:func:`_lockin`). A block
    at least as wide as n_samples puts its products in ``scratch`` when
    given, one reference at a time, and overwrites it; a narrower one is
    summed series-major and leaves ``scratch`` alone. Each sum has the
    bits of ``np.sum`` on that column alone, whatever m.
    """
    out = np.empty((block.shape[1], 2)) if out is None else out
    return _lockin(block, (cos1, sin1), 2.0 / n_samples, out, scratch)


def spectrum_rows(
    block: np.ndarray, grid: TimeGrid, k_max: int, out: np.ndarray | None = None
) -> np.ndarray:
    """(c, s) of bins k = 0..k_max of each column of a samples-major block.

    The result is (m, k_max + 1, 2), into ``out`` when given. All 2*k_max
    reference rows go through one :func:`_lockin`, a few at a time, and
    column j's pairs have the bits of :func:`lockin_extract` on that column
    alone: bins k >= 1 those of :func:`lockin_rows`, and DC the column's
    ``np.mean``, its :func:`_column_sums` over n_samples. A block at least
    as wide as n_samples is overwritten; a narrower one is read only.
    """
    m = block.shape[1]
    out = np.empty((m, k_max + 1, 2)) if out is None else out
    references = [row for k in range(1, k_max + 1) for row in grid.harmonic(k)]
    # bins k >= 1 as (m, 2*k_max) columns: c1, s1, c2, s2, ...
    lines = np.reshape(out[:, 1:], (m, 2 * k_max), copy=False)
    _lockin(block, references, 2.0 / grid.n_samples, lines, None)
    np.divide(_column_sums(block), grid.n_samples, out=out[:, 0, 0])
    out[:, 0, 1] = 0.0
    return out


def _lockin(
    block: np.ndarray,
    references: Sequence[np.ndarray],
    scale: float,
    out: np.ndarray,
    scratch: np.ndarray | None,
) -> np.ndarray:
    """out[j, i] = scale * sum_n block[n, j] * references[i][n]: the one lock-in.

    ``block`` is (n_samples, m), ``references`` rows of n_samples and
    ``out`` (m, len(references)). Every column keeps the bits of its own
    ``np.sum``, in one of two layouts chosen by the block's shape
    (:func:`~opasim.fields.series_major`). Narrower than n_samples, the
    block is read as m contiguous series (a view of a series-major block,
    a copy otherwise); the products of g references at a time fill a (g,
    m, n_samples) product, whose rows numpy sums with its own pairwise
    sum. Otherwise they fill g column blocks of an (n_samples, g*m)
    scratch, which :func:`_pairwise_rows` sums as whole-row adds: a given
    scratch is (n_samples, m) and takes one reference at a time. Without
    one, and on the series path, g fills up to PRODUCT_ELEMENTS.
    """
    n, m = block.shape
    series = series_major(n, m)
    if series:
        block = np.ascontiguousarray(block.T)
    if scratch is None or series:
        group = max(1, min(len(references), PRODUCT_ELEMENTS // max(block.size, 1)))
        scratch = np.empty((group, m, n) if series else (n, group * m))
    else:
        group = 1
    for lo in range(0, len(references), group):
        refs = references[lo : lo + group]
        if series:
            product = scratch[: len(refs)]
            for row, reference in zip(product, refs):
                np.multiply(block, reference, out=row)
            sums = np.add.reduce(product, axis=-1)
        else:
            product = scratch[:, : len(refs) * m]
            for i, reference in enumerate(refs):
                np.multiply(block, reference[:, None], out=product[:, i * m : (i + 1) * m])
            sums = _column_sums(product).reshape(len(refs), m)
        np.multiply(scale, sums.T, out=out[:, lo : lo + len(refs)])
    return out


def _column_sums(block: np.ndarray) -> np.ndarray:
    """Sum of each column of a 2-d block, each with the bits of its own ``np.sum``.

    ``np.sum`` of one contiguous series adds its terms in numpy's pairwise
    order (Higham, SIAM J. Sci. Comput. 14, 1993) to an initial +0.0. A
    block with fewer columns than rows (:func:`~opasim.fields.series_major`)
    is summed so: ``np.add.reduce`` along the rows of its contiguous
    transpose, a view of a series-major block. Over axis 0 of a wider
    block numpy adds in another order, which depends on the width, so
    those adds are made here as whole-row adds (:func:`_pairwise_rows`),
    overwriting the block.
    """
    n, m = block.shape
    if series_major(n, m):
        return np.add.reduce(np.ascontiguousarray(block.T), axis=-1)
    row = _pairwise_rows(block)
    row += 0.0  # the initial +0.0, which turns a -0.0 sum into +0.0
    return row


def _pairwise_rows(block: np.ndarray) -> np.ndarray:
    """Row 0 of block, overwritten with numpy's ``pairwise_sum`` over the rows.

    Under 8 rows they are added in order; up to 128, eight accumulators
    step by 8, are added as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) and the
    remainder follows in order; over 128 the rows split at n/2, rounded
    down to a multiple of 8, and the halves' sums are added.
    """
    n = block.shape[0]
    if n > 128:
        half = n // 2 - (n // 2) % 8
        row = _pairwise_rows(block[:half])
        row += _pairwise_rows(block[half:])
        return row
    if n < 8:
        rest = range(1, n)
    else:
        stop = n - n % 8
        for start in range(8, stop, 8):
            block[:8] += block[start : start + 8]
        np.add(block[0:8:2], block[1:8:2], out=block[0:8:2])
        np.add(block[0:8:4], block[2:8:4], out=block[0:8:4])
        block[0] += block[4]
        rest = range(stop, n)
    for i in rest:
        block[0] += block[i]
    return block[0]


def lockin_extract(e: TimeSeries, k: int) -> HarmonicComponent:
    """Project a series onto harmonic order k.

    c = (2/N) * sum e[n] cos(k*omega*t_n) and s likewise for k >= 1
    (:func:`lockin_rows` on the one row); the DC bin is the plain mean.
    Rejects k < 0 and k at or above the grid's Nyquist order, where the
    projection would alias (:meth:`TimeGrid.harmonic`).
    """
    if k == 0:
        return HarmonicComponent(k=0, c=float(np.mean(e.values)), s=0.0)
    cos_k, sin_k = e.grid.harmonic(k)
    pair = lockin_rows(e.values[:, None], cos_k, sin_k, e.grid.n_samples)
    return HarmonicComponent(k=k, c=float(pair[0, 0]), s=float(pair[0, 1]))


def pumped_spectrum(
    a,
    b,
    phi,
    pump_phase,
    chi1,
    chi2,
    chi3,
    eps0,
    grid: TimeGrid,
    k_max: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Numeric spectrum of the pumped medium's polarization, over eps0.

    Column j carries the field a[j]*cos(omega*t + phi[j]) -
    b[j]*cos(2*omega*t + pump_phase[j]) through the medium (chi1[j], chi2[j],
    chi3, eps0[j]; chi3 a row or a scalar): :func:`~opasim.fields.synthesize_values`,
    :func:`~opasim.medium.polynomial_values` and :func:`spectrum_rows`,
    then each column's lines divided by its eps0. The result is
    (m, k_max + 1, 2), into ``out`` when given. Each row has the bits of
    its draw alone, and :func:`predict_spectrum` is its closed form.
    """
    cos_phi, sin_phi = cos_sin(phi)
    carriers = [
        HarmonicComponent(1, a * cos_phi, -a * sin_phi),
        pump_carrier(b, pump_phase),
    ]
    field = synthesize_values(carriers, grid, len(a))
    polarization = polynomial_values(field, chi1, chi2, chi3, eps0)
    out = spectrum_rows(polarization, grid, k_max, out=out)
    out *= (1.0 / eps0)[:, None, None]
    return out


def predict_spectrum(a, b, phi, pump_phase, chi1, chi2, chi3) -> list[list]:
    """Closed-form (c, s) of bins k = 0..6 of the polarization over eps0.

    The medium's polynomial ((chi3*E + chi2)*E + chi1)*E in Horner form on
    the lines of the field a*cos(omega*t + phi) - b*cos(2*omega*t +
    pump_phase) (:func:`_line_product`); bins 5 and 6 are +0 at chi3 = 0.
    The arguments are scalars or rows of draws, and each entry has the
    bits of its own scalar call.
    """
    cos_phi, sin_phi = cos_sin(phi)
    pump = pump_carrier(b, pump_phase)
    field = [(0.0, 0.0), (a * cos_phi, -a * sin_phi), (pump.c, pump.s)]
    lines = [[chi3 * c, chi3 * s] for c, s in field]
    for chi in (chi2, chi1):
        lines[0][0] = lines[0][0] + chi
        lines = _line_product(lines, field)
    return lines


def _line_product(p: Sequence, q: Sequence) -> list[list]:
    """Lines (c, s), k = 0, 1, ..., of the product of two series given by theirs.

    Line j times line k feeds only orders j + k and |j - k|, a DC line
    too (the product-to-sum identities; Boyd, *Nonlinear Optics*, 3rd ed.,
    sec. 1.2). Elementwise multiplies and adds only: they round alike on
    every host, where a convolution would go through BLAS ``dot``.
    """
    out = [[0.0, 0.0] for _ in range(len(p) + len(q) - 1)]
    for j, (cj, sj) in enumerate(p):
        for k, (ck, sk) in enumerate(q):
            cc, ss = 0.5 * cj * ck, 0.5 * sj * sk
            cs, sc = 0.5 * cj * sk, 0.5 * sj * ck
            out[j + k][0] += cc - ss
            out[abs(j - k)][0] += cc + ss
            if j + k:  # no sine at order 0
                out[j + k][1] += cs + sc
            if j != k:
                out[abs(j - k)][1] += sc - cs if j > k else cs - sc
    return out
