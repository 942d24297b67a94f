"""Exact harmonic decomposition, and the pumped quadratic medium's spectrum.

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
    and s likewise. The m pairs go to ``out``, and the products to
    ``scratch`` when given, one reference at a time (:func:`_lockin`).
    Each sum has the bits of ``np.sum`` on that column alone, whatever m.
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
    ``np.mean``, its :func:`_column_sums` over n_samples. Overwrites block.
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
    ``out`` (m, len(references)). The products of g references at a time
    fill g column blocks of an (n_samples, g*m) scratch, which
    :func:`_column_sums` sums, so every column keeps the bits of its own
    ``np.sum``. A given scratch is (n_samples, m) and takes one reference
    at a time; without one, g fills up to PRODUCT_ELEMENTS.
    """
    n, m = block.shape
    if scratch is None:
        group = max(1, min(len(references), PRODUCT_ELEMENTS // max(block.size, 1)))
        scratch = np.empty((n, group * m))
    else:
        group = 1
    for lo in range(0, len(references), group):
        refs = references[lo : lo + group]
        product = scratch[:, : len(refs) * m]
        for i, reference in enumerate(refs):
            np.multiply(block, reference[:, None], out=product[:, i * m : (i + 1) * m])
        sums = _column_sums(product).reshape(len(refs), m)
        np.multiply(scale, sums.T, out=out[:, lo : lo + len(refs)])
    return out


def _column_sums(block: np.ndarray) -> np.ndarray:
    """Sum of each column of a 2-d block, overwriting the block.

    ``np.sum`` of one contiguous series adds its terms in numpy's pairwise
    order (Higham, SIAM J. Sci. Comput. 14, 1993) to an initial +0.0. Over
    axis 0 of a wider block numpy adds in another order, which depends on
    the width, so those adds are made here as whole-row adds, and every
    column, a lone one too, gets the bits of its own series' sum.
    """
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
    pump_phase: float,
    chi1,
    chi2,
    eps0,
    grid: TimeGrid,
    k_max: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Numeric spectrum of the pumped quadratic medium's polarization, over eps0.

    Column j carries the field a[j]*cos(omega*t + phi[j]) -
    b[j]*cos(2*omega*t + pump_phase) through the medium (chi1[j], chi2[j],
    chi3 = 0, eps0[j]): :func:`~opasim.fields.synthesize_values`,
    :func:`~opasim.medium.polynomial_values` and :func:`spectrum_rows`,
    then each column's lines divided by its eps0. The arguments but
    pump_phase are rows of m draws; the result is (m, k_max + 1, 2), into
    ``out`` when given. Each row has the bits of its draw alone, and
    :func:`predict_spectrum` is its closed form.
    """
    cos_phi, sin_phi = cos_sin(phi)
    carriers = [
        HarmonicComponent(1, a * cos_phi, -a * sin_phi),
        pump_carrier(b, pump_phase),
    ]
    field = synthesize_values(carriers, grid, len(a))
    polarization = polynomial_values(field, chi1, chi2, 0.0, eps0)
    out = spectrum_rows(polarization, grid, k_max, out=out)
    out *= (1.0 / eps0)[:, None, None]
    return out


def predict_spectrum(a, b, phi, chi1, chi2) -> tuple[tuple, ...]:
    """Closed-form (c, s) of bins k = 0..4 of the polarization over eps0, for chi3 = 0.

    The input field is A*cos(omega*t + phi) - B*cos(2*omega*t). The
    quadratic response of the medium redistributes the two input lines
    over DC, omega, 2*omega, 3*omega and 4*omega; the linear response
    keeps the input lines in place. Both orders are summed (the omega bin
    is their interference, which is what parametric amplification acts
    on). The arguments are scalars or rows of draws, and the lines
    broadcast over them; each entry has the bits of its own scalar call.
    """
    cos_phi, sin_phi = cos_sin(phi)
    cos_2phi, sin_2phi = cos_sin(2.0 * phi)
    ab = a * b
    return (
        (0.5 * chi2 * (a * a + b * b), 0.0),
        (
            chi1 * a * cos_phi - chi2 * ab * cos_phi,
            -chi1 * a * sin_phi - chi2 * ab * sin_phi,
        ),
        (
            -chi1 * b + 0.5 * chi2 * a * a * cos_2phi,
            -0.5 * chi2 * a * a * sin_2phi,
        ),
        (-chi2 * ab * cos_phi, chi2 * ab * sin_phi),
        (0.5 * chi2 * b * b, 0.0),
    )
