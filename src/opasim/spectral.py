"""Exact harmonic decomposition and the closed-form second-order spectrum.

Extraction is a plain Riemann projection onto cos(k*omega*t) and
sin(k*omega*t) over the integer number of periods held by the grid. On a
uniform left-aligned grid this is exact (to rounding) for any series
band-limited below the Nyquist order, so no windowing or leakage
tolerance enters anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import HarmonicComponent, TimeSeries
from .medium import SusceptibilityProfile


@dataclass(frozen=True)
class HarmonicSpectrum:
    """Components for k = 0..k_max, one entry per order, in order."""

    components: tuple[HarmonicComponent, ...]

    def __post_init__(self):
        for k, comp in enumerate(self.components):
            if comp.k != k:
                raise ValueError("components must be ordered k = 0..k_max")

    @property
    def k_max(self) -> int:
        return len(self.components) - 1

    def component(self, k: int) -> HarmonicComponent:
        return self.components[k]

    def __iter__(self):
        return iter(self.components)

    def mean_square(self) -> float:
        """Mean-square value of the originating series (Parseval)."""
        dc = self.components[0].c
        ac = sum(comp.c**2 + comp.s**2 for comp in self.components[1:])
        return dc**2 + 0.5 * ac

    def scaled(self, factor: float) -> "HarmonicSpectrum":
        return HarmonicSpectrum(
            tuple(
                HarmonicComponent(comp.k, factor * comp.c, factor * comp.s)
                for comp in self.components
            )
        )


def lockin_rows(
    rows: np.ndarray,
    cos1: np.ndarray,
    sin1: np.ndarray,
    n_samples: int,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """(c, s) of each row against the references; exact for band-limited rows.

    c = (2/N) * sum row[n] * cos1[n] and s likewise. The references are
    single rows or block references; the pair goes to ``out`` and the
    products to ``scratch`` when given.
    """
    scale = 2.0 / n_samples
    out = np.empty((len(rows), 2)) if out is None else out
    for column, reference in enumerate((cos1, sin1)):
        scratch = np.multiply(rows, reference, out=scratch)
        np.multiply(scale, scratch.sum(axis=1), out=out[:, column])
    return out


def lockin_extract(e: TimeSeries, k: int) -> HarmonicComponent:
    """Project a series onto harmonic order k.

    c = (2/N) * sum e[n] cos(k*omega*t_n) and s likewise for k >= 1
    (:func:`lockin_rows` on the one row); the DC bin is the plain mean.
    Rejects k at or above the grid's Nyquist order, where the projection
    would alias.
    """
    if k < 0:
        raise ValueError("harmonic order k must be non-negative")
    grid = e.grid
    grid.require_harmonic(k)
    if k == 0:
        return HarmonicComponent(k=0, c=float(np.mean(e.values)), s=0.0)
    phases = k * grid.phases()
    pair = lockin_rows(e.values[None, :], np.cos(phases), np.sin(phases), grid.n_samples)
    return HarmonicComponent(k=k, c=float(pair[0, 0]), s=float(pair[0, 1]))


def full_spectrum(e: TimeSeries, k_max: int = 6) -> HarmonicSpectrum:
    """Extract all bins k = 0..k_max from a series."""
    return HarmonicSpectrum(tuple(lockin_extract(e, k) for k in range(k_max + 1)))


def predict_spectrum(
    a: float,
    b: float,
    phi: float,
    medium: SusceptibilityProfile,
    second_order_only: bool = False,
) -> HarmonicSpectrum:
    """Closed-form spectrum of the polarization response, divided by eps0.

    The input field is A*cos(omega*t + phi) - B*cos(2*omega*t). The
    quadratic response of the medium redistributes the two input lines
    over DC, omega, 2*omega, 3*omega and 4*omega; the linear response
    keeps the input lines in place. By default both orders are summed
    (the omega bin is their interference, which is what parametric
    amplification acts on); ``second_order_only`` keeps just the
    quadratic part. Only defined for chi3 = 0.
    """
    if medium.chi3 != 0.0:
        raise ValueError("closed-form spectrum is only maintained for chi3 = 0")
    chi1 = 0.0 if second_order_only else medium.chi1
    chi2 = medium.chi2
    cos_phi, sin_phi = math.cos(phi), math.sin(phi)
    cos_2phi, sin_2phi = math.cos(2.0 * phi), math.sin(2.0 * phi)
    ab = a * b
    components = (
        HarmonicComponent(0, 0.5 * chi2 * (a * a + b * b)),
        HarmonicComponent(
            1,
            chi1 * a * cos_phi - chi2 * ab * cos_phi,
            -chi1 * a * sin_phi - chi2 * ab * sin_phi,
        ),
        HarmonicComponent(
            2,
            -chi1 * b + 0.5 * chi2 * a * a * cos_2phi,
            -0.5 * chi2 * a * a * sin_2phi,
        ),
        HarmonicComponent(3, -chi2 * ab * cos_phi, chi2 * ab * sin_phi),
        HarmonicComponent(4, 0.5 * chi2 * b * b),
    )
    return HarmonicSpectrum(components)
