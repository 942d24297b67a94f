"""Canonical field representations: time grids, spectral lines, quadratures.

All fields are dimensionless (normalized units): one fundamental period
is one time unit, so the fundamental angular frequency omega is 2*pi on
every grid and is not a setting. Sampling is uniform and left-aligned
with the endpoint of the last period excluded, which makes discrete
trigonometric orthogonality exact and lock-in extraction leakage-free
for band-limited signals.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling of an integer number of fundamental periods.

    Parameters
    ----------
    samples_per_period : int
        Samples per fundamental period. Harmonic order k can only be
        represented without aliasing for k < samples_per_period / 2.
    n_periods : int
        Number of fundamental periods covered by the grid, each one time
        unit long.
    """

    samples_per_period: int = 64
    n_periods: int = 4

    def __post_init__(self):
        if self.samples_per_period < 1:
            raise ValueError("samples_per_period must be a positive integer")
        if self.n_periods < 1:
            raise ValueError("n_periods must be a positive integer")

    @property
    def n_samples(self) -> int:
        return self.samples_per_period * self.n_periods

    def times(self) -> np.ndarray:
        """Sample times t_n = n / samples_per_period, last endpoint excluded."""
        return np.arange(self.n_samples) * (1.0 / self.samples_per_period)

    def phases(self) -> np.ndarray:
        """Fundamental phases omega * t_n in radians, modulo one period.

        Every period of the grid repeats the first bit for bit.
        """
        spp = self.samples_per_period
        return (np.arange(self.n_samples) % spp) * (TWO_PI / spp)

    def max_harmonic(self) -> int:
        """Largest harmonic order representable without aliasing."""
        return (self.samples_per_period - 1) // 2

    def require_harmonic(self, k: int) -> None:
        """Raise ValueError unless harmonic order k is representable."""
        if not 0 <= k < self.samples_per_period / 2:
            raise ValueError(
                f"harmonic k={k} aliases on a grid with "
                f"samples_per_period={self.samples_per_period}"
            )

    @functools.lru_cache(maxsize=256)
    def harmonic(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """cos(k*omega*t_n) and sin(k*omega*t_n): the basis rows of order k.

        The one place the package samples its harmonic basis; synthesis,
        the lock-in, the pump and the propagation channel's references all
        take it from here. The rows are taken of :meth:`phases`, so an
        n-period grid's rows are its one-period rows tiled n times, bit for
        bit. They are read-only and shared: built once per grid and k.
        Raises ValueError for k < 0 or k at or above Nyquist.
        """
        self.require_harmonic(k)
        rows = np.cos(k * self.phases()), np.sin(k * self.phases())
        for row in rows:
            row.setflags(write=False)
        return rows


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """A real-valued field sampled on a :class:`TimeGrid`."""

    grid: TimeGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.ndim != 1 or values.shape[0] != self.grid.n_samples:
            raise ValueError(
                f"values must be a 1-d array of length {self.grid.n_samples}, "
                f"got shape {np.shape(self.values)}"
            )
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class HarmonicComponent:
    """One spectral line: c*cos(k*omega*t) + s*sin(k*omega*t).

    The equivalent polar form is magnitude * cos(k*omega*t - phase).
    DC (k = 0) has no sine part.
    """

    k: int
    c: float
    s: float = 0.0

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("harmonic order k must be non-negative")
        if self.k == 0 and self.s != 0.0:
            raise ValueError("DC component (k=0) cannot have a sine part")

    @property
    def magnitude(self) -> float:
        return math.hypot(self.c, self.s)

    @property
    def phase(self) -> float:
        """Phase in c*cos + s*sin = magnitude*cos(k*omega*t - phase), radians."""
        return math.atan2(self.s, self.c)


@dataclass(frozen=True)
class QuadraturePair:
    """Cosine/sine amplitudes of the fundamental-frequency field.

    The field is x1*cos(omega*t) + x2*sin(omega*t). For a carrier written
    as A*cos(omega*t + phi) the relation is x1 = A*cos(phi),
    x2 = -A*sin(phi).
    """

    x1: float
    x2: float

    @classmethod
    def from_amplitude_phase(cls, amplitude: float, phi: float) -> "QuadraturePair":
        return cls(amplitude * math.cos(phi), -amplitude * math.sin(phi))

    def as_array(self) -> np.ndarray:
        return np.array([self.x1, self.x2])


def pump_carrier(amplitude, phase=0.0) -> HarmonicComponent:
    """Second-harmonic pump line -B*cos(2*omega*t + phase), B = amplitude; either may be a row."""
    cos_phase, sin_phase = cos_sin(phase)
    return HarmonicComponent(k=2, c=-amplitude * cos_phase, s=amplitude * sin_phase)


def cos_sin(phase):
    """cos and sin of a phase by libm, or of each entry of a row of phases.

    A row is taken entry by entry through ``math``, so every entry has
    the bits of its own scalar call: numpy's vectorized cos/sin need not
    round as libm does.
    """
    if isinstance(phase, np.ndarray):
        return (
            np.fromiter(map(math.cos, phase), float, phase.size),
            np.fromiter(map(math.sin, phase), float, phase.size),
        )
    return math.cos(phase), math.sin(phase)


def synthesize(carriers: Iterable[HarmonicComponent], grid: TimeGrid) -> TimeSeries:
    """Sum spectral lines into a sampled time series.

    Raises ValueError if any carrier would alias on the grid
    (k >= samples_per_period / 2).
    """
    return TimeSeries(grid, synthesize_values(carriers, grid))


def synthesize_values(
    carriers: Iterable[HarmonicComponent], grid: TimeGrid, width: int | None = None
) -> np.ndarray:
    """Samples of a sum of spectral lines: :func:`synthesize`'s values.

    With ``width`` m, each coefficient is a scalar or a row of m entries
    and the result is an (n_samples, m) samples-major block, one column per
    entry, summed by the same elementwise expressions on the harmonic rows
    taken as columns; each column has the bits of its own scalar call.
    """
    shape = grid.n_samples if width is None else (grid.n_samples, width)
    values = np.zeros(shape)
    for comp in carriers:
        cos_k, sin_k = grid.harmonic(comp.k)
        if width is not None:
            cos_k, sin_k = (np.broadcast_to(row[:, None], shape) for row in (cos_k, sin_k))
        line = comp.c * cos_k
        line += comp.s * sin_k
        values += line
    return values
