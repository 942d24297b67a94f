"""Nonlinear dielectric medium as a pointwise polynomial polarization map.

The medium response to a field E is eps0*(chi1*E + chi2*E**2 + chi3*E**3),
applied sample by sample. The radiated output field is taken to be the
polarization divided by eps0*chi1, so a purely linear medium is the
identity channel and squeezing is always measured against the input
vacuum level.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fields import TimeGrid, TimeSeries


@dataclass(frozen=True)
class SusceptibilityProfile:
    """Medium constants. chi1 is allowed to be zero so that individual
    polarization orders can be isolated in analysis runs, but output
    normalization then becomes undefined and is rejected."""

    chi1: float = field(default=1.0, metadata={"help": "linear susceptibility"})
    chi2: float = field(default=0.0, metadata={"help": "quadratic susceptibility"})
    chi3: float = field(default=0.0, metadata={"help": "cubic susceptibility"})
    eps0: float = field(default=1.0, metadata={"help": "permittivity scale"})

    def __post_init__(self):
        if not self.eps0 > 0.0:
            raise ValueError("eps0 must be positive")
        if self.chi1 < 0.0:
            raise ValueError("chi1 must be non-negative")


def polarization_values(
    values: np.ndarray,
    medium: SusceptibilityProfile,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Pointwise polarization eps0*(chi1*E + chi2*E^2 + chi3*E^3) of an array.

    Evaluated as (chi1*E + (chi2*E)*E) + ((chi3*E)*E)*E, then times eps0,
    writing into ``out`` and ``scratch`` when given (neither may share
    memory with ``values``). A factor that is exactly 1.0 is skipped: under
    IEEE 754, x*1.0 is x, so the result is the same to the bit.
    """
    out = np.multiply(values, medium.chi2, out=out)
    out *= values
    if medium.chi1 == 1.0:
        out += values
    else:
        scratch = np.multiply(values, medium.chi1, out=scratch)
        out += scratch
    if medium.chi3 != 0.0:
        scratch = np.multiply(values, medium.chi3, out=scratch)
        scratch *= values
        scratch *= values
        out += scratch
    if medium.eps0 != 1.0:
        out *= medium.eps0
    return out


def require_alias_free(grid: TimeGrid, medium: SusceptibilityProfile) -> None:
    """Reject a grid that cannot resolve every harmonic the pumped medium radiates.

    Fields reach the medium with harmonics up to 2 (the 2*omega pump), so
    a polynomial of degree d radiates orders up to 2*d: 4 for chi2, 6 for
    chi3. Below the Nyquist rate for that order the excess folds back
    onto the fundamental and biases the lock-in without any other sign.
    """
    degree = 3 if medium.chi3 != 0.0 else 2 if medium.chi2 != 0.0 else 1
    limit = 2 * (2 * degree)
    if grid.samples_per_period <= limit:
        raise ValueError(
            f"samples_per_period = {grid.samples_per_period} aliases the medium's "
            f"output (harmonics up to {2 * degree}): it must be greater than {limit}"
        )


def polarize(e: TimeSeries, medium: SusceptibilityProfile) -> TimeSeries:
    """Pointwise polarization of a sampled field."""
    return TimeSeries(e.grid, polarization_values(e.values, medium))


def normalize_output(p: TimeSeries, medium: SusceptibilityProfile) -> TimeSeries:
    """Scale a polarization to field units: p / (eps0 * chi1).

    With this convention the pump-off channel maps input to output
    identically, which pins the vacuum reference level of the output.
    """
    return TimeSeries(p.grid, p.values / _output_divisor(medium))


def _output_divisor(medium: SusceptibilityProfile) -> float:
    if medium.chi1 <= 0.0:
        raise ValueError("output normalization requires chi1 > 0")
    return medium.eps0 * medium.chi1


def transfer_values(
    values: np.ndarray,
    medium: SusceptibilityProfile,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Array form of the polarize-then-normalize channel.

    Performs the exact operation sequence of
    normalize_output(polarize(...)) so that batched and per-sample paths
    agree bitwise; ``out`` and ``scratch`` are as in polarization_values,
    and a divisor of exactly 1.0 is skipped.
    """
    divisor = _output_divisor(medium)
    out = polarization_values(values, medium, out, scratch)
    if divisor != 1.0:
        out /= divisor
    return out


def transfer(e: TimeSeries, medium: SusceptibilityProfile) -> TimeSeries:
    """Full single-pass channel: polarize then normalize to field units."""
    return TimeSeries(e.grid, transfer_values(e.values, medium))
