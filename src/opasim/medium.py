"""Nonlinear dielectric medium as a pointwise polynomial polarization map.

The medium response to a field E is eps0*(chi1*E + chi2*E**2 + chi3*E**3),
applied sample by sample. The radiated output field is taken to be the
polarization divided by eps0*chi1, so a purely linear medium is the
identity channel and squeezing is always measured against the input
vacuum level.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from .fields import TimeGrid


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
        # a subnormal eps0 or output divisor eps0*chi1 has lost bits
        tiny = sys.float_info.min
        if not self.eps0 >= tiny:
            raise ValueError(f"eps0 must be at least {tiny!r}, got {self.eps0!r}")
        if self.chi1 < 0.0:
            raise ValueError("chi1 must be non-negative")
        if self.chi1 > 0.0 and not tiny <= self.eps0 * self.chi1 <= sys.float_info.max:
            raise ValueError(f"eps0*chi1 must be at least {tiny!r} and finite")


def polarization_values(
    values: np.ndarray,
    medium: SusceptibilityProfile,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Pointwise polarization eps0*(chi1*E + chi2*E^2 + chi3*E^3) of an array.

    Evaluated as (chi1*E + (chi2*E)*E) + ((chi3*E)*E)*E, then times eps0
    (:func:`polynomial_values`), writing into ``out`` and ``scratch`` when
    given (neither may share memory with ``values``).
    """
    return polynomial_values(
        values, medium.chi1, medium.chi2, medium.chi3, medium.eps0, out, scratch
    )


def polynomial_values(
    values: np.ndarray,
    chi1,
    chi2,
    chi3,
    eps0,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """The polarization polynomial of :func:`polarization_values` on given coefficients.

    A coefficient is a scalar, or a row that broadcasts over the columns
    of a samples-major block, one medium per column. A scalar factor that
    is exactly 1.0 is skipped (and a scalar chi3 of 0.0 drops the cubic
    term): under IEEE 754, x*1.0 is x, so the result is the same to the bit.
    """
    out = np.multiply(values, chi2, out=out)
    out *= values
    if _exactly(chi1, 1.0):
        out += values
    else:
        scratch = np.multiply(values, chi1, out=scratch)
        out += scratch
    if not _exactly(chi3, 0.0):
        scratch = np.multiply(values, chi3, out=scratch)
        scratch *= values
        scratch *= values
        out += scratch
    if not _exactly(eps0, 1.0):
        out *= eps0
    return out


def _exactly(coefficient, value: float) -> bool:
    """Whether a scalar coefficient equals value; a row of coefficients never does."""
    return not isinstance(coefficient, np.ndarray) and coefficient == value


def polynomial_degree(medium: SusceptibilityProfile) -> int:
    """Degree of the polarization polynomial: 3 with chi3, else 2 with chi2, else 1."""
    return 3 if medium.chi3 != 0.0 else 2 if medium.chi2 != 0.0 else 1


def alias_free_samples(medium: SusceptibilityProfile) -> int:
    """Fewest samples per period of a configured grid that resolve the output.

    Fields reach the medium with harmonics up to 2 (the 2*omega pump), so
    a polynomial of degree d radiates orders up to 2*d: 4 for chi2, 6 for
    chi3. A grid resolves every one of them above the Nyquist rate of that
    order, with more than 4*d samples per period: 5 for a linear medium, 9
    for chi2 and 13 for chi3. It bounds the configured grid
    (:func:`require_alias_free`); the k = 1 channel needs fewer
    (:func:`channel_samples`).
    """
    return 4 * polynomial_degree(medium) + 1


def channel_samples(medium: SusceptibilityProfile) -> int:
    """Samples of the one period on which the k = 1 channel is exact.

    A k = 1 lock-in on N samples reads only the orders j = +-1 mod N, and
    the pumped output of a degree-d medium stops at order 2*d, so N =
    2*d + 2 already reads the fundamental alone (N = 2*d + 1 folds order 2*d
    onto it). At least 5 samples keep the 2*omega pump below the Nyquist
    order: 5 for a linear medium, 6 for chi2 and 8 for chi3.
    """
    return max(2 * polynomial_degree(medium) + 2, 5)


def require_alias_free(grid: TimeGrid, medium: SusceptibilityProfile) -> None:
    """Reject a grid that cannot resolve every harmonic the pumped medium radiates.

    Below :func:`alias_free_samples` the excess folds back onto the
    fundamental and biases the lock-in without any other sign.
    """
    limit = alias_free_samples(medium) - 1
    if grid.samples_per_period <= limit:
        raise ValueError(
            f"samples_per_period = {grid.samples_per_period} aliases the medium's "
            f"output (harmonics up to {limit // 2}): it must be greater than {limit}"
        )


def transfer_values(
    values: np.ndarray,
    medium: SusceptibilityProfile,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Output field of the medium: the polarization divided by eps0*chi1.

    With this normalization the pump-off channel maps input to output
    identically, which pins the vacuum reference level of the output;
    it is undefined for chi1 = 0, which is rejected. ``out`` and
    ``scratch`` are as in polarization_values, and a divisor of exactly
    1.0 is skipped.
    """
    _require_normalizable(medium)
    divisor = medium.eps0 * medium.chi1
    out = polarization_values(values, medium, out, scratch)
    if divisor != 1.0:
        out /= divisor
    return out


def transfer_taylor(values: np.ndarray, medium: SusceptibilityProfile) -> list[np.ndarray]:
    """Taylor coefficients a_1..a_d of :func:`transfer_values` about each value E0.

    The output field is E + r2*E^2 + r3*E^3 with r_k = chi_k/chi1, so for
    any delta, f(E0 + delta) - f(E0) = sum_k a_k(E0) * delta^k exactly, with
    a_1 = 1 + 2*r2*E0 + 3*r3*E0^2, a_2 = r2 + 3*r3*E0 and a_3 = r3, up to
    the medium's :func:`polynomial_degree` d.
    """
    _require_normalizable(medium)
    values = np.asarray(values, dtype=float)
    r2, r3 = medium.chi2 / medium.chi1, medium.chi3 / medium.chi1
    coefficients = [
        1.0 + (2.0 * r2 + 3.0 * r3 * values) * values,
        r2 + 3.0 * r3 * values,
        np.full_like(values, r3),
    ]
    return coefficients[: polynomial_degree(medium)]


def _require_normalizable(medium: SusceptibilityProfile) -> None:
    if medium.chi1 <= 0.0:
        raise ValueError("output normalization requires chi1 > 0")
