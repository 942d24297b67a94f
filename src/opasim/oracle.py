"""Closed-form single-pass quadrature map of the pumped quadratic medium.

With the pump at twice the fundamental and normalized pump strength
r = chi2*B/chi1, the omega-frequency channel multiplies the cosine
quadrature by (1-r) and the sine quadrature by (1+r). This "raw" map is
exactly what the truncated polynomial medium does and is the oracle the
numerical pipeline is checked against. Its gain product (1-r)*(1+r) dips
below one at second order in r, so the output is slightly "too pure" to
be a minimum-uncertainty state. The "symplectic" variant rescales the
gains to exp(-rho), exp(+rho) with rho = atanh(r), which keeps the
(1-r)/(1+r) gain ratio while forcing unit determinant, i.e. an idealized
minimum-uncertainty squeezer with the same squeezing angle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensemble import GaussianState, map_pairs
from .fields import QuadraturePair

MODES = ("raw", "symplectic")


@dataclass(frozen=True)
class PassGain:
    """Normalized pump strength r = chi2*B/chi1 and map variant."""

    r: float
    mode: str = "raw"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not abs(self.r) < 1.0:
            raise ValueError(
                "|r| must be < 1: the single-pass map is only valid below "
                "threshold (and the symplectic rescaling atanh(r) requires it)"
            )

    def gains(self) -> tuple[float, float]:
        """Multipliers (g1, g2) for the cosine and sine quadratures."""
        if self.mode == "raw":
            return 1.0 - self.r, 1.0 + self.r
        rho = math.atanh(self.r)
        return math.exp(-rho), math.exp(rho)


def gain_matrix(gain: PassGain, pump_phase: float = 0.0) -> np.ndarray:
    """2x2 quadrature transfer matrix of the single pass.

    The one place the gains become a matrix, for states
    (:func:`single_pass`) and sample arrays (:func:`map_quadratures`)
    alike. For pump phase 0 it is exactly diag(g1, g2), with no rotation
    rounding. A pump phase psi moves the squeezed axis to the direction
    -psi/2, so the matrix is the axis-aligned one conjugated by that
    rotation; psi = pi swaps the two gains (amplitude squeezing becomes
    phase squeezing). The conjugation is written out in closed form, so
    the two off-diagonals are one product and the matrix is exactly
    symmetric.
    """
    g1, g2 = gain.gains()
    if pump_phase == 0.0:
        return np.array([[g1, 0.0], [0.0, g2]])
    alpha = -0.5 * pump_phase
    c, s = math.cos(alpha), math.sin(alpha)
    off = (g1 - g2) * c * s
    return np.array([[g1 * c * c + g2 * s * s, off], [off, g1 * s * s + g2 * c * c]])


def single_pass(
    state: GaussianState, gain: PassGain, pump_phase: float = 0.0
) -> GaussianState:
    """Apply the gain map, with optional pump phase, to means and covariance.

    The products are :func:`map_pairs`, not BLAS calls, so the output
    state has the same bits on every host.
    """
    m = gain_matrix(gain, pump_phase)
    (mean,) = map_pairs(state.mean.as_array()[None], m)
    # map_pairs(x, m) is x @ m.T, so this is (m @ cov @ m.T).T
    cov_t = map_pairs(map_pairs(state.cov, m).T, m)
    return GaussianState(QuadraturePair(*mean), cov_t.T)


def gain_of_phase(amplitude: float, phi: float, gain: PassGain) -> float:
    """Output/input fundamental amplitude ratio for a carrier at phase phi.

    Deamplified at phi = 0 (and 180 deg), amplified at phi = +-90 deg
    when r > 0.
    """
    if not amplitude > 0.0:
        raise ValueError("amplitude must be positive")
    g1, g2 = gain.gains()
    q_in = QuadraturePair.from_amplitude_phase(amplitude, phi)
    return math.hypot(g1 * q_in.x1, g2 * q_in.x2) / amplitude


def map_quadratures(
    pairs: np.ndarray, gain: PassGain, pump_phase: float = 0.0
) -> np.ndarray:
    """Apply the gain map to an (n, 2) array of sampled quadrature pairs."""
    return map_pairs(np.asarray(pairs, dtype=float), gain_matrix(gain, pump_phase))
