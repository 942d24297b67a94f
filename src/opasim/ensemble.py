"""Monte-Carlo model of quantum uncertainty in the fundamental mode.

Quantum noise is represented by Gaussian-distributed quadrature pairs of
the fundamental-frequency field; each realization is a classical field
that is pushed through the medium like any other. Pump noise and vacuum
inputs at other frequencies are not modeled: only the fundamental-mode
quadratures carry uncertainty.

Realization i of an ensemble is always derived from the counter-based
stream at row i (see :mod:`opasim.rng`), so ensembles are bitwise
reproducible regardless of chunking, evaluation order or worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from . import rng
from .fields import QuadraturePair, TimeGrid, pump_carrier
from .medium import SusceptibilityProfile, require_alias_free, transfer_values

# rows per kernel block: on the default 64x4 grid a (CHUNK, n_samples)
# float64 trace is 512 KiB, so it stays in L2 cache through the pipeline's
# elementwise passes; results do not depend on it
CHUNK = 256

# rows per unit of pool work, and per group of the figure moment sums; fixed,
# because the figure envelopes depend on how their sums are grouped
SPAN = 4096

_PSD_SLACK = 1e-9


@dataclass(frozen=True)
class VacuumConvention:
    """Variance assigned to each vacuum quadrature (the zero-point unit)."""

    var_zp: float = 1.0

    def __post_init__(self):
        if not self.var_zp > 0.0:
            raise ValueError("var_zp must be positive")


@dataclass(frozen=True)
class EnsembleConfig:
    """Size, seed and conventions of a Monte-Carlo run."""

    n_realizations: int
    seed: int
    grid: TimeGrid = TimeGrid()
    convention: VacuumConvention = VacuumConvention()

    def __post_init__(self):
        if self.n_realizations < 2:
            raise ValueError("n_realizations must be at least 2")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")


@dataclass(frozen=True, eq=False)
class GaussianState:
    """Gaussian quadrature statistics: mean pair and 2x2 covariance."""

    mean: QuadraturePair
    cov: np.ndarray = field(repr=False)

    def __post_init__(self):
        cov = np.array(self.cov, dtype=float)
        if cov.shape != (2, 2):
            raise ValueError("cov must be a 2x2 matrix")
        scale = max(1.0, float(np.max(np.abs(cov))))
        if abs(cov[0, 1] - cov[1, 0]) > _PSD_SLACK * scale:
            raise ValueError("cov must be symmetric")
        # PSD for 2x2: non-negative diagonal and determinant
        det = cov[0, 0] * cov[1, 1] - cov[0, 1] * cov[1, 0]
        if (
            cov[0, 0] < -_PSD_SLACK * scale
            or cov[1, 1] < -_PSD_SLACK * scale
            or det < -_PSD_SLACK * scale**2
        ):
            raise ValueError("cov must be positive semi-definite")
        cov.setflags(write=False)
        object.__setattr__(self, "cov", cov)

    @classmethod
    def vacuum(cls, convention: VacuumConvention = VacuumConvention()) -> "GaussianState":
        return cls(QuadraturePair(0.0, 0.0), convention.var_zp * np.eye(2))

    @classmethod
    def coherent(
        cls,
        mean: QuadraturePair,
        convention: VacuumConvention = VacuumConvention(),
    ) -> "GaussianState":
        """Displaced vacuum: isotropic zero-point noise around a mean."""
        return cls(mean, convention.var_zp * np.eye(2))

    def noise_matrix(self) -> np.ndarray:
        """Symmetric PSD square root L of cov (L @ L = cov), closed form."""
        a, b, c = self.cov[0, 0], self.cov[1, 1], self.cov[0, 1]
        det = max(a * b - c * c, 0.0)
        sq = math.sqrt(det)
        trace_term = a + b + 2.0 * sq
        if trace_term <= 0.0:
            return np.zeros((2, 2))
        denom = math.sqrt(trace_term)
        return (self.cov + sq * np.eye(2)) / denom


def sample_state_array(
    state: GaussianState, cfg: EnsembleConfig, start: int = 0, count: int | None = None
) -> np.ndarray:
    """(count, 2) array of quadrature draws for realizations start..start+count-1.

    Row i is mean + L @ z_i with z_i the i-th standard-normal pair of the
    seed's stream and L the symmetric square root of cov, so any slice of
    the ensemble can be produced independently.
    """
    if count is None:
        count = cfg.n_realizations - start
    z = rng.standard_normal_pairs(cfg.seed, start, count)
    mean = state.mean.as_array()
    return mean + z @ state.noise_matrix().T


def sample_state(state: GaussianState, cfg: EnsembleConfig) -> list[QuadraturePair]:
    """Draw the configured ensemble as a list of quadrature pairs."""
    draws = sample_state_array(state, cfg)
    return [QuadraturePair(float(x1), float(x2)) for x1, x2 in draws]


def propagate_realization(
    q: QuadraturePair,
    pump_b: float,
    pump_phase: float,
    medium: SusceptibilityProfile,
    grid: TimeGrid,
) -> QuadraturePair:
    """Push one fundamental-mode realization through the pumped medium.

    Synthesizes the realization plus the pump, applies the polarization
    transfer and reads back the fundamental bin. The k=1 channel is
    exactly linear in (x1, x2): quadratic noise products land only in the
    DC and 2*omega bins, never back at the fundamental.
    """
    out = propagate_ensemble([q], pump_b, pump_phase, medium, grid)
    return QuadraturePair(float(out[0, 0]), float(out[0, 1]))


def fundamental_references(grid: TimeGrid) -> tuple[np.ndarray, np.ndarray]:
    """cos(omega*t_n) and sin(omega*t_n) lock-in reference vectors."""
    phases = grid.phases()
    return np.cos(phases), np.sin(phases)


def pump_trace(pump_b: float, pump_phase: float, grid: TimeGrid) -> np.ndarray:
    """Sampled second-harmonic pump field."""
    if not grid.supports_harmonic(2):
        raise ValueError("grid cannot represent the second-harmonic pump")
    phases = grid.phases()
    pump = pump_carrier(pump_b, pump_phase)
    return pump.c * np.cos(2.0 * phases) + pump.s * np.sin(2.0 * phases)


def synthesize_rows(
    pairs: np.ndarray,
    pump: np.ndarray,
    cos1: np.ndarray,
    sin1: np.ndarray,
) -> np.ndarray:
    """Input field traces, one row per realization."""
    return pairs[:, 0:1] * cos1 + pairs[:, 1:2] * sin1 + pump


def lockin_rows(
    rows: np.ndarray, cos1: np.ndarray, sin1: np.ndarray, n_samples: int
) -> np.ndarray:
    """Fundamental-bin (c, s) of each row; exact for band-limited rows."""
    scale = 2.0 / n_samples
    c = scale * (rows * cos1).sum(axis=1)
    s = scale * (rows * sin1).sum(axis=1)
    return np.column_stack((c, s))


def run_spans(work, n: int, workers: int = 1) -> list:
    """Ordered map of ``work(start, count)`` over the SPAN-row spans of n rows.

    Results come back in span order for any worker count, so outputs
    never depend on ``workers``. The pool has at most one thread per span.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    starts = range(0, n, SPAN)
    counts = [min(SPAN, n - start) for start in starts]
    if workers == 1 or len(starts) < 2:
        return list(map(work, starts, counts))
    with ThreadPoolExecutor(max_workers=min(workers, len(starts))) as pool:
        return list(pool.map(work, starts, counts))


class TraceMoments:
    """Running sum and sum of squares over trace rows, added block by block.

    numpy sums a C-contiguous block along axis 0 one row after another,
    so folding the running sums into the first row of the next block
    gives, bit for bit, the sums of one call over every row added so far.
    """

    def __init__(self):
        self.sums: np.ndarray | None = None

    def add(self, rows: np.ndarray) -> None:
        """Add a C-contiguous block of rows; its first row is overwritten."""
        squares = rows * rows
        if self.sums is not None:
            rows[0] += self.sums[0]
            squares[0] += self.sums[1]
        self.sums = np.stack((rows.sum(axis=0), squares.sum(axis=0)))


def propagate_span(
    pairs: np.ndarray,
    pump: np.ndarray,
    cos1: np.ndarray,
    sin1: np.ndarray,
    medium: SusceptibilityProfile,
    out: np.ndarray,
    moments: tuple[TraceMoments, TraceMoments] | None = None,
) -> None:
    """Propagate a span of realizations CHUNK rows at a time; (c, s) into out.

    Every operation is elementwise or a per-row reduction, so each row
    equals running that realization through synthesize -> polarize ->
    normalize -> lock-in on its own, whatever the blocking. Given
    ``moments=(inputs, outputs)``, each block's input and output traces
    are added to them.
    """
    for lo in range(0, len(pairs), CHUNK):
        e_in = synthesize_rows(pairs[lo : lo + CHUNK], pump, cos1, sin1)
        e_out = transfer_values(e_in, medium)
        out[lo : lo + CHUNK] = lockin_rows(e_out, cos1, sin1, cos1.size)
        if moments is not None:
            moments[0].add(e_in)
            moments[1].add(e_out)


def synthesize_moments(
    pairs: np.ndarray, pump: np.ndarray, cos1: np.ndarray, sin1: np.ndarray
) -> TraceMoments:
    """Moments of the input traces of a span, synthesized CHUNK rows at a time."""
    moments = TraceMoments()
    for lo in range(0, len(pairs), CHUNK):
        moments.add(synthesize_rows(pairs[lo : lo + CHUNK], pump, cos1, sin1))
    return moments


def propagate_ensemble(
    pairs: np.ndarray | Sequence[QuadraturePair],
    pump_b: float,
    pump_phase: float,
    medium: SusceptibilityProfile,
    grid: TimeGrid,
    workers: int = 1,
) -> np.ndarray:
    """Propagate an (n, 2) ensemble through the medium, optionally threaded.

    Spans run through :func:`run_spans` and write their rows in place, so
    the result is bitwise independent of ``workers`` and of CHUNK.
    """
    pairs = _as_pair_array(pairs)
    require_alias_free(grid, medium)
    cos1, sin1 = fundamental_references(grid)
    pump = pump_trace(pump_b, pump_phase, grid)
    out = np.empty_like(pairs)

    def work(start, count):
        rows = slice(start, start + count)
        propagate_span(pairs[rows], pump, cos1, sin1, medium, out[rows])

    run_spans(work, len(pairs), workers)
    return out


def _as_pair_array(pairs) -> np.ndarray:
    if isinstance(pairs, np.ndarray):
        arr = np.asarray(pairs, dtype=float)
    else:
        arr = np.array([[q.x1, q.x2] for q in pairs], dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("expected an (n, 2) array of quadrature pairs")
    return arr


@dataclass(frozen=True, eq=False)
class QuadratureScan:
    """Ensemble mean and variance of X(theta) = x1 cos(theta) + x2 sin(theta)."""

    thetas: np.ndarray = field(repr=False)
    variances: np.ndarray = field(repr=False)
    means: np.ndarray = field(repr=False)

    def __post_init__(self):
        thetas = np.array(self.thetas, dtype=float)
        variances = np.array(self.variances, dtype=float)
        means = np.array(self.means, dtype=float)
        if not (thetas.shape == variances.shape == means.shape) or thetas.ndim != 1:
            raise ValueError("thetas, variances and means must be 1-d and equal length")
        if thetas.size == 0:
            raise ValueError("scan must contain at least one phase")
        if np.any(variances < 0.0):
            raise ValueError("variances must be non-negative")
        for name, arr in (("thetas", thetas), ("variances", variances), ("means", means)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def default_thetas(count: int = 181) -> np.ndarray:
    """Quadrature phases 0..pi inclusive (the statistic has period pi)."""
    if count < 2:
        raise ValueError("need at least two phases")
    return np.linspace(0.0, math.pi, count)


def variance_scan(
    pairs: np.ndarray | Sequence[QuadraturePair], thetas: np.ndarray
) -> QuadratureScan:
    """Unbiased mean/variance of the rotated quadrature at each phase.

    Computed from the ensemble's first and second moments: with sample
    covariance S (n-1 divisor), Var X(theta) = u(theta)' S u(theta),
    which is algebraically the unbiased sample variance of the projected
    values.
    """
    arr = _as_pair_array(pairs)
    n = arr.shape[0]
    if n < 2:
        raise ValueError("variance requires at least two realizations")
    thetas = np.asarray(thetas, dtype=float)
    mean = arr.mean(axis=0)
    centered = arr - mean
    s11 = float((centered[:, 0] * centered[:, 0]).sum()) / (n - 1)
    s22 = float((centered[:, 1] * centered[:, 1]).sum()) / (n - 1)
    s12 = float((centered[:, 0] * centered[:, 1]).sum()) / (n - 1)
    cos_t, sin_t = np.cos(thetas), np.sin(thetas)
    variances = s11 * cos_t**2 + 2.0 * s12 * cos_t * sin_t + s22 * sin_t**2
    means = mean[0] * cos_t + mean[1] * sin_t
    return QuadratureScan(thetas, np.maximum(variances, 0.0), means)


def scan_state(state: GaussianState, thetas: np.ndarray) -> QuadratureScan:
    """Exact (infinite-ensemble) scan of a Gaussian state's statistics."""
    thetas = np.asarray(thetas, dtype=float)
    cos_t, sin_t = np.cos(thetas), np.sin(thetas)
    cov = state.cov
    variances = (
        cov[0, 0] * cos_t**2 + 2.0 * cov[0, 1] * cos_t * sin_t + cov[1, 1] * sin_t**2
    )
    means = state.mean.x1 * cos_t + state.mean.x2 * sin_t
    return QuadratureScan(thetas, np.maximum(variances, 0.0), means)


class SqueezingReport(NamedTuple):
    """Extremal variances of a scan, in zero-point units and decibels."""

    v_min: float
    theta_min: float
    v_max: float
    theta_max: float
    squeeze_db: float
    antisqueeze_db: float
    uncertainty_product: float


def squeezing_report(
    scan: QuadratureScan, convention: VacuumConvention
) -> SqueezingReport:
    """Locate the scan extrema and express them relative to the vacuum.

    Negative squeeze_db means squeezing. The uncertainty product pairs
    the minimum with the scan point nearest to theta_min + pi/2 (mod pi);
    on the default 1-degree grid that offset lands exactly on a grid
    point.
    """
    if not convention.var_zp > 0.0:
        raise ValueError("var_zp must be positive")
    i_min = int(np.argmin(scan.variances))
    i_max = int(np.argmax(scan.variances))
    v_min = float(scan.variances[i_min])
    v_max = float(scan.variances[i_max])
    theta_min = float(scan.thetas[i_min])
    theta_max = float(scan.thetas[i_max])
    target = theta_min + 0.5 * math.pi
    delta = np.abs(np.mod(scan.thetas - target + 0.5 * math.pi, math.pi) - 0.5 * math.pi)
    v_orth = float(scan.variances[int(np.argmin(delta))])
    var_zp = convention.var_zp
    return SqueezingReport(
        v_min=v_min,
        theta_min=theta_min,
        v_max=v_max,
        theta_max=theta_max,
        squeeze_db=10.0 * math.log10(v_min / var_zp) if v_min > 0.0 else -math.inf,
        antisqueeze_db=10.0 * math.log10(v_max / var_zp),
        uncertainty_product=v_min * v_orth,
    )
