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
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import rng
from .fields import QuadraturePair, TimeGrid, pump_carrier
from .medium import SusceptibilityProfile, require_alias_free, transfer_values
from .spectral import lockin_rows

# rows per kernel block; results do not depend on it. On the default 64x4
# grid a (CHUNK, n_samples) float64 array is 512 KiB and a span works on six
# (three buffers, three block references): 3 MiB, while one pass touches at
# most three (1.5 MiB, inside a 2 MiB L2). 128 rows would fit all six but
# doubles the per-block Python work that a figure's pool threads serialize
# on; measured on a 2-vCPU VM, 128 ran scan 13% faster and fig2 26% slower.
# (That scan traced four periods; its one-period blocks are a quarter as big.)
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
        var_zp = float(self.var_zp)
        # var_zp**2 is the vacuum uncertainty product that reports divide by;
        # a subnormal one has lost bits, so it must be a normal float
        if not (var_zp > 0.0 and sys.float_info.min <= var_zp * var_zp < math.inf):
            raise ValueError(
                f"var_zp must be positive with a finite, normal square, got {self.var_zp!r}"
            )


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
            or det < -_PSD_SLACK * scale * scale  # inf, not OverflowError
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
    draws = z @ state.noise_matrix().T
    return np.add(state.mean.as_array(), draws, out=draws)


def pump_trace(pump_b: float, pump_phase: float, grid: TimeGrid) -> np.ndarray:
    """Sampled second-harmonic pump field."""
    cos2, sin2 = grid.harmonic(2)
    pump = pump_carrier(pump_b, pump_phase)
    return pump.c * cos2 + pump.s * sin2


def block_references(
    pump: np.ndarray, grid: TimeGrid, rows: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(pump, cos1, sin1) tiled to one kernel block of min(CHUNK, rows) rows.

    Operands of the block's own shape let the pump add and the lock-in
    products run as one contiguous loop instead of one loop per row. The
    copies are read-only, so the threads of one call share them.
    """
    block = max(1, min(CHUNK, rows))
    tiled = []
    for row in (pump, *grid.harmonic(1)):
        block_row = np.tile(row, (block, 1))
        block_row.setflags(write=False)
        tiled.append(block_row)
    return tuple(tiled)


def synthesize_rows(
    pairs: np.ndarray,
    pump: np.ndarray,
    cos1: np.ndarray,
    sin1: np.ndarray,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Input field traces (x1*cos1 + x2*sin1) + pump, one row per realization.

    The references are single rows or block references. Each product
    copies the quadrature column across the row, then multiplies in
    place: the same IEEE product as a broadcast multiply, without numpy's
    per-row loop.
    """
    shape = (len(pairs), cos1.shape[-1])
    out = np.empty(shape) if out is None else out
    scratch = np.empty(shape) if scratch is None else scratch
    np.copyto(out, pairs[:, 0:1])
    out *= cos1
    np.copyto(scratch, pairs[:, 1:2])
    scratch *= sin1
    out += scratch
    out += pump
    return out


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

    def add(self, rows: np.ndarray, scratch: np.ndarray | None = None) -> None:
        """Add a C-contiguous block of rows; its first row is overwritten.

        The squares go to ``scratch`` when given.
        """
        squares = np.multiply(rows, rows, out=scratch)
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
    moments: TraceMoments | None = None,
) -> None:
    """Propagate a span of realizations block by block; (c, s) into out.

    ``pump``, ``cos1`` and ``sin1`` are block references
    (:func:`block_references`); the block size is their row count. Every
    operation is elementwise or a per-row reduction, so each row equals
    running that realization through synthesize -> polarize -> normalize
    -> lock-in on its own, whatever the blocking. Given ``moments``, each
    block's output traces are added to it.
    """
    block, n_samples = cos1.shape
    buffers = [np.empty((min(block, len(pairs)), n_samples)) for _ in range(3)]
    for lo in range(0, len(pairs), block):
        rows = slice(lo, min(lo + block, len(pairs)))
        count = rows.stop - lo
        pump_b, cos_b, sin_b, e_in, e_out, scratch = (
            a[:count] for a in (pump, cos1, sin1, *buffers)
        )
        synthesize_rows(pairs[rows], pump_b, cos_b, sin_b, out=e_in, scratch=scratch)
        transfer_values(e_in, medium, out=e_out, scratch=scratch)
        lockin_rows(e_out, cos_b, sin_b, n_samples, out=out[rows], scratch=scratch)
        if moments is not None:
            moments.add(e_out, scratch)


def propagate_ensemble(
    pairs: np.ndarray,
    pump_b: float,
    pump_phase: float,
    medium: SusceptibilityProfile,
    grid: TimeGrid,
    workers: int = 1,
) -> np.ndarray:
    """Propagate an (n, 2) ensemble through the medium, optionally threaded.

    The traces span one fundamental period of ``grid``, whatever its
    ``n_periods``: the input field and the medium's response repeat every
    period, and the k = 1 lock-in is exact on any whole number of periods,
    so further periods only repeat the same projection. The result is
    therefore bitwise independent of ``grid.n_periods``. Spans run through
    :func:`run_spans` and write their rows in place, so it is bitwise
    independent of ``workers`` and of CHUNK too.
    """
    pairs = _as_pair_array(pairs)
    require_alias_free(grid, medium)
    grid = replace(grid, n_periods=1)
    refs = block_references(pump_trace(pump_b, pump_phase, grid), grid, len(pairs))
    out = np.empty_like(pairs)

    def work(start, count):
        rows = slice(start, start + count)
        propagate_span(pairs[rows], *refs, medium, out[rows])

    run_spans(work, len(pairs), workers)
    return out


def _as_pair_array(pairs) -> np.ndarray:
    arr = np.asarray(pairs, dtype=float)
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
    pairs: np.ndarray, thetas: np.ndarray
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
    mean = arr.mean(axis=0)
    centered = arr - mean
    s11 = float((centered[:, 0] * centered[:, 0]).sum()) / (n - 1)
    s22 = float((centered[:, 1] * centered[:, 1]).sum()) / (n - 1)
    s12 = float((centered[:, 0] * centered[:, 1]).sum()) / (n - 1)
    return _project(mean, ((s11, s12), (s12, s22)), thetas)


def pair_sums(pairs: np.ndarray) -> np.ndarray:
    """(sum x1, sum x2, sum x1^2, sum x1*x2, sum x2^2) of an (n, 2) array.

    Elementwise products and ``sum``, not a BLAS dot, whose bits would
    depend on its blocking.
    """
    x1, x2 = pairs[:, 0], pairs[:, 1]
    return np.array([x1.sum(), x2.sum(), (x1 * x1).sum(), (x1 * x2).sum(), (x2 * x2).sum()])


def sums_scan(sums: np.ndarray, n: int, thetas: np.ndarray) -> QuadratureScan:
    """Scan of n pairs from their :func:`pair_sums`.

    The sample mean and covariance (n-1 divisor) go through the same
    projection as in :func:`variance_scan`.
    """
    s1, s2, s11, s12, s22 = sums
    c12 = (s12 - s1 * s2 / n) / (n - 1)
    cov = (((s11 - s1 * s1 / n) / (n - 1), c12), (c12, (s22 - s2 * s2 / n) / (n - 1)))
    return _project((s1 / n, s2 / n), cov, thetas)


def scan_state(state: GaussianState, thetas: np.ndarray) -> QuadratureScan:
    """Exact (infinite-ensemble) scan of a Gaussian state's statistics."""
    return _project(state.mean.as_array(), state.cov, thetas)


def _project(mean, cov, thetas: np.ndarray) -> QuadratureScan:
    """Mean u(theta)'m and variance u(theta)' S u(theta), u = (cos, sin) theta."""
    thetas = np.asarray(thetas, dtype=float)
    cos_t, sin_t = np.cos(thetas), np.sin(thetas)
    variances = (
        cov[0][0] * cos_t**2 + 2.0 * cov[0][1] * cos_t * sin_t + cov[1][1] * sin_t**2
    )
    means = mean[0] * cos_t + mean[1] * sin_t
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
