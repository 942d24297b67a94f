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

import contextvars
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import reduce
from typing import Callable, NamedTuple

import numpy as np

from . import rng
from .fields import QuadraturePair, TimeGrid, pump_carrier
from .medium import (
    SusceptibilityProfile,
    alias_free_samples,
    require_alias_free,
    transfer_values,
)
from .spectral import lockin_rows

# rows per span: the unit of thread-pool work, the kernel block and the
# group of the scan and figure sums, whose bits depend on that grouping.
# On the 9-sample period of a chi2 medium a span's six (4096, 9) float64
# arrays (three buffers, three references) take 1.7 MiB, inside one
# core's 2 MiB L2.
CHUNK = 4096

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
    """Ordered map of ``work(start, count)`` over the CHUNK-row spans of n rows.

    Results come back in span order for any worker count, so outputs
    never depend on ``workers``. The pool has at most one thread per span,
    and each span runs in a copy of the caller's context, so the threads
    keep the caller's ``np.errstate``.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    starts = range(0, n, CHUNK)
    counts = [min(CHUNK, n - start) for start in starts]
    if workers == 1 or len(starts) < 2:
        return list(map(work, starts, counts))
    context = contextvars.copy_context()

    def in_context(start, count):
        return context.copy().run(work, start, count)

    with ThreadPoolExecutor(max_workers=min(workers, len(starts))) as pool:
        return list(pool.map(in_context, starts, counts))


def propagate_span(
    pairs: np.ndarray,
    pump: np.ndarray,
    cos1: np.ndarray,
    sin1: np.ndarray,
    medium: SusceptibilityProfile,
    out: np.ndarray,
) -> None:
    """Propagate a span of realizations as one kernel block; (c, s) into out.

    ``pump``, ``cos1`` and ``sin1`` are tiled references (:func:`medium_channel`),
    and the span has at most their row count. Every operation is
    elementwise or a per-row reduction, so each row equals running that
    realization through synthesize -> polarize -> normalize -> lock-in on
    its own, whatever the span.
    """
    count = len(pairs)
    if count > len(cos1):
        raise ValueError(f"a span holds at most {len(cos1)} rows, got {count}")
    n_samples = cos1.shape[1]
    pump, cos1, sin1, e_in, e_out, scratch = (
        a[:count] for a in (pump, cos1, sin1, *_block_buffers(cos1.shape))
    )
    synthesize_rows(pairs, pump, cos1, sin1, out=e_in, scratch=scratch)
    transfer_values(e_in, medium, out=e_out, scratch=scratch)
    lockin_rows(e_out, cos1, sin1, n_samples, out=out, scratch=scratch)


_held = threading.local()


def _block_buffers(shape: tuple[int, int]) -> list[np.ndarray]:
    """The calling thread's three kernel buffers of the given shape.

    Each thread keeps its buffers across calls, replacing them only for
    another shape. Block-sized arrays freed after every span would go back
    to the system, and the next span would fault their pages in again.
    """
    held = getattr(_held, "buffers", None)
    if held is None or held[0].shape != shape:
        held = _held.buffers = [np.empty(shape) for _ in range(3)]
    return held


def medium_channel(
    pump_b: float,
    pump_phase: float,
    medium: SusceptibilityProfile,
    grid: TimeGrid,
) -> Callable[[np.ndarray], np.ndarray]:
    """The k = 1 output pairs of the pumped medium for up to CHUNK input pairs.

    ``grid`` is checked here (:func:`require_alias_free`), before anything
    is sampled. The channel then traces one period of
    :func:`alias_free_samples` samples: the input field and the pump
    repeat every period and the medium is memoryless, so every later
    period of an output trace repeats the first, and the k = 1 lock-in is
    exact on one period of any grid that resolves every harmonic the
    medium radiates. The pump and the lock-in references are tiled to
    CHUNK rows once, so the pump add and the lock-in products run as one
    contiguous loop instead of one per row; they are read-only, as the
    threads share them.
    """
    require_alias_free(grid, medium)
    period = TimeGrid(alias_free_samples(medium), 1, grid.omega)
    rows = (pump_trace(pump_b, pump_phase, period), *period.harmonic(1))
    refs = [np.tile(row, (CHUNK, 1)) for row in rows]
    for ref in refs:
        ref.setflags(write=False)

    def channel(pairs):
        out = np.empty_like(pairs)
        propagate_span(pairs, *refs, medium, out)
        return out

    return channel


def channel_sums(
    state: GaussianState,
    cfg: EnsembleConfig,
    channel: Callable[[np.ndarray], np.ndarray],
    workers: int = 1,
    in_degree: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Power sums of the state's samples sent through channel, and their center.

    Each span samples its pairs (:func:`sample_state_array`), sends them
    through ``channel`` and returns their :func:`pair_sums` about
    ``out_center``, the channel's output for the state's mean as one row;
    with ``in_degree``, the input pairs' sums about the mean to that degree
    come first. The spans' sums are added in span order
    (:func:`run_spans`), so nothing of size O(n) is held and the result is
    bitwise independent of ``workers``. Returns (sums, out_center).
    """
    center = state.mean.as_array()
    out_center = channel(center[None])[0]

    def work(start, count):
        pairs = sample_state_array(state, cfg, start, count)
        out_sums = pair_sums(channel(pairs), out_center)
        if not in_degree:
            return out_sums
        return np.concatenate((pair_sums(pairs, center, in_degree), out_sums))

    return reduce(np.add, run_spans(work, cfg.n_realizations, workers)), out_center


def propagate_ensemble(
    pairs: np.ndarray,
    pump_b: float,
    pump_phase: float,
    medium: SusceptibilityProfile,
    grid: TimeGrid,
    workers: int = 1,
) -> np.ndarray:
    """Propagate an (n, 2) ensemble through the medium, optionally threaded.

    Each span goes through :func:`medium_channel`, which checks ``grid``
    and traces one period of the smallest grid that resolves the medium
    (:func:`alias_free_samples` samples: 9 for chi2, 13 for chi3). So the
    result is bitwise independent of ``grid.samples_per_period`` and
    ``grid.n_periods``. Spans run through :func:`run_spans` and each writes
    its own rows, so it is bitwise independent of ``workers`` and of
    CHUNK too.
    """
    pairs = _as_pair_array(pairs)
    channel = medium_channel(pump_b, pump_phase, medium, grid)
    out = np.empty_like(pairs)

    def work(start, count):
        rows = slice(start, start + count)
        out[rows] = channel(pairs[rows])

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


def variance_scan(pairs: np.ndarray, thetas: np.ndarray) -> QuadratureScan:
    """Unbiased mean/variance of the rotated quadrature at each phase.

    The :func:`sums_scan` of an in-memory ensemble's :func:`pair_sums`
    about its sample mean.
    """
    arr = _as_pair_array(pairs)
    n = arr.shape[0]
    if n < 2:
        raise ValueError("variance requires at least two realizations")
    mean = arr.mean(axis=0)
    return sums_scan(pair_sums(arr, mean), n, mean, thetas)


def pair_sums(pairs: np.ndarray, center: np.ndarray, degree: int = 2) -> np.ndarray:
    """Power sums T[p, q] = sum y1^p * y2^q of y = pairs - center, 1 <= p + q <= degree.

    Ordered by p + q, then by falling p: at degree 2 they are (sum y1,
    sum y2, sum y1^2, sum y1*y2, sum y2^2), what :func:`sums_scan` takes,
    and each higher degree appends its sums to those of the degree below.
    ``center`` is the sampled state's exact mean: the sums of squares of
    uncentred bright pairs would cancel in :func:`sums_scan` and lose the
    variance. A zero center leaves every pair's bits as they are.
    Elementwise products and ``sum``, not a BLAS dot, whose bits would
    depend on its blocking.
    """
    y1, y2 = pairs[:, 0] - center[0], pairs[:, 1] - center[1]
    powers = [y1, y2]  # y1^p * y2^(m-p) for p = m..0, here m = 1
    sums = [y1.sum(), y2.sum()]
    for _ in range(degree - 1):
        powers = [power * y1 for power in powers] + [powers[-1] * y2]
        sums.extend(power.sum() for power in powers)
    return np.array(sums)


def sums_scan(
    sums: np.ndarray, n: int, center: np.ndarray, thetas: np.ndarray
) -> QuadratureScan:
    """Scan of n pairs from their :func:`pair_sums` about ``center``.

    With sample covariance S (n-1 divisor), Var X(theta) =
    u(theta)' S u(theta), which is algebraically the unbiased sample
    variance of the projected values.
    """
    s1, s2, s11, s12, s22 = sums
    c12 = (s12 - s1 * s2 / n) / (n - 1)
    cov = (((s11 - s1 * s1 / n) / (n - 1), c12), (c12, (s22 - s2 * s2 / n) / (n - 1)))
    return _project((s1 / n + center[0], s2 / n + center[1]), cov, thetas)


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
