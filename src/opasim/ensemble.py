"""Monte-Carlo model of quantum uncertainty in the fundamental mode.

Quantum noise is represented by Gaussian-distributed quadrature pairs of
the fundamental-frequency field; each realization is a classical field
that is pushed through the medium like any other. Pump noise and vacuum
inputs at other frequencies are not modeled: only the fundamental-mode
quadratures carry uncertainty.

Realization i of an ensemble is always derived from the counter-based
stream at row i (see :mod:`opasim.rng`), so ensembles are bitwise
reproducible regardless of chunking or evaluation order.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import reduce
from typing import BinaryIO, Callable, NamedTuple, Sequence

import numpy as np

from . import rng
from .fields import QuadraturePair, TimeGrid, pump_carrier
from .medium import SusceptibilityProfile, channel_samples, transfer_values
from .spectral import lockin_rows

# rows per span: the kernel block and the group of the scan and figure
# sums, whose bits depend on that grouping. The block is samples-major, one
# column per realization: on the 6-sample channel period of a chi2 medium
# the three (6, 4096) float64 kernel buffers take 576 KiB (768 KiB at the 8
# samples of chi3), inside one core's 2 MiB L2.
CHUNK = 4096

# elements in numpy's ufunc buffer while a span loop runs (numpy's default
# is 8192). numpy copies an elementwise op on a strided (r, w) block
# through this buffer when r >= 4 and w <= size / 4, and a broadcast
# (r, 1) column on a contiguous block too: at the default, every kernel
# block of 2048 columns or fewer, the ragged last span among them. At 128
# only blocks of 32 columns or fewer are copied. No output bit depends on it
UFUNC_BUFFER = 128

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
    """Size and seed of a Monte-Carlo run."""

    n_realizations: int
    seed: int

    def __post_init__(self):
        # the 2x2 sample covariance of two pairs is singular whatever they are
        if self.n_realizations < 3:
            raise ValueError("n_realizations must be at least 3")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")


@dataclass(frozen=True, eq=False)
class GaussianState:
    """Gaussian quadrature statistics: mean pair and 2x2 covariance."""

    mean: QuadraturePair
    cov: np.ndarray = field(repr=False)
    # symmetric PSD square root L of cov (L @ L = cov), built with it
    noise: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not (math.isfinite(self.mean.x1) and math.isfinite(self.mean.x2)):
            raise ValueError("mean must be finite")
        cov = np.array(self.cov, dtype=float)
        if cov.shape != (2, 2):
            raise ValueError("cov must be a 2x2 matrix")
        # NaN fails every comparison below, so it is caught here
        if not np.all(np.isfinite(cov)):
            raise ValueError("cov must be finite")
        scale = max(1.0, float(np.max(np.abs(cov))))
        slack = _PSD_SLACK * scale
        if abs(cov[0, 1] - cov[1, 0]) > slack:
            raise ValueError("cov must be symmetric")
        # PSD for 2x2: non-negative diagonal and determinant (-slack * scale may be -inf)
        if min(cov[0, 0], cov[1, 1]) < -slack or det2(cov) < -slack * scale:
            raise ValueError("cov must be positive semi-definite")
        cov.setflags(write=False)
        object.__setattr__(self, "cov", cov)
        noise = _psd_sqrt(cov)
        noise.setflags(write=False)
        object.__setattr__(self, "noise", noise)

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


def det2(cov) -> float:
    """Determinant a*b - c*d of a 2x2 [[a, c], [d, b]], written out in floats.

    The entries are scaled by 2**-e, the largest into [1, 2), and the
    result by 2**e twice: exact scalings, so the bits are a*b - c*d's
    unless that overflows or underflows, and a*b cannot overflow alone.
    """
    (a, c), (d, b) = np.asarray(cov, dtype=float).tolist()
    e = math.frexp(max(abs(a), abs(b), abs(c), abs(d)))[1] - 1
    a, b, c, d = (math.ldexp(x, -e) for x in (a, b, c, d))
    power = math.ldexp(1.0, e)
    return (a * b - c * d) * power * power


def _psd_sqrt(cov: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root L of a 2x2 PSD cov (L @ L = cov), closed form."""
    sq = math.sqrt(max(det2(cov), 0.0))
    trace_term = cov[0, 0] + cov[1, 1] + 2.0 * sq
    if trace_term <= 0.0:
        return np.zeros((2, 2))
    denom = math.sqrt(trace_term)
    return (cov + sq * np.eye(2)) / denom


def sample_state_array(
    state: GaussianState, cfg: EnsembleConfig, start: int = 0, count: int | None = None
) -> np.ndarray:
    """(count, 2) array of quadrature draws for realizations start..start+count-1.

    Row i is mean + L @ z_i with z_i the i-th standard-normal pair of the
    seed's stream and L the symmetric square root of cov, so any slice of
    the ensemble can be produced independently. A diagonal L (every
    vacuum and coherent state) scales each column of z in place by its
    entry, skipping a factor of exactly 1.0, where :func:`map_pairs` would
    add l*x1 + 0*x2; the two differ only in the sign of an exactly-zero
    draw under a -0.0 mean, which no output reads.
    """
    if count is None:
        count = cfg.n_realizations - start
    draws = rng.standard_normal_pairs(cfg.seed, start, count)
    noise = state.noise
    if noise[0, 1] == 0.0 and noise[1, 0] == 0.0:
        for column, factor in zip(draws.T, noise.diagonal().tolist()):
            if factor != 1.0:
                column *= factor
    else:
        draws = map_pairs(draws, noise)
    draws += state.mean.as_array()
    return draws


def map_pairs(pairs: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Each row x of an (n, 2) array mapped to matrix @ x, as a new (n, 2) array.

    Column r of the result is m[r, 0]*x1 + m[r, 1]*x2: numpy multiplies
    and adds, which it never fuses, so the bits do not depend on the
    host's BLAS or SIMD kernels. For a diagonal matrix they equal
    ``pairs @ matrix.T``; otherwise they can differ from it by an FMA's
    rounding. The result has contiguous columns, as
    :func:`rng.standard_normal_pairs` does.
    """
    out = np.empty((2, len(pairs)))
    x1, x2 = pairs[:, 0], pairs[:, 1]
    scratch = np.empty(len(pairs))
    # column by column: a broadcast (2, 1) factor is 3-4 times slower from
    # 3e4 rows up, at any size of numpy's ufunc buffer
    for row, column in zip(matrix, out):
        np.multiply(x1, row[0], out=column)
        np.multiply(x2, row[1], out=scratch)
        column += scratch
    return out.T


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
    """Input field traces (x1*cos1 + x2*sin1) + pump, one column per realization.

    ``pump``, ``cos1`` and ``sin1`` are rows of n_samples; the result is
    an (n_samples, len(pairs)) samples-major block. The quadratures are
    taken as contiguous vectors (views of pairs with contiguous columns,
    copies otherwise) and multiplied by the references taken as columns,
    so each sample is the IEEE expression of that realization's own trace.
    """
    shape = (cos1.size, len(pairs))
    out = np.empty(shape) if out is None else out
    scratch = np.empty(shape) if scratch is None else scratch
    x1, x2 = (np.ascontiguousarray(column) for column in pairs.T)
    np.multiply(cos1[:, None], x1, out=out)
    np.multiply(sin1[:, None], x2, out=scratch)
    out += scratch
    out += pump[:, None]
    return out


def usable_cpus() -> int:
    """CPUs this process may run on; 1 where it cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def span_groups(n_spans: int, groups: int) -> list[tuple[int, int]]:
    """Bounds [lo, hi) of min(groups, n_spans) contiguous runs of n_spans spans.

    The runs are in order, cover every span and are non-empty (one empty
    run when there is no span); their sizes differ by at most one, and
    the first is the smallest.
    """
    k = max(1, min(groups, n_spans))
    return [(g * n_spans // k, (g + 1) * n_spans // k) for g in range(k)]


@contextmanager
def numpy_frame():
    """numpy's settings for a run: overflow and invalid-value warnings off,
    and a ufunc buffer of UFUNC_BUFFER elements; both are restored on exit.

    Each command reports an overflow or NaN by its own check, in one line.
    Forked span workers inherit the settings.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        np.setbufsize(UFUNC_BUFFER)
        yield


@numpy_frame()
def run_spans(work, n: int, workers: int = 1) -> list:
    """Ordered map of ``work(start, count)`` over the CHUNK-row spans of n rows.

    The spans are cut into contiguous groups (:func:`span_groups`), at
    most ``workers`` and :func:`usable_cpus` of them. The first group runs
    in this process, and each later one in a forked child that sends
    ``np.stack`` of its results back through a pipe; the results come
    back in span order, so whatever the caller reduces from them does not
    depend on ``workers``. With ``workers > 1``, ``work`` must return a
    float array of the same shape for every span, anything else it does
    in a child is lost with the child, and no other thread of this
    process may hold a lock that ``work`` takes. An exception raised in a
    child is raised here with its own type and message; a child that dies
    without a result raises ChildProcessError. No child outlives the
    call, whether it returns or raises. Every span, here and in the
    children, runs in :func:`numpy_frame`, whoever calls.
    """
    spans = [(start, min(CHUNK, n - start)) for start in range(0, n, CHUNK)]
    (_, head), *rest = span_groups(len(spans), min(workers, usable_cpus()))
    children = []
    try:
        for lo, hi in rest:
            children.append(_fork_group(work, spans[lo:hi]))
        results = [work(*span) for span in spans[:head]]
        while children:
            pid, stream = children[0]
            with stream:
                message = stream.read()
            _, status = os.waitpid(pid, 0)
            del children[0]
            results.extend(_group_results(pid, status, message))
        return results
    finally:
        for pid, stream in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            stream.close()


def _fork_group(work, spans: list) -> tuple[int, BinaryIO]:
    """Fork a child that runs work over spans; (its pid, the pipe it answers on)."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            try:
                message = b"\0" + pickle.dumps(np.stack([work(*span) for span in spans]))
            except BaseException as exc:  # sent back, and raised in the parent
                message = b"\1" + _pickled_exception(exc)
            with open(write_fd, "wb") as stream:
                stream.write(message)
            code = 0
        finally:
            # no inherited buffer is flushed twice and no atexit handler runs
            os._exit(code)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _pickled_exception(exc: BaseException) -> bytes:
    """exc pickled, or a ChildProcessError naming it if it does not round-trip."""
    try:
        message = pickle.dumps(exc)
        pickle.loads(message)
    except Exception:
        message = pickle.dumps(
            ChildProcessError(f"span worker raised {type(exc).__name__}: {exc}")
        )
    return message


def _group_results(pid: int, status: int, message: bytes) -> np.ndarray:
    """The stacked results a child sent, or the error it sent or died of."""
    code = os.waitstatus_to_exitcode(status)
    if code < 0:
        raise ChildProcessError(
            f"span worker {pid} was killed by {signal.Signals(-code).name}"
        )
    if code or not message:
        raise ChildProcessError(f"span worker {pid} exited with status {code}")
    payload = pickle.loads(message[1:])
    if message[:1] == b"\1":
        raise payload
    return payload


def propagate_span(
    pairs: np.ndarray,
    pump: np.ndarray,
    cos1: np.ndarray,
    sin1: np.ndarray,
    medium: SusceptibilityProfile,
    out: np.ndarray,
) -> None:
    """Propagate a span of realizations as one kernel block; (c, s) into out.

    ``pump``, ``cos1`` and ``sin1`` are one period's rows
    (:func:`medium_channel`). The block is samples-major, one column per
    realization, in the kernel buffers of :func:`_block_buffers`. Every
    operation is elementwise or a per-column sum in a fixed order
    (:func:`lockin_rows`), so each row of out equals running that
    realization alone through synthesis, the medium's polarization over
    eps0*chi1 (:func:`transfer_values`) and the lock-in, whatever the span.
    """
    n_samples = cos1.size
    e_in, e_out, scratch = _block_buffers(n_samples, len(pairs))
    synthesize_rows(pairs, pump, cos1, sin1, out=e_in, scratch=scratch)
    transfer_values(e_in, medium, out=e_out, scratch=scratch)
    lockin_rows(e_out, cos1, sin1, n_samples, out=out, scratch=scratch)


_held = threading.local()


def _block_buffers(n_samples: int, count: int) -> list[np.ndarray]:
    """(n_samples, count) views of the calling thread's three kernel buffers.

    Each thread keeps its buffers across calls, replacing them only when
    a block needs more rows or columns, so a span, the ragged last span
    and the centre row all reuse them. Block-sized arrays freed after
    every span would go back to the system, and the next span would fault
    their pages in again. Each buffer starts on a cache line
    (:func:`opasim.rng.aligned_empty`), and at CHUNK columns, 512 lines
    of float64, every row does.
    """
    held = getattr(_held, "buffers", None)
    if held is None or held[0].shape[0] < n_samples or held[0].shape[1] < count:
        shape = (n_samples, max(count, CHUNK))
        held = _held.buffers = [rng.aligned_empty(shape) for _ in range(3)]
    return [buffer[:n_samples, :count] for buffer in held]


def medium_channel(
    pump_b: float, pump_phase: float, medium: SusceptibilityProfile
) -> Callable[[np.ndarray], np.ndarray]:
    """The k = 1 output pairs of the pumped medium for a span of input pairs.

    The channel traces one period of :func:`channel_samples` samples: the
    input field and the pump repeat every period and the medium is
    memoryless, so every later period of an output trace repeats the
    first, and the k = 1 lock-in is exact on one period on which no
    harmonic the medium radiates folds onto the fundamental. So its
    output is the k = 1 bin of any alias-free grid's trace (a
    :class:`~opasim.config.RunConfig` checks its own grid). The pump and
    the lock-in references are that period's rows, read-only, as every
    span shares them.
    """
    period = TimeGrid(channel_samples(medium), 1)
    pump = pump_trace(pump_b, pump_phase, period)
    pump.setflags(write=False)
    refs = (pump, *period.harmonic(1))

    def channel(pairs):
        out = np.empty((2, len(pairs))).T  # lockin_rows writes whole columns
        propagate_span(pairs, *refs, medium, out)
        return out

    return channel


def channel_sums(
    state: GaussianState,
    cfg: EnsembleConfig,
    channels: Sequence[tuple[Callable[[np.ndarray], np.ndarray], int]],
    workers: int = 1,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Power sums of the state's samples sent through each channel, and their centers.

    ``channels`` holds (channel, degree) pairs. Each span samples its
    pairs once (:func:`sample_state_array`) and sends them through every
    channel; a channel's output pairs are summed to its degree
    (:func:`pair_sums`) about its center, its output for the state's mean
    as one row. The identity channel's sums are the input pairs' own,
    about the mean. The spans run on up to ``workers`` processes
    (:func:`run_spans`) and their sums are added in span order, so the
    bits do not depend on ``workers`` and nothing of size O(n) is held.
    Returns one (sums, center) per channel, in order, each with the bits
    of a call that passes that channel alone.
    """
    mean = state.mean.as_array()[None]
    centers = [channel(mean)[0] for channel, _ in channels]

    def work(start, count):
        pairs = sample_state_array(state, cfg, start, count)
        return np.concatenate(
            [
                pair_sums(channel(pairs), center, degree)
                for (channel, degree), center in zip(channels, centers)
            ]
        )

    sums = reduce(np.add, run_spans(work, cfg.n_realizations, workers))
    ends = np.cumsum([degree * (degree + 3) // 2 for _, degree in channels])
    return list(zip(np.split(sums, ends[:-1]), centers))


def propagate_ensemble(
    pairs: np.ndarray,
    pump_b: float,
    pump_phase: float,
    medium: SusceptibilityProfile,
) -> np.ndarray:
    """Propagate an (n, 2) ensemble through the medium, span by span.

    Each span goes through :func:`medium_channel`, which traces one period
    on which the k = 1 lock-in is exact (:func:`channel_samples` samples:
    6 for chi2, 8 for chi3). The result is the concatenation of the
    spans' outputs (:func:`run_spans`), each row its own realization's, so
    it is bitwise independent of CHUNK. It holds the outputs and the
    result at once, and runs on one process, as the last span's output is
    short.
    """
    pairs = _as_pair_array(pairs)
    channel = medium_channel(pump_b, pump_phase, medium)

    def work(start, count):
        return channel(pairs[start : start + count])

    # an empty ensemble has no span; pairs[:0] makes its result (0, 2)
    return np.concatenate([pairs[:0], *run_spans(work, len(pairs))])


def _as_pair_array(pairs) -> np.ndarray:
    arr = np.asarray(pairs, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("expected an (n, 2) array of quadrature pairs")
    return arr


@dataclass(frozen=True, eq=False)
class QuadratureScan:
    """Mean and variance of X(theta) = x1 cos(theta) + x2 sin(theta) at each theta.

    Made by :func:`_project` alone, which keeps the pair covariance.
    """

    thetas: np.ndarray = field(repr=False)
    variances: np.ndarray = field(repr=False)
    means: np.ndarray = field(repr=False)
    cov: np.ndarray = field(repr=False)


def default_thetas(count: int = 181) -> np.ndarray:
    """Quadrature phases 0..pi inclusive (the statistic has period pi).

    They set the rows of the scan tables only; :func:`squeezing_report`
    reads no phase grid. Two phases span 0..pi as {0, pi}, one quadrature
    twice: a table needs 0 and pi/2 to show squeezing and antisqueezing,
    so count >= 3.
    """
    if count < 3:
        raise ValueError(f"thetas must be at least 3, got {count}")
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
    powers = np.empty((degree * (degree + 3) // 2, len(pairs)))
    y1, y2 = powers[0], powers[1]
    np.subtract(pairs[:, 0], center[0], out=y1)
    np.subtract(pairs[:, 1], center[1], out=y2)
    # rows lo:hi hold y1^p * y2^(m-p) for p = m..0, here m = 1
    lo, hi = 0, 2
    for m in range(2, degree + 1):
        np.multiply(powers[lo:hi], y1, out=powers[hi : hi + m])
        np.multiply(powers[hi - 1], y2, out=powers[hi + m])
        lo, hi = hi, hi + m + 1
    # each row of a C-ordered block is summed as its own contiguous series
    return powers.sum(axis=1)


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
    mean, cov = np.array(mean, dtype=float), np.array(cov, dtype=float)
    thetas = np.array(thetas, dtype=float)
    cos_t, sin_t = np.cos(thetas), np.sin(thetas)
    variances = (
        cov[0, 0] * cos_t**2 + 2.0 * cov[0, 1] * cos_t * sin_t + cov[1, 1] * sin_t**2
    )
    means = mean[0] * cos_t + mean[1] * sin_t
    arrays = (thetas, np.maximum(variances, 0.0), means, cov)
    for arr in arrays:
        arr.setflags(write=False)
    return QuadratureScan(*arrays)


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
    """The extrema of the scan's variance, from its covariance, against the vacuum.

    For cov [[a, c], [c, b]], Var X(theta) = mid - R cos 2(theta - theta_min),
    mid = (a + b)/2 and R = hypot((a - b)/2, c), whatever the thetas: v_max
    = mid + R, and v_min = (a*b - c^2)/v_max, as mid - R cancels. theta_min
    is in (-pi/2, pi/2], 0 for a round state; theta_max = theta_min + pi/2.
    Negative squeeze_db means squeezing. A NaN or infinite covariance, or
    an all-zero one (v_max = 0), has no extrema to report and raises
    ValueError.
    """
    (a, c), (_, b) = scan.cov.tolist()
    # tested first: NaN fails the v_max > 0 test too, and is no lost noise
    if not all(math.isfinite(x) for x in (a, b, c)):
        raise ValueError(f"the scan's covariance is not finite ({[[a, c], [c, b]]})")
    half = 0.5 * (a - b)
    v_max = 0.5 * (a + b) + math.hypot(half, c)
    var_zp = convention.var_zp
    if not v_max > 0.0:
        raise ValueError(
            f"the scan's covariance is all zero: its noise (var_zp = {var_zp!r}) "
            "is lost below the rounding of the field"
        )
    # each product scaled by v_max first, so that no product overflows
    v_min = max(a * (b / v_max) - c * (c / v_max), 0.0)
    # 0.0 - x is +0.0 for either zero: theta_min is never -0.0 or -pi/2
    theta_min = 0.5 * math.atan2(0.0 - c, 0.0 - half)
    return SqueezingReport(
        v_min=v_min,
        theta_min=theta_min,
        v_max=v_max,
        theta_max=theta_min + 0.5 * math.pi,
        squeeze_db=10.0 * math.log10(v_min / var_zp) if v_min > 0.0 else -math.inf,
        antisqueeze_db=10.0 * math.log10(v_max / var_zp),
        uncertainty_product=v_min * v_max,
    )
