"""Self-check suite: the cross-validation invariants behind the simulator.

Each check returns (ok, detail). They are intentionally redundant with
the unit-test suite so that an installed copy can be validated from the
command line without a test runner.

One :func:`run_all` call shares its sampled inputs among the checks
(:class:`SharedInputs`): the 10 000 vacuum draws of
oracle-pipeline-equivalence, one-period-lockin and determinism are drawn
once, and propagated once per pumped channel: the fixed medium of
oracle-pipeline-equivalence and determinism, and the configured one of
one-period-lockin, which at the defaults is the same channel;
vacuum-scan-flat and heisenberg-symplectic read their two scans from one
span loop over the configured ensemble. Each input is made by the first
check that reads it, and none outlives the call. determinism resamples
its shuffled slices, and the draws once more through channel_sums,
itself: that sampling in another order, that summing, and the n-1
sample covariance sums_scan takes from those sums (against a two-pass
one) are what it checks.
"""

from __future__ import annotations

import math
import sys
from dataclasses import replace
from functools import cached_property, partial
from typing import Callable

import numpy as np

from .config import RunConfig
from .ensemble import (
    EnsembleConfig,
    GaussianState,
    QuadratureScan,
    channel_sums,
    default_thetas,
    det2,
    medium_channel,
    pair_sums,
    propagate_ensemble,
    pump_trace,
    run_spans,
    sample_state_array,
    squeezing_report,
    sums_scan,
    synthesize_rows,
)
from .fields import HarmonicComponent, TimeGrid, synthesize_values
from .medium import (
    SusceptibilityProfile,
    channel_samples,
    require_alias_free,
    transfer_values,
)
from .oracle import PassGain, map_quadratures, single_pass
from .rng import MAX_RADIUS, uniforms
from .spectral import (
    _column_sums,
    lines_mean_square,
    lockin_rows,
    predict_spectrum,
    pumped_spectrum,
    spectrum_rows,
)

# every check takes the run's shared inputs, and reads its config from them
Check = Callable[["SharedInputs"], tuple[bool, str]]


# lockin-exactness and parseval: draws of spectral lines, one column each
LINE_DRAWS = 25


def _uniform_table(seed: int, shape: tuple[int, int], low, high) -> np.ndarray:
    """low + (high - low)*u, u stream seed's uniforms filling shape row by row.

    The uniforms (:func:`uniforms`) are in (0, 1] and start at draw 0; low
    and high are scalars or one bound per column.
    """
    low, high = np.asarray(low, dtype=float), np.asarray(high, dtype=float)
    return low + (high - low) * uniforms(seed, 0, math.prod(shape)).reshape(shape)


def _random_lines(seed: int, k_max: int) -> np.ndarray:
    """(LINE_DRAWS, k_max + 1, 2) lines (c, s), uniform in (-2, 2], no DC sine.

    Each draw takes its DC, then c and s of k = 1..k_max, from stream
    ``seed`` in that order: -2 + 4u of one uniform per coefficient.
    """
    table = _uniform_table(seed, (LINE_DRAWS, 2 * k_max + 1), -2.0, 2.0)
    lines = np.zeros((LINE_DRAWS, k_max + 1, 2))
    lines[:, 0, 0] = table[:, 0]
    lines[:, 1:] = table[:, 1:].reshape(LINE_DRAWS, k_max, 2)
    return lines


def _synthesized_lines(lines: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """(n_samples, draws) block: column j synthesizes lines[j].

    Each column has the bits of :func:`~opasim.fields.synthesize` on its
    draw's lines alone.
    """
    rows = np.ascontiguousarray(lines.transpose(1, 2, 0))  # (k, c/s, draw)
    carriers = [HarmonicComponent(0, rows[0, 0])]
    carriers += [HarmonicComponent(k, c, s) for k, (c, s) in enumerate(rows[1:], 1)]
    return synthesize_values(carriers, grid, len(lines))


# margins of rounding_floor, each at least twice the worst of a sweep of
# correct runs (README, "Numerical guarantees")
CHANNEL_MARGIN = DETERMINANT_MARGIN = 8.0
SYNTHESIS_MARGIN = SPECTRUM_MARGIN = 16.0


def rounding_floor(magnitude, margin: float):
    """margin*eps*(magnitude + tiny), the gate of every closed-form comparison:
    a sum of terms within ``magnitude`` in total rounds by a few eps of it
    (Higham, SIAM J. Sci. Comput. 14, 1993); tiny covers subnormal results."""
    return margin * sys.float_info.epsilon * (magnitude + sys.float_info.min)


def polynomial_magnitude(coefficients, e):
    """sum_k |c_k|*e^k of (c_1, ..., c_d), in Horner form: the magnitude of
    a medium's output, and of each of its terms, on a trace within e."""
    magnitude = 0.0
    for c in reversed(coefficients):
        magnitude = (magnitude + abs(c)) * e
    return magnitude


def spectrum_floor(a, b, chi1, chi2, chi3):
    """rounding_floor of :func:`~opasim.spectral.pumped_spectrum` against its
    closed form: the pumped field stays within |a| + |b|."""
    magnitude = polynomial_magnitude((chi1, chi2, chi3), abs(a) + abs(b))
    return rounding_floor(magnitude, SPECTRUM_MARGIN)


def channel_floor(medium: SusceptibilityProfile, e: float) -> float:
    """rounding_floor of the medium channel's k = 1 output on traces within e:
    the lock-in sums the polarization's terms, whose largest outgrows the
    output, over the divisor eps0*chi1. It is infinite where the
    polarization of such a trace may overflow."""
    chis = (medium.chi1, medium.chi2, medium.chi3)
    magnitude = medium.eps0 * polynomial_magnitude(chis, e)
    return rounding_floor(magnitude / (medium.eps0 * medium.chi1), CHANNEL_MARGIN)


def _gated(err, floor, what: str, where=lambda at: "") -> tuple[bool, str]:
    """(ok, detail): every err within its floor. A NaN, infinite or larger err
    fails and the detail names the first in C order, else the one nearest its
    floor; ``where`` of that entry's index ends the detail."""
    err, floor = np.broadcast_arrays(err, floor)
    failed = ~(err <= floor)
    at = np.unravel_index(np.argmax(failed if failed.any() else err / floor), err.shape)
    worst, bound = float(err[at]), float(floor[at])
    if not math.isfinite(worst):
        return False, f"{what} is not finite ({worst}){where(at)}"
    if worst <= bound:
        return True, f"worst {what} {worst:.3e} (bound {bound:.3e}){where(at)}"
    return False, f"{what} {worst:.3e} above bound {bound:.3e}{where(at)}"


def check_lockin_exactness(shared: SharedInputs) -> tuple[bool, str]:
    """Synthesis -> extraction recovers every coefficient to the rounding floor
    of its draw's sum of |c| and |s|."""
    grid = shared.cfg.grid()
    lines = _random_lines(1, grid.max_harmonic())
    got = spectrum_rows(_synthesized_lines(lines, grid), grid, grid.max_harmonic())
    floor = rounding_floor(np.abs(lines).sum(axis=(1, 2)), SYNTHESIS_MARGIN)
    return _gated(np.abs(got - lines), floor[:, None, None], "coefficient error")


def check_parseval(shared: SharedInputs) -> tuple[bool, str]:
    """Spectrum power equals series mean-square power to 1e-10 relative."""
    grid = shared.cfg.grid()
    block = _synthesized_lines(_random_lines(2, grid.max_harmonic()), grid)
    # each column's np.mean(values**2), taken before the lock-in consumes it
    ms = _column_sums(block * block) / grid.n_samples
    spectra = spectrum_rows(block, grid, grid.max_harmonic())
    power = np.array([lines_mean_square(lines) for lines in spectra.tolist()])
    errors = np.abs(power - ms) / np.maximum(ms, 1e-30)
    return _gated(errors, 1e-10, "relative Parseval error")


# closed-form-equivalence: draws of (a, b, phi, pump_phase, chi1, chi2,
# eps0), uniform between these rows on stream 3, piped as samples-major
# blocks of at most BLOCK columns
DRAWS = 1000
BLOCK = 128
LOW = (0.0, 0.0, 0.0, 0.0, 0.5, -1.0, 0.5)
HIGH = (2.0, 2.0, 2 * math.pi, 2 * math.pi, 2.0, 1.0, 2.0)


def _closed_form_spectra(grid: TimeGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(numeric, predicted, floor) of the closed-form check, one row per draw.

    The spectra are (DRAWS, 5, 2), bins k = 0..4 at chi3 = 0: :func:`~opasim.spectral.pumped_spectrum` one block
    at a time, and :func:`~opasim.spectral.predict_spectrum` on all draws,
    each row with the bits of that draw's scalar pipeline and closed form.
    """
    draws = _uniform_table(3, (DRAWS, 7), LOW, HIGH)
    numeric = np.empty((DRAWS, 5, 2))
    for lo in range(0, DRAWS, BLOCK):
        rows = slice(lo, lo + BLOCK)
        a, b, phi, psi, chi1, chi2, eps0 = np.ascontiguousarray(draws[rows].T)
        pumped_spectrum(a, b, phi, psi, chi1, chi2, 0.0, eps0, grid, 4, out=numeric[rows])
    a, b, phi, psi, chi1, chi2, _ = np.ascontiguousarray(draws.T)
    predicted = np.empty((DRAWS, 5, 2))
    for k, line in enumerate(predict_spectrum(a, b, phi, psi, chi1, chi2, 0.0)[:5]):
        predicted[:, k, 0], predicted[:, k, 1] = line
    return numeric, predicted, spectrum_floor(a, b, chi1, chi2, 0.0)[:, None, None]


def check_closed_form_equivalence(shared: SharedInputs) -> tuple[bool, str]:
    """Numeric pipeline spectrum matches the closed form on one configured period.

    Phases are periodic, so every later period of a draw's trace repeats
    the first; multi-period extraction is checked by lockin-exactness and
    parseval on the whole grid.
    """
    numeric, predicted, floor = _closed_form_spectra(replace(shared.cfg.grid(), n_periods=1))
    err = np.abs(numeric - predicted)
    return _gated(err, floor, "deviation", lambda at: f" in bin k={at[1]} of draw {at[0]}")


# the fixed medium of oracle-pipeline-equivalence and determinism, pumped at B = 1
FIXED_MEDIUM = SusceptibilityProfile(chi1=1.0, chi2=0.5)
SYMPLECTIC = PassGain(0.5, "symplectic")


class SharedInputs:
    """The sampled inputs that the checks of one validate run share.

    ``cfg`` is the run's configuration, which every check reads. Each
    input is made the first time a check reads it, so its cost lands in
    that check, and is kept as long as this object. :func:`run_all` makes
    one per call and drops it on return, so nothing outlives the call.
    """

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self._outputs = {}

    @cached_property
    def vacuum(self) -> tuple[EnsembleConfig, np.ndarray]:
        """10 000 vacuum draws on the configured seed and convention."""
        ens = EnsembleConfig(10_000, self.cfg.seed)
        return ens, sample_state_array(GaussianState.vacuum(self.cfg.convention()), ens)

    @cached_property
    def radius(self) -> float:
        """The largest hypot(x1, x2) of the vacuum draws: radius + |B| bounds
        |E| on every trace of a draw pumped at B."""
        _, pairs = self.vacuum
        return float(np.max(np.hypot(pairs[:, 0], pairs[:, 1]), initial=0.0))

    def propagated(
        self, pump_b: float, pump_phase: float, medium: SusceptibilityProfile
    ) -> np.ndarray:
        """The vacuum draws propagated through the medium pumped at (pump_b, pump_phase).

        Kept per channel, so checks that read an equal channel (compared
        as floats, the medium as its frozen dataclass) share one propagation.
        """
        key = (pump_b, pump_phase, medium)
        if key not in self._outputs:
            _, pairs = self.vacuum
            self._outputs[key] = propagate_ensemble(pairs, *key)
        return self._outputs[key]

    @cached_property
    def scans(self) -> tuple[QuadratureScan, QuadratureScan]:
        """Scans of the configured vacuum ensemble, from one pass over its spans.

        The first is through the unpumped configured medium without its
        cubic term, the second through the SYMPLECTIC map, as ``scan
        --mode symplectic`` samples it. Raises ValueError, before any
        draw, where the first scan's sums of squares may overflow.
        """
        cfg = self.cfg
        flat_medium = replace(cfg.medium, chi3=0.0)
        # an unpumped output is its draw, within MAX_RADIUS*sqrt(var_zp),
        # plus its rounding; sums_scan squares the sum of n of them
        e = MAX_RADIUS * math.sqrt(cfg.var_zp)
        reach = cfg.n_realizations * (e + channel_floor(flat_medium, e))
        if not reach * reach < math.inf:
            raise ValueError(
                "the configured medium's rounding overflows the unpumped scan's sums "
                f"(chi2/chi1 = {flat_medium.chi2 / flat_medium.chi1!r})"
            )
        flat = medium_channel(0.0, 0.0, flat_medium)
        symplectic = partial(map_quadratures, gain=SYMPLECTIC)
        vacuum = GaussianState.vacuum(cfg.convention())
        results = channel_sums(vacuum, cfg.ensemble(), [(flat, 2), (symplectic, 2)])
        thetas = default_thetas(cfg.thetas)
        return tuple(
            sums_scan(sums, cfg.n_realizations, center, thetas) for sums, center in results
        )


def check_oracle_equivalence(shared: SharedInputs) -> tuple[bool, str]:
    """Pipeline equals the closed-form gain map on every vacuum realization."""
    r = 0.5
    _, pairs = shared.vacuum
    deviation = pairs * np.array([1.0 - r, 1.0 + r])
    deviation -= shared.propagated(1.0, 0.0, FIXED_MEDIUM)
    floor = channel_floor(FIXED_MEDIUM, shared.radius + 1.0)
    return _gated(np.abs(deviation, out=deviation), floor, "per-realization deviation")


def check_one_period_lockin(shared: SharedInputs) -> tuple[bool, str]:
    """Minimal-period ensemble propagation equals one configured period's lock-in.

    The scan propagates on one period of :func:`channel_samples` samples,
    fewer than the configured grid needs; that must give each vacuum
    realization the k = 1 output of one period of the configured grid,
    which every later period repeats bit for bit.
    """
    cfg = shared.cfg
    _, pairs = shared.vacuum
    out = shared.propagated(cfg.B, cfg.pump_phase, cfg.medium)  # raises on chi1 = 0
    floor = channel_floor(cfg.medium, shared.radius + abs(cfg.B))
    if not math.isfinite(floor):
        raise ValueError(f"the configured medium pumped at B = {cfg.B!r} overflows a trace")
    # one configured period's own lock-in, 512 realizations at a time
    period = replace(cfg.grid(), n_periods=1)
    pump = pump_trace(cfg.B, cfg.pump_phase, period)
    cos1, sin1 = period.harmonic(1)
    full = np.empty_like(pairs)
    for lo in range(0, len(pairs), 512):
        rows = slice(lo, lo + 512)
        traces = transfer_values(synthesize_rows(pairs[rows], pump, cos1, sin1), cfg.medium)
        lockin_rows(traces, cos1, sin1, period.n_samples, out=full[rows])
    # |full - out| in place: no further O(n) array while the shared ones are held
    full -= out
    ok, detail = _gated(np.abs(full, out=full), floor, "per-realization deviation")
    grid = f"{period.samples_per_period}x{period.n_periods} grid"
    return ok, f"{channel_samples(cfg.medium)}-sample period vs {grid}: {detail}"


def check_vacuum_scan_flat(shared: SharedInputs) -> tuple[bool, str]:
    """With the pump off the variance scan is flat at the vacuum level.

    Runs on the configured medium without its cubic term. The cubic
    self-term (3/4)*chi3*(x1^2 + x2^2) lands on k = 1, so an unpumped
    Kerr medium scales each realization by its own intensity and lifts
    the whole scan above var_zp (by about 0.33 at chi3 = 0.05): that is
    the medium's physics, not a fault of the pipeline this check guards.
    """
    cfg = shared.cfg
    convention = cfg.convention()
    var_zp = convention.var_zp
    scan = shared.scans[0]
    # squeezing_report raises on a NaN or infinite covariance; here it fails
    if not np.isfinite(scan.cov).all():
        return False, f"scan covariance is not finite ({scan.cov.tolist()})"
    report = squeezing_report(scan, convention)
    bound = 4.0 * math.sqrt(2.0 / (cfg.n_realizations - 1))
    worst = max(abs(report.v_min / var_zp - 1.0), abs(report.v_max / var_zp - 1.0))
    detail = f"max |V/var_zp - 1| = {worst:.4f} (4-sigma bound {bound:.4f})"
    return worst <= bound, detail


def check_heisenberg_symplectic(shared: SharedInputs) -> tuple[bool, str]:
    """Symplectic-mode uncertainty product stays at the vacuum bound.

    The sampled product is det S of the output pairs' sample covariance.
    For n Gaussian pairs (n-1)^2 det S / det Sigma is a product of two
    independent chi-square variables, of n-1 and n-2 degrees of freedom,
    so its relative sd is about 2/sqrt(n-1). The bound is 5 of those: on
    a correct pipeline the largest of 3000 seeds at n = 1e4 read 4.45.
    """
    cfg = shared.cfg
    convention = cfg.convention()
    var_zp = convention.var_zp
    state = single_pass(GaussianState.vacuum(convention), SYMPLECTIC)
    floor = rounding_floor(var_zp**2, DETERMINANT_MARGIN)
    ok, detail = _gated(abs(det2(state.cov) - var_zp**2), floor, "oracle det error")
    if not ok:
        return False, detail
    scan = shared.scans[1]
    if not np.isfinite(scan.cov).all():
        return False, f"scan covariance is not finite ({scan.cov.tolist()})"
    report = squeezing_report(scan, convention)
    rel = abs(report.uncertainty_product / var_zp**2 - 1.0)
    bound = 5.0 * 2.0 / math.sqrt(cfg.n_realizations - 1)
    detail = f"oracle det exact; sampled product off by {rel:.4f} (5-sigma bound {bound:.4f})"
    return rel <= bound, detail


def check_determinism(shared: SharedInputs) -> tuple[bool, str]:
    """Span cuts, sampling order and span order do not change the ensemble bitwise.

    The shared vacuum draws and their propagation are the reference; the
    shuffled slices are sampled again here, as that resampling is what
    this check tests. Then the draws' power sums from :func:`channel_sums`
    must equal their spans' :func:`pair_sums` added here in span order:
    the scan's bits depend on that order, which no statistical bound sees.
    Last, :func:`sums_scan` of those sums must give the draws' two-pass
    sample covariance (n-1 divisor) to 1e-12 of its largest entry.
    """
    ens, pairs = shared.vacuum
    whole = shared.propagated(1.0, 0.0, FIXED_MEDIUM)
    # uneven slices in shuffled order, so the spans start off the CHUNK grid
    channel = medium_channel(1.0, 0.0, FIXED_MEDIUM)
    cut = np.empty_like(pairs)
    for rows in (slice(7000, None), slice(0, 3000), slice(3000, 7000)):
        cut[rows] = channel(pairs[rows])
    if not np.array_equal(whole, cut):
        return False, "span cuts changed the propagated ensemble"
    # resampling a shuffled index set must reproduce the same rows
    vacuum = GaussianState.vacuum(shared.cfg.convention())
    resampled = np.empty_like(pairs)
    for start in (7000, 0, 3000):
        count = min(4000, ens.n_realizations - start)
        resampled[start : start + count] = sample_state_array(vacuum, ens, start, count)
    if not np.array_equal(pairs, resampled):
        return False, "sampling depends on evaluation order"
    # the identity channel's sums to degree 4: 14 sums, where the 5 of
    # degree 2 can all round alike in both orders (they do at var_zp = 1e10
    # on the default seed)
    [(sums, center)] = channel_sums(vacuum, ens, [(lambda span: span, 4)])
    spans = run_spans(
        lambda start, count: pair_sums(pairs[start : start + count], center, 4), len(pairs)
    )
    added = spans[0]
    for span_sums in spans[1:]:  # in span order, one add at a time
        added = added + span_sums
    if not np.array_equal(sums, added):
        return False, "channel_sums does not add the spans' sums in span order"
    # a divisor of n for n-1 is off by 1/n, here 1e-4
    cov = sums_scan(sums[:5], len(pairs), center, default_thetas(3)).cov
    reference = np.cov(pairs, rowvar=False)
    worst = float(np.max(np.abs(cov - reference)))
    if not worst <= 1e-12 * float(np.max(np.abs(reference))):
        return False, f"scan covariance off the n-1 sample covariance by {worst:.3e}"
    return True, "bitwise identical across span cuts and shuffled sampling"


CHECKS: tuple[tuple[str, Check], ...] = (
    ("lockin-exactness", check_lockin_exactness),
    ("parseval", check_parseval),
    ("closed-form-equivalence", check_closed_form_equivalence),
    ("oracle-pipeline-equivalence", check_oracle_equivalence),
    ("one-period-lockin", check_one_period_lockin),
    ("vacuum-scan-flat", check_vacuum_scan_flat),
    ("heisenberg-symplectic", check_heisenberg_symplectic),
    ("determinism", check_determinism),
)


def run_all(cfg: RunConfig) -> list[tuple[str, bool, str]]:
    """(name, ok, detail) of every check, in order, on one run's shared inputs.

    The checks pump chi2 media (FIXED_MEDIUM and the closed-form draws) on
    the configured grid and read its bins up to k = 4, whatever medium it
    is configured for, so the grid must resolve a chi2 medium's output.
    """
    try:
        require_alias_free(cfg.grid(), FIXED_MEDIUM)
    except ValueError as exc:
        raise ValueError(f"validate's checks pump a chi2 medium: {exc}") from None
    shared = SharedInputs(cfg)
    return [(name, *check(shared)) for name, check in CHECKS]
