"""Self-check suite: the cross-validation invariants behind the simulator.

Each check returns (ok, detail). They are intentionally redundant with
the unit-test suite so that an installed copy can be validated from the
command line without a test runner.
"""

from __future__ import annotations

import math
from dataclasses import replace
from functools import partial
from typing import Callable

import numpy as np

from .config import RunConfig
from .ensemble import (
    EnsembleConfig,
    GaussianState,
    channel_sums,
    default_thetas,
    medium_channel,
    propagate_ensemble,
    pump_trace,
    sample_state_array,
    squeezing_report,
    sums_scan,
    synthesize_rows,
)
from .fields import HarmonicComponent, pump_carrier, synthesize
from .medium import SusceptibilityProfile, alias_free_samples, polarize, transfer_values
from .oracle import PassGain, map_quadratures, single_pass
from .spectral import full_spectrum, lockin_extract, lockin_rows, predict_spectrum

Check = Callable[[RunConfig], tuple[bool, str]]


def _random_carriers(rng: np.random.Generator, k_max: int) -> list[HarmonicComponent]:
    comps = [HarmonicComponent(0, float(rng.uniform(-2, 2)))]
    comps += [
        HarmonicComponent(k, float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
        for k in range(1, k_max + 1)
    ]
    return comps


def check_lockin_exactness(cfg: RunConfig) -> tuple[bool, str]:
    """Synthesis -> extraction recovers every coefficient to 1e-12."""
    grid = cfg.grid()
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(25):
        carriers = _random_carriers(rng, grid.max_harmonic())
        series = synthesize(carriers, grid)
        for comp in carriers:
            got = lockin_extract(series, comp.k)
            worst = max(worst, abs(got.c - comp.c), abs(got.s - comp.s))
    return worst <= 1e-12, f"max coefficient error {worst:.3e} (bound 1e-12)"


def check_parseval(cfg: RunConfig) -> tuple[bool, str]:
    """Spectrum power equals series mean-square power to 1e-10 relative."""
    grid = cfg.grid()
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(25):
        carriers = _random_carriers(rng, grid.max_harmonic())
        series = synthesize(carriers, grid)
        spectrum = full_spectrum(series, grid.max_harmonic())
        ms = series.mean_square()
        worst = max(worst, abs(spectrum.mean_square() - ms) / max(ms, 1e-30))
    return worst <= 1e-10, f"max relative Parseval error {worst:.3e} (bound 1e-10)"


def check_closed_form_equivalence(cfg: RunConfig) -> tuple[bool, str]:
    """Numeric pipeline spectrum matches the closed form on a random grid."""
    grid = cfg.grid()
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(1000):
        a = float(rng.uniform(0, 2))
        b = float(rng.uniform(0, 2))
        phi = float(rng.uniform(0, 2 * math.pi))
        medium = SusceptibilityProfile(
            chi1=float(rng.uniform(0.5, 2)),
            chi2=float(rng.uniform(-1, 1)),
            eps0=float(rng.uniform(0.5, 2)),
        )
        series = synthesize(
            [
                HarmonicComponent(1, a * math.cos(phi), -a * math.sin(phi)),
                pump_carrier(b),
            ],
            grid,
        )
        numeric = full_spectrum(polarize(series, medium), 4).scaled(1.0 / medium.eps0)
        predicted = predict_spectrum(a, b, phi, medium)
        for num, pred in zip(numeric, predicted):
            for got, want in ((num.c, pred.c), (num.s, pred.s)):
                # 1e-9 relative with a 1e-12 absolute floor for zero bins
                err = abs(got - want)
                tol = 1e-9 * abs(want) + 1e-12
                if err > tol:
                    return False, f"bin k={num.k} off by {err:.3e} (tol {tol:.3e})"
                worst = max(worst, err / tol)
    return True, f"1000 draws, worst deviation at {worst:.3f} of tolerance"


def _vacuum_pairs(cfg: RunConfig) -> tuple[EnsembleConfig, np.ndarray]:
    """10 000 vacuum draws on the configured seed, grid and convention."""
    ens = EnsembleConfig(10_000, cfg.seed, cfg.grid(), cfg.convention())
    return ens, sample_state_array(GaussianState.vacuum(ens.convention), ens)


def check_oracle_equivalence(cfg: RunConfig) -> tuple[bool, str]:
    """Pipeline equals the closed-form gain map on every vacuum realization."""
    medium = SusceptibilityProfile(chi1=1.0, chi2=0.5)
    r = 0.5
    ens, pairs = _vacuum_pairs(cfg)
    out = propagate_ensemble(pairs, 1.0, 0.0, medium, ens.grid)
    expected = pairs * np.array([1.0 - r, 1.0 + r])
    worst = float(np.max(np.abs(out - expected)))
    return worst <= 1e-10, f"max per-realization deviation {worst:.3e} (bound 1e-10)"


def check_one_period_lockin(cfg: RunConfig) -> tuple[bool, str]:
    """Minimal-period ensemble propagation equals the configured-grid lock-in.

    The scan propagates on one period of the smallest alias-free grid
    (:func:`alias_free_samples`); that must give each vacuum realization
    the k = 1 output of the whole configured grid.
    """
    ens, pairs = _vacuum_pairs(cfg)
    grid = ens.grid
    out = propagate_ensemble(pairs, cfg.B, cfg.pump_phase, cfg.medium, grid)
    # the configured grid's own lock-in, 128 realizations at a time
    pump = pump_trace(cfg.B, cfg.pump_phase, grid)
    cos1, sin1 = grid.harmonic(1)
    full = np.empty_like(pairs)
    for lo in range(0, len(pairs), 128):
        rows = slice(lo, lo + 128)
        traces = transfer_values(synthesize_rows(pairs[rows], pump, cos1, sin1), cfg.medium)
        lockin_rows(traces, cos1, sin1, grid.n_samples, out=full[rows])
    bound = 1e-13 * max(1.0, float(np.max(np.abs(out))))
    worst = float(np.max(np.abs(out - full)))
    return worst <= bound, (
        f"{alias_free_samples(cfg.medium)}-sample period vs "
        f"{grid.samples_per_period}x{grid.n_periods} grid: max per-realization "
        f"deviation {worst:.3e} (bound {bound:.3e})"
    )


def check_vacuum_scan_flat(cfg: RunConfig) -> tuple[bool, str]:
    """With the pump off the variance scan is flat at the vacuum level.

    Runs on the configured medium without its cubic term. The cubic
    self-term (3/4)*chi3*(x1^2 + x2^2) lands on k = 1, so an unpumped
    Kerr medium scales each realization by its own intensity and lifts
    the whole scan above var_zp (by about 0.33 at chi3 = 0.05): that is
    the medium's physics, not a fault of the pipeline this check guards.
    """
    ens = cfg.ensemble()
    var_zp = ens.convention.var_zp
    medium = replace(cfg.medium, chi3=0.0)
    channel = medium_channel(0.0, 0.0, medium, ens.grid)
    sums, out_center = channel_sums(GaussianState.vacuum(ens.convention), ens, channel)
    scan = sums_scan(sums, ens.n_realizations, out_center, default_thetas(cfg.thetas))
    bound = 4.0 * math.sqrt(2.0 / (ens.n_realizations - 1))
    worst = float(np.max(np.abs(scan.variances / var_zp - 1.0)))
    return worst <= bound, (
        f"max |V/var_zp - 1| = {worst:.4f} (4-sigma bound {bound:.4f})"
    )


def check_heisenberg_symplectic(cfg: RunConfig) -> tuple[bool, str]:
    """Symplectic-mode uncertainty product stays at the vacuum bound."""
    convention = cfg.convention()
    var_zp = convention.var_zp
    gain = PassGain(0.5, "symplectic")
    state = single_pass(GaussianState.vacuum(convention), gain)
    det = float(np.linalg.det(state.cov))
    if abs(det - var_zp**2) > 1e-10:
        return False, f"oracle determinant off by {abs(det - var_zp**2):.3e}"
    # the vacuum through the map, as scan --mode symplectic samples it
    ens = cfg.ensemble()
    channel = partial(map_quadratures, gain=gain)
    sums, out_center = channel_sums(GaussianState.vacuum(convention), ens, channel)
    scan = sums_scan(sums, ens.n_realizations, out_center, default_thetas(cfg.thetas))
    report = squeezing_report(scan, convention)
    rel = abs(report.uncertainty_product / var_zp**2 - 1.0)
    return rel <= 0.03, (
        f"oracle det exact; sampled product off by {rel:.4f} (bound 0.03)"
    )


def check_determinism(cfg: RunConfig) -> tuple[bool, str]:
    """Worker count and chunk order do not change the ensemble bitwise."""
    medium = SusceptibilityProfile(chi1=1.0, chi2=0.5)
    ens, pairs = _vacuum_pairs(cfg)
    serial = propagate_ensemble(pairs, 1.0, 0.0, medium, ens.grid, workers=1)
    threaded = propagate_ensemble(pairs, 1.0, 0.0, medium, ens.grid, workers=4)
    if not np.array_equal(serial, threaded):
        return False, "worker count changed the propagated ensemble"
    # resampling a shuffled index set must reproduce the same rows
    resampled = np.empty_like(pairs)
    for start in (7000, 0, 3000):
        count = min(4000, ens.n_realizations - start)
        resampled[start : start + count] = sample_state_array(
            GaussianState.vacuum(ens.convention), ens, start, count
        )
    if not np.array_equal(pairs, resampled):
        return False, "sampling depends on evaluation order"
    return True, "bitwise identical across 1/4 workers and shuffled sampling"


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
    return [(name, *check(cfg)) for name, check in CHECKS]
