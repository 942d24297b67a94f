"""Plot-ready data for the illustration figures.

Every figure is emitted as one or more CSV tables. Time-domain tables
carry the ensemble-mean trace plus a mean +- band_sigma*std envelope.
An input band is the ensemble's sample covariance (n-1 divisor)
projected at theta = omega*t, which is algebraically the pointwise
sample variance of the input traces, so no input trace is synthesized
for it. Output bands (fig2, fig3) are pointwise in time over one
fundamental period of the pipeline output traces, repeated over the
grid's periods: the input field and the pump repeat every period and the
medium is memoryless, so every period of an output trace repeats the
first, and the k = 1 lock-in behind the scan is exact on one period.
They are taken from the traces, not reconstructed from the closed-form
map. The output band and the fundamental-bin scan are summed about the
noiseless output (the state's mean pair propagated as one row), so a
bright state keeps its output variance.

Figures
-------
fig1a..fig1e  single table: the five reference states of the fundamental
              mode (ground, squeezed vacuum, coherent, bright
              phase-squeezed, bright amplitude-squeezed)
fig2          vacuum + pump through the medium: input envelope, transfer
              characteristic, output envelope, fundamental-bin scan
fig3          coherent + pump, phased so pump minima sit on fundamental
              extrema: same four tables; running it with
              pump_phase_deg=180 yields the phase-squeezed variant
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .config import RunConfig
from .ensemble import (
    GaussianState,
    QuadratureScan,
    TraceMoments,
    VacuumConvention,
    block_tile,
    pair_sums,
    period_references,
    propagate_span,
    pump_trace,
    run_spans,
    sample_state_array,
    sums_scan,
)
from .fields import QuadraturePair
from .medium import polarization_values, require_alias_free
from .oracle import PassGain, single_pass

FIGURE_NAMES = ("fig1a", "fig1b", "fig1c", "fig1d", "fig1e", "fig2", "fig3")

CHARACTERISTIC_POINTS = 513


@dataclass(frozen=True, eq=False)
class FigureTable:
    name: str
    header: tuple[str, ...]
    columns: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.header) != len(self.columns):
            raise ValueError("one header entry per column required")
        for label, column in zip(self.header, self.columns):
            finite = np.isfinite(column)
            if label == "squeeze_db":
                finite |= column == -np.inf  # an exactly zero variance
            if not finite.all():
                raise ValueError(f"table {self.name}: column {label} is not finite")


def scan_table(
    name: str, scan: QuadratureScan, convention: VacuumConvention
) -> FigureTable:
    """theta_deg, variance, mean, squeeze_db columns of a quadrature scan.

    A zero variance reads -inf dB.
    """
    with np.errstate(divide="ignore"):
        squeeze_db = 10.0 * np.log10(scan.variances / convention.var_zp)
    return FigureTable(
        name,
        ("theta_deg", "variance", "mean", "squeeze_db"),
        (np.degrees(scan.thetas), scan.variances, scan.means, squeeze_db),
    )


def figure_state(name: str, cfg: RunConfig) -> GaussianState:
    """The Gaussian state a figure shows (fig1) or sends through the medium."""
    convention = cfg.convention()
    if name in ("fig1a", "fig2"):
        return GaussianState.vacuum(convention)
    if name == "fig3":
        # fundamental extrema on the pump minima: phi = 0 by construction
        return _coherent(cfg, QuadraturePair(cfg.A, 0.0))
    carrier = QuadraturePair.from_amplitude_phase(cfg.A, cfg.phi)
    if name == "fig1c":
        return _coherent(cfg, carrier)
    gain = PassGain(cfg.pump_ratio, cfg.mode)
    if name == "fig1b":
        return single_pass(GaussianState.vacuum(convention), gain, cfg.pump_phase)
    if name == "fig1d":
        return single_pass(_coherent(cfg, carrier), gain, cfg.pump_phase + math.pi)
    if name == "fig1e":
        return single_pass(_coherent(cfg, carrier), gain, cfg.pump_phase)
    raise ValueError(f"unknown figure state {name!r}")


def _coherent(cfg: RunConfig, mean: QuadraturePair) -> GaussianState:
    if cfg.A == 0.0:
        raise ValueError(
            "this figure needs a coherent input: set a non-zero amplitude A"
        )
    return GaussianState.coherent(mean, cfg.convention())


def emit_figure(name: str, cfg: RunConfig, workers: int = 1) -> list[FigureTable]:
    """Build all tables for one figure."""
    if name not in FIGURE_NAMES:
        raise ValueError(f"unknown figure {name!r} (expected one of {FIGURE_NAMES})")
    if name.startswith("fig1"):
        return [_state_trace_table(name, cfg, workers)]
    return _pipeline_tables(name, cfg, workers)


def _envelope_columns(times, mean: np.ndarray, var: np.ndarray, band_sigma: float):
    """t, mean, std and the mean -+ band_sigma*std band."""
    std = np.sqrt(var)
    return (times, mean, std, mean - band_sigma * std, mean + band_sigma * std)


_TRACE_HEADER = ("t", "mean", "std", "lower", "upper")


def _state_trace_table(name: str, cfg: RunConfig, workers: int) -> FigureTable:
    state = figure_state(name, cfg)
    grid = cfg.grid()
    ens = cfg.ensemble()
    center = state.mean.as_array()

    def work(start, count):
        return pair_sums(sample_state_array(state, ens, start, count), center)

    sums = reduce(np.add, run_spans(work, ens.n_realizations, workers))
    band = sums_scan(sums, ens.n_realizations, center, grid.phases())
    columns = _envelope_columns(grid.times(), band.means, band.variances, cfg.band_sigma)
    return FigureTable(name, _TRACE_HEADER, columns)


def _pipeline_tables(name: str, cfg: RunConfig, workers: int) -> list[FigureTable]:
    PassGain(cfg.pump_ratio, cfg.mode)  # the threshold check every subcommand makes
    state = figure_state(name, cfg)
    grid = cfg.grid()
    ens = cfg.ensemble()
    convention = cfg.convention()
    require_alias_free(grid, cfg.medium)
    n = ens.n_realizations
    center = state.mean.as_array()
    refs = period_references(cfg.B, cfg.pump_phase, grid, n)
    # the noiseless output: the mean pair propagated as one row, about which
    # the output traces and pairs are summed
    out_center = np.empty((1, 2))
    noiseless = TraceMoments()
    center_refs = period_references(cfg.B, cfg.pump_phase, grid, 1)
    propagate_span(center[None], *center_refs, cfg.medium, out_center, noiseless)
    trace_center = block_tile(noiseless.sums[0], len(refs[0]))
    out_center = out_center[0]

    def work(start, count):
        pairs = sample_state_array(state, ens, start, count)
        out = np.empty_like(pairs)
        outputs = TraceMoments(trace_center)
        propagate_span(pairs, *refs, cfg.medium, out, outputs)
        return np.concatenate(
            (pair_sums(pairs, center), outputs.sums.ravel(), pair_sums(out, out_center))
        )

    sums = reduce(np.add, run_spans(work, n, workers))
    in_sums, trace_sums, out_sums = np.split(sums, [5, len(sums) - 5])
    times = grid.times()
    band = sums_scan(in_sums, n, center, grid.phases())
    pump = pump_trace(cfg.B, cfg.pump_phase, grid)
    input_cols = _envelope_columns(times, band.means + pump, band.variances, cfg.band_sigma)
    total1, total2 = trace_sums.reshape(2, -1)
    var = np.maximum((total2 - total1 * total1 / n) / (n - 1), 0.0)
    # the output sums cover one period; every period of the traces repeats it
    mean, var = np.tile((total1 / n + noiseless.sums[0], var), grid.n_periods)
    output_cols = _envelope_columns(times, mean, var, cfg.band_sigma)

    thetas = np.linspace(0.0, 2.0 * math.pi, 2 * cfg.thetas - 1)
    scan = sums_scan(out_sums, n, out_center, thetas)

    e_max = abs(cfg.A) + abs(cfg.B) + 4.0 * math.sqrt(convention.var_zp)
    e_axis = np.linspace(-e_max, e_max, CHARACTERISTIC_POINTS)
    p_axis = polarization_values(e_axis, cfg.medium)

    return [
        FigureTable(f"{name}_input", _TRACE_HEADER, input_cols),
        FigureTable(f"{name}_characteristic", ("field", "polarization"), (e_axis, p_axis)),
        FigureTable(f"{name}_output", _TRACE_HEADER, output_cols),
        scan_table(f"{name}_scan", scan, convention),
    ]
