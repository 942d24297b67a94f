"""Plot-ready data for the illustration figures.

Every figure is emitted as one or more CSV tables. Time-domain tables
carry the ensemble-mean trace plus a mean +- band_sigma*std envelope,
computed pointwise in time over the full set of realizations (for the
pumped figures, over complete pipeline output traces, not a
reconstruction from the closed-form map).

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
    TraceMoments,
    block_references,
    propagate_span,
    pump_trace,
    run_spans,
    sample_state_array,
    synthesize_moments,
    variance_scan,
)
from .fields import QuadraturePair
from .medium import polarization_values, require_alias_free
from .oracle import PassGain, map_state

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


def figure_state(name: str, cfg: RunConfig) -> GaussianState:
    """The Gaussian state displayed by a fig1 panel."""
    convention = cfg.convention()
    if name == "fig1a":
        return GaussianState.vacuum(convention)
    if name == "fig1c":
        return GaussianState.coherent(_displacement(cfg), convention)
    gain = PassGain(cfg.pump_ratio, cfg.mode)
    if name == "fig1b":
        return map_state(GaussianState.vacuum(convention), gain, cfg.pump_phase)
    if name == "fig1d":
        return map_state(
            GaussianState.coherent(_displacement(cfg), convention),
            gain,
            cfg.pump_phase + math.pi,
        )
    if name == "fig1e":
        return map_state(
            GaussianState.coherent(_displacement(cfg), convention),
            gain,
            cfg.pump_phase,
        )
    raise ValueError(f"unknown figure state {name!r}")


def _displacement(cfg: RunConfig) -> QuadraturePair:
    if cfg.A == 0.0:
        raise ValueError(
            "this figure needs a coherent input: set a non-zero amplitude A"
        )
    return QuadraturePair.from_amplitude_phase(cfg.A, cfg.phi)


def emit_figure(name: str, cfg: RunConfig, workers: int = 1) -> list[FigureTable]:
    """Build all tables for one figure."""
    if name not in FIGURE_NAMES:
        raise ValueError(f"unknown figure {name!r} (expected one of {FIGURE_NAMES})")
    if name.startswith("fig1"):
        return [_state_trace_table(name, cfg, workers)]
    return _pipeline_tables(name, cfg, workers)


def _envelope_columns(times: np.ndarray, sums: np.ndarray, n: int, band_sigma: float):
    """Mean, std and band of n traces from their (sum, sum of squares) rows."""
    total1, total2 = sums
    mean = total1 / n
    var = np.maximum((total2 - total1 * total1 / n) / (n - 1), 0.0)
    std = np.sqrt(var)
    return (times, mean, std, mean - band_sigma * std, mean + band_sigma * std)


_TRACE_HEADER = ("t", "mean", "std", "lower", "upper")


def _state_trace_table(name: str, cfg: RunConfig, workers: int) -> FigureTable:
    state = figure_state(name, cfg)
    grid = cfg.grid()
    ens = cfg.ensemble()
    refs = block_references(np.zeros(grid.n_samples), grid, ens.n_realizations)

    def work(start, count):
        pairs = sample_state_array(state, ens, start, count)
        return synthesize_moments(pairs, *refs).sums

    sums = reduce(np.add, run_spans(work, ens.n_realizations, workers))
    columns = _envelope_columns(grid.times(), sums, ens.n_realizations, cfg.band_sigma)
    return FigureTable(name, _TRACE_HEADER, columns)


def _pipeline_tables(name: str, cfg: RunConfig, workers: int) -> list[FigureTable]:
    grid = cfg.grid()
    ens = cfg.ensemble()
    convention = cfg.convention()
    if name == "fig2":
        state = GaussianState.vacuum(convention)
    else:
        # fundamental extrema on the pump minima: phi = 0 by construction
        if cfg.A == 0.0:
            raise ValueError("fig3 needs a coherent input: set a non-zero amplitude A")
        state = GaussianState.coherent(QuadraturePair(cfg.A, 0.0), convention)

    require_alias_free(grid, cfg.medium)
    n = ens.n_realizations
    refs = block_references(pump_trace(cfg.B, cfg.pump_phase, grid), grid, n)
    out_pairs = np.empty((n, 2))

    def work(start, count):
        pairs = sample_state_array(state, ens, start, count)
        inputs, outputs = TraceMoments(), TraceMoments()
        rows = out_pairs[start : start + count]
        propagate_span(pairs, *refs, cfg.medium, rows, (inputs, outputs))
        return np.concatenate((inputs.sums, outputs.sums))

    sums = reduce(np.add, run_spans(work, n, workers))
    times = grid.times()
    input_cols = _envelope_columns(times, sums[:2], n, cfg.band_sigma)
    output_cols = _envelope_columns(times, sums[2:], n, cfg.band_sigma)

    thetas = np.linspace(0.0, 2.0 * math.pi, 2 * cfg.thetas - 1)
    scan = variance_scan(out_pairs, thetas)
    with np.errstate(divide="ignore"):
        squeeze_db = 10.0 * np.log10(scan.variances / convention.var_zp)

    e_max = abs(cfg.A) + abs(cfg.B) + 4.0 * math.sqrt(convention.var_zp)
    e_axis = np.linspace(-e_max, e_max, CHARACTERISTIC_POINTS)
    p_axis = polarization_values(e_axis, cfg.medium)

    return [
        FigureTable(f"{name}_input", _TRACE_HEADER, input_cols),
        FigureTable(f"{name}_characteristic", ("field", "polarization"), (e_axis, p_axis)),
        FigureTable(f"{name}_output", _TRACE_HEADER, output_cols),
        FigureTable(
            f"{name}_scan",
            ("theta_deg", "variance", "mean", "squeeze_db"),
            (np.degrees(scan.thetas), scan.variances, scan.means, squeeze_db),
        ),
    ]
