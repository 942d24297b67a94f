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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .ensemble import (
    CHUNK,
    GaussianState,
    fundamental_references,
    lockin_rows,
    pump_trace,
    sample_state_array,
    synthesize_rows,
    variance_scan,
)
from .fields import QuadraturePair
from .medium import polarization_values, transfer_values
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


def _chunk_starts(n: int) -> list[tuple[int, int]]:
    return [(start, min(CHUNK, n - start)) for start in range(0, n, CHUNK)]


def _accumulate(chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray | None]]):
    """Combine ordered per-chunk partial sums; order is fixed by chunk index."""
    total1 = chunks[0][0].copy()
    total2 = chunks[0][1].copy()
    pair_blocks = []
    for s1, s2, pairs in chunks:
        if pairs is not None:
            pair_blocks.append(pairs)
    for s1, s2, _ in chunks[1:]:
        total1 += s1
        total2 += s2
    return total1, total2, pair_blocks


def _run_chunks(worker_fn, starts, workers: int):
    if workers > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(worker_fn, starts))
    return [worker_fn(span) for span in starts]


def _envelope_columns(
    times: np.ndarray, total1: np.ndarray, total2: np.ndarray, n: int, band_sigma: float
):
    mean = total1 / n
    var = np.maximum((total2 - total1 * total1 / n) / (n - 1), 0.0)
    std = np.sqrt(var)
    return (times, mean, std, mean - band_sigma * std, mean + band_sigma * std)


_TRACE_HEADER = ("t", "mean", "std", "lower", "upper")


def _state_trace_table(name: str, cfg: RunConfig, workers: int) -> FigureTable:
    state = figure_state(name, cfg)
    grid = cfg.grid()
    ens = cfg.ensemble()
    cos1, sin1 = fundamental_references(grid)
    zero_pump = np.zeros(grid.n_samples)

    def work(span):
        start, count = span
        pairs = sample_state_array(state, ens, start, count)
        traces = synthesize_rows(pairs, zero_pump, cos1, sin1)
        return traces.sum(axis=0), (traces * traces).sum(axis=0), None

    chunks = _run_chunks(work, _chunk_starts(ens.n_realizations), workers)
    total1, total2, _ = _accumulate(chunks)
    columns = _envelope_columns(
        grid.times(), total1, total2, ens.n_realizations, cfg.band_sigma
    )
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

    cos1, sin1 = fundamental_references(grid)
    pump = pump_trace(cfg.B, cfg.pump_phase, grid)

    def work(span):
        start, count = span
        pairs = sample_state_array(state, ens, start, count)
        e_in = synthesize_rows(pairs, pump, cos1, sin1)
        out = transfer_values(e_in, cfg.medium)
        out_pairs = lockin_rows(out, cos1, sin1, grid.n_samples)
        return (
            np.concatenate((e_in.sum(axis=0), out.sum(axis=0))),
            np.concatenate(((e_in * e_in).sum(axis=0), (out * out).sum(axis=0))),
            out_pairs,
        )

    chunks = _run_chunks(work, _chunk_starts(ens.n_realizations), workers)
    total1, total2, pair_blocks = _accumulate(chunks)
    n_samples = grid.n_samples
    n = ens.n_realizations
    times = grid.times()
    input_cols = _envelope_columns(
        times, total1[:n_samples], total2[:n_samples], n, cfg.band_sigma
    )
    output_cols = _envelope_columns(
        times, total1[n_samples:], total2[n_samples:], n, cfg.band_sigma
    )
    out_pairs = np.concatenate(pair_blocks, axis=0)

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
