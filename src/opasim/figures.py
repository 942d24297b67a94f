"""Plot-ready data for the illustration figures.

Every figure is emitted as one or more CSV tables. Time-domain tables
carry the ensemble-mean trace plus a mean +- band_sigma*std envelope.
Each is built on one fundamental period of the configured grid and
repeated over its periods (:func:`_trace_table`): the field, the pump
and the memoryless medium's response repeat every period.
An input band is the ensemble's sample covariance (n-1 divisor)
projected at theta = omega*t, which is algebraically the pointwise
sample variance of the input traces, so no input trace is synthesized
for it. An output band (fig2, fig3) is likewise the pointwise sample
mean and variance of the output traces, computed without them: the
medium is a polynomial of degree d, so each output trace less the
noiseless output is a polynomial in the input's deviation from the
noiseless input, and its pointwise sums follow exactly from the pairs'
power sums up to degree 2d (see :func:`_output_band`). Every figure
reads its ensemble through the span loop that ``scan`` runs,
:func:`~opasim.ensemble.channel_sums`: fig1 sends the pairs through the
identity, fig2/fig3 through the pumped medium on one period of the
smallest alias-free grid, and each span's output pairs are summed about
the noiseless output pair, so a bright state keeps its output variance
in the fundamental-bin scan.

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
from dataclasses import dataclass, replace

import numpy as np

from .config import RunConfig
from .ensemble import (
    GaussianState,
    QuadratureScan,
    VacuumConvention,
    channel_sums,
    medium_channel,
    pump_trace,
    sums_scan,
    synthesize_rows,
)
from .fields import QuadraturePair, TimeGrid
from .medium import (
    polarization_values,
    polynomial_degree,
    transfer_taylor,
    transfer_values,
)
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


def emit_figure(name: str, cfg: RunConfig) -> list[FigureTable]:
    """Build all tables for one figure."""
    if name not in FIGURE_NAMES:
        raise ValueError(f"unknown figure {name!r} (expected one of {FIGURE_NAMES})")
    period = replace(cfg.grid(), n_periods=1)
    if name.startswith("fig1"):
        # the state itself: its pairs through the identity channel
        state = figure_state(name, cfg)
        sums, center = channel_sums(state, cfg.ensemble(), lambda pairs: pairs)
        band = sums_scan(sums, cfg.n_realizations, center, period.phases())
        return [_trace_table(name, cfg, band.means, band.variances)]
    return _pipeline_tables(name, cfg, period)


def _trace_table(name: str, cfg: RunConfig, mean, var) -> FigureTable:
    """t, mean, std and the mean -+ band_sigma*std band over the configured grid.

    ``mean`` and ``var`` cover one period, which every period repeats.
    """
    grid = cfg.grid()
    mean, var = np.tile((mean, var), grid.n_periods)
    std = np.sqrt(var)
    band = cfg.band_sigma * std
    columns = (grid.times(), mean, std, mean - band, mean + band)
    return FigureTable(name, ("t", "mean", "std", "lower", "upper"), columns)


def _pipeline_tables(name: str, cfg: RunConfig, period: TimeGrid) -> list[FigureTable]:
    PassGain(cfg.pump_ratio, cfg.mode)  # the threshold check every subcommand makes
    state = figure_state(name, cfg)
    convention = cfg.convention()
    n = cfg.n_realizations
    center = state.mean.as_array()
    # the output band reads the pairs' power sums up to twice the medium's degree
    degree = 2 * polynomial_degree(cfg.medium)
    channel = medium_channel(cfg.B, cfg.pump_phase, cfg.medium, period)
    sums, out_center = channel_sums(state, cfg.ensemble(), channel, degree)
    in_sums, out_sums = np.split(sums, [len(sums) - 5])
    band = sums_scan(in_sums[:5], n, center, period.phases())
    pump = pump_trace(cfg.B, cfg.pump_phase, period)

    thetas = np.linspace(0.0, 2.0 * math.pi, 2 * cfg.thetas - 1)
    scan = sums_scan(out_sums, n, out_center, thetas)

    e_max = abs(cfg.A) + abs(cfg.B) + 4.0 * math.sqrt(convention.var_zp)
    e_axis = np.linspace(-e_max, e_max, CHARACTERISTIC_POINTS)
    p_axis = polarization_values(e_axis, cfg.medium)

    return [
        _trace_table(f"{name}_input", cfg, band.means + pump, band.variances),
        FigureTable(f"{name}_characteristic", ("field", "polarization"), (e_axis, p_axis)),
        _trace_table(f"{name}_output", cfg, *_output_band(in_sums, n, center, cfg, period)),
        scan_table(f"{name}_scan", scan, convention),
    ]


def _output_band(
    power_sums: np.ndarray, n: int, center: np.ndarray, cfg: RunConfig, period: TimeGrid
):
    """Pointwise mean and variance of the output traces over one period.

    An input trace is E0 + delta, with E0 the noiseless input (the center
    pair plus the pump) and delta = y1*cos + y2*sin for y = pair - center.
    The medium is a polynomial of degree d, so its output less the
    noiseless output f(E0) is exactly y = sum_k a_k*delta^k
    (:func:`transfer_taylor`). Hence sum y = sum_k a_k*M_k and
    sum y^2 = sum_{k,l} a_k*a_l*M_{k+l}, where M_m = sum_i delta_i^m
    expands into the pairs' power sums T[p, m-p]
    (:func:`~opasim.ensemble.pair_sums` of degree 2d) with binomial
    weights. No output trace is synthesized, and about f(E0) the sums of
    squares of bright traces do not cancel.
    """
    cos1, sin1 = period.harmonic(1)
    pump = pump_trace(cfg.B, cfg.pump_phase, period)
    e0 = synthesize_rows(center[None], pump, cos1, sin1)[:, 0]
    a = transfer_taylor(e0, cfg.medium)
    d = len(a)
    moments = []  # M_1 .. M_2d
    offset = 0
    for m in range(1, 2 * d + 1):
        # T[p, m-p] for p = m..0 follow the sums of every lower degree
        terms = (
            math.comb(m, p) * cos1**p * sin1 ** (m - p) * power_sums[offset + m - p]
            for p in range(m + 1)
        )
        moments.append(sum(terms))
        offset += m + 1
    total = sum(a[k] * moments[k] for k in range(d))
    squares = sum(a[k] * a[l] * moments[k + l + 1] for k in range(d) for l in range(d))
    var = np.maximum((squares - total * total / n) / (n - 1), 0.0)
    return transfer_values(e0, cfg.medium) + total / n, var
