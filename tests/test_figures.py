import math

import numpy as np
import pytest

from opasim.config import RunConfig, with_overrides
from opasim.ensemble import (
    CHUNK,
    pump_trace,
    sample_state_array,
    synthesize_rows,
    variance_scan,
)
from opasim.figures import FIGURE_NAMES, emit_figure, figure_state, scan_table
from opasim.fields import TimeSeries
from opasim.medium import transfer_values
from opasim.spectral import lockin_extract


def small_cfg(**overrides):
    base = with_overrides(RunConfig(), n_realizations=20_000, seed=4242)
    return with_overrides(base, **overrides) if overrides else base


class TestFigureStates:
    def test_vacuum_panel(self):
        state = figure_state("fig1a", small_cfg())
        assert np.array_equal(state.cov, np.eye(2))

    def test_squeezed_vacuum_panel(self):
        state = figure_state("fig1b", small_cfg())  # r = 0.5 raw by default
        np.testing.assert_allclose(np.diag(state.cov), [0.25, 2.25], atol=1e-14)

    def test_coherent_panel_needs_displacement(self):
        with pytest.raises(ValueError, match="coherent"):
            figure_state("fig1c", small_cfg())
        state = figure_state("fig1c", small_cfg(A=3.0))
        assert state.mean.x1 == pytest.approx(3.0)
        assert np.array_equal(state.cov, np.eye(2))

    def test_pipeline_inputs(self):
        assert np.array_equal(figure_state("fig2", small_cfg()).cov, np.eye(2))
        with pytest.raises(ValueError, match="coherent"):
            figure_state("fig3", small_cfg())
        # phi = 0 exactly: a +0.0 sine quadrature, not the -0.0 of -A*sin(0)
        mean = figure_state("fig3", small_cfg(A=3.0)).mean.as_array()
        assert np.array_equal(mean.view(np.uint64), np.array([3.0, 0.0]).view(np.uint64))

    def test_bright_panels_squeeze_opposite_quadratures(self):
        amp = figure_state("fig1e", small_cfg(A=3.0))
        phase = figure_state("fig1d", small_cfg(A=3.0))
        # amplitude squeezed: displacement deamplified, x1 noise squeezed
        assert amp.mean.x1 == pytest.approx(1.5)
        assert amp.cov[0, 0] < 1.0 < amp.cov[1, 1]
        # phase squeezed: displacement amplified, x2 noise squeezed
        assert phase.mean.x1 == pytest.approx(4.5, abs=1e-12)
        assert phase.cov[1, 1] < 1.0 < phase.cov[0, 0]

    def test_symplectic_mode_keeps_unit_determinant(self):
        state = figure_state("fig1b", small_cfg(mode="symplectic"))
        assert np.linalg.det(state.cov) == pytest.approx(1.0, abs=1e-12)


class TestStateTraces:
    def test_vacuum_envelope_is_flat(self):
        cfg = small_cfg()
        (table,) = emit_figure("fig1a", cfg)
        assert table.name == "fig1a"
        assert table.header == ("t", "mean", "std", "lower", "upper")
        t, mean, std, lower, upper = table.columns
        assert len(t) == cfg.grid().n_samples
        n = cfg.n_realizations
        bound = 4.0 / math.sqrt(n)
        assert np.max(np.abs(mean)) < bound * 3
        # half-width ~ sqrt(var_zp) uniformly in t
        assert np.max(np.abs(std - 1.0)) < 4.0 * math.sqrt(2.0 / n) * 2
        np.testing.assert_allclose(upper - mean, mean - lower, atol=1e-12)

    def test_band_sigma_scales_envelope(self):
        cfg = small_cfg(band_sigma=2.0)
        (table,) = emit_figure("fig1a", cfg)
        _, mean, std, lower, upper = table.columns
        np.testing.assert_allclose(upper, mean + 2.0 * std, atol=1e-12)


INPUT_VARIANTS = {
    "defaults": {},
    "kerr": {"chi3": 0.05},
    "pump-phase-37": {"pump_phase_deg": 37.0},
    "symplectic": {"mode": "symplectic"},
}


@pytest.mark.parametrize("variant", list(INPUT_VARIANTS))
@pytest.mark.parametrize("name", FIGURE_NAMES)
def test_input_band_matches_synthesized_traces(name, variant):
    # the band comes from the pairs' moments; here the traces are built
    # and their pointwise statistics taken directly
    cfg = small_cfg(n_realizations=2 * CHUNK + 1, A=3.0, **INPUT_VARIANTS[variant])
    _, mean, std, _, _ = emit_figure(name, cfg)[0].columns
    grid = cfg.grid()
    pairs = sample_state_array(figure_state(name, cfg), cfg.ensemble())
    cos1, sin1 = grid.harmonic(1)
    traces = pairs[:, 0:1] * cos1 + pairs[:, 1:2] * sin1
    if not name.startswith("fig1"):
        traces += pump_trace(cfg.B, cfg.pump_phase, grid)
    want_mean = traces.mean(axis=0)
    bound = 1e-13 * np.maximum(1.0, np.abs(want_mean))
    assert np.all(np.abs(mean - want_mean) <= bound)
    assert np.all(np.abs(std - traces.std(axis=0, ddof=1)) <= bound)


@pytest.mark.parametrize("name", ["fig1c", "fig1d", "fig1e", "fig3"])
def test_bright_input_band_keeps_its_variance(name):
    # raw sums of squares at A = 1e8 cancel to a std anywhere in [0, 1)
    cfg = small_cfg(n_realizations=2 * CHUNK + 1, A=1e8)
    _, _, std, _, _ = emit_figure(name, cfg)[0].columns
    pairs = sample_state_array(figure_state(name, cfg), cfg.ensemble())
    centred = pairs - pairs.mean(axis=0)
    cov = centred.T @ centred / (len(pairs) - 1)
    u = np.stack(cfg.grid().harmonic(1))
    want = np.sqrt(np.einsum("it,ij,jt->t", u, cov, u))
    assert np.max(np.abs(std - want)) <= 1e-6


def test_bright_output_band_keeps_its_variance():
    # raw trace sums of squares at A = 1e8 cancel to a std of 0.0 at some times
    cfg = small_cfg(n_realizations=2 * CHUNK + 1, A=1e8)
    _, _, std, _, _ = emit_figure("fig3", cfg)[2].columns
    grid = cfg.grid()
    pairs = sample_state_array(figure_state("fig3", cfg), cfg.ensemble())
    pump = pump_trace(cfg.B, cfg.pump_phase, grid)
    traces = transfer_values(synthesize_rows(pairs, pump, *grid.harmonic(1)), cfg.medium)
    want = traces.std(axis=1, ddof=1)
    assert np.max(np.abs(std - want) / want) <= 1e-6


@pytest.mark.parametrize(
    "name,overrides",
    [(name, {"A": 3.0, "chi3": 0.05}) for name in FIGURE_NAMES]
    + [("fig3", {"A": 1e4, "chi3": 0.01})],
    ids=[*FIGURE_NAMES, "fig3-bright-kerr"],
)
def test_output_periods_repeat_the_first(name, overrides):
    # every time-domain table (fig1, *_input, *_output) is one period tiled
    cfg = small_cfg(n_realizations=2 * CHUNK + 1, **overrides)
    grid = cfg.grid()
    tables = [table for table in emit_figure(name, cfg) if table.header[0] == "t"]
    assert len(tables) == (1 if name.startswith("fig1") else 2)
    for table in tables:
        _, *columns = table.columns
        for column in columns:
            periods = column.view(np.uint64).reshape(grid.n_periods, -1)
            assert np.array_equal(periods, np.tile(periods[0], (grid.n_periods, 1)))


def traced_outputs(name, cfg, dtype=np.float64, columns=16):
    """Pointwise mean and variance of the output traces, and their k = 1 pairs.

    Every realization's trace is synthesized over every period of the grid
    in ``dtype`` and sent through the medium, a block of ``columns`` sample
    times at a time; the statistics are np.mean and np.var(ddof=1).
    """
    grid = cfg.grid()
    pairs = sample_state_array(figure_state(name, cfg), cfg.ensemble()).astype(dtype)
    pump = pump_trace(cfg.B, cfg.pump_phase, grid)
    cos1, sin1 = grid.harmonic(1)
    means, variances = [], []
    lockin = np.zeros(pairs.shape, dtype)
    for lo in range(0, grid.n_samples, columns):
        cos_b, sin_b, pump_b = (row[lo : lo + columns].astype(dtype) for row in (cos1, sin1, pump))
        traces = transfer_values(pairs[:, 0:1] * cos_b + pairs[:, 1:2] * sin_b + pump_b, cfg.medium)
        means.append(np.mean(traces, axis=0))
        variances.append(np.var(traces, axis=0, ddof=1))
        lockin[:, 0] += (traces * cos_b).sum(axis=1)
        lockin[:, 1] += (traces * sin_b).sum(axis=1)
    lockin *= 2.0 / grid.n_samples
    return np.concatenate(means), np.concatenate(variances), lockin


def assert_close(got_columns, want_columns, rel=1e-13):
    for column, want_column in zip(got_columns, want_columns, strict=True):
        bound = rel * np.maximum(1.0, np.abs(want_column))
        assert np.all(np.abs(column - want_column) <= bound)


@pytest.mark.parametrize("chi3", [0.0, 0.05])
@pytest.mark.parametrize("name", ["fig2", "fig3"])
def test_output_tables_match_every_period_traced(name, chi3):
    # the tables come from one period's power sums; here every period of
    # the grid is traced
    cfg = small_cfg(n_realizations=2 * CHUNK + 1, A=3.0, chi3=chi3)
    mean, var, out = traced_outputs(name, cfg)
    std = np.sqrt(var)
    band = cfg.band_sigma * std
    thetas = np.linspace(0.0, 2.0 * math.pi, 2 * cfg.thetas - 1)
    scan = scan_table("scan", variance_scan(out, thetas), cfg.convention())
    output, scan_got = emit_figure(name, cfg)[2:]
    assert_close(output.columns, (cfg.grid().times(), mean, std, mean - band, mean + band))
    assert_close(scan_got.columns, scan.columns)


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
    reason="numpy's longdouble has no extra precision on this platform",
)
@pytest.mark.parametrize("amplitude", [1e4, 1e6])
def test_bright_kerr_output_band_matches_a_long_double_reference(amplitude):
    # traces of 1e10 (A = 1e4) to 1e16 (A = 1e6): a float64 f(E) less f(E0)
    # per trace left the std 1.7e-14 to 8.6e-13 off; the power sums take no
    # such difference
    cfg = small_cfg(A=amplitude, chi3=0.01)
    mean, var, _ = traced_outputs("fig3", cfg, np.longdouble)
    std = np.sqrt(var)
    band = cfg.band_sigma * std
    want = [column.astype(np.float64) for column in (mean, std, mean - band, mean + band)]
    _, *columns = emit_figure("fig3", cfg)[2].columns
    assert_close(columns, want)


class TestPipelineFigures:
    def test_bundle_contents(self):
        tables = emit_figure("fig2", small_cfg())
        names = [t.name for t in tables]
        assert names == ["fig2_input", "fig2_characteristic", "fig2_output", "fig2_scan"]

    def test_characteristic_curve_is_the_medium_polynomial(self):
        cfg = small_cfg()
        tables = {t.name: t for t in emit_figure("fig2", cfg)}
        e, p = tables["fig2_characteristic"].columns
        m = cfg.medium
        np.testing.assert_allclose(
            p, m.eps0 * (m.chi1 * e + m.chi2 * e**2 + m.chi3 * e**3), rtol=1e-12
        )

    def test_input_envelope_tracks_pump(self):
        cfg = small_cfg()
        tables = {t.name: t for t in emit_figure("fig2", cfg)}
        t, mean, std, _, _ = tables["fig2_input"].columns
        grid = cfg.grid()
        pump = -cfg.B * np.cos(2.0 * grid.phases())
        assert np.max(np.abs(mean - pump)) < 0.05
        assert np.max(np.abs(std - 1.0)) < 0.05

    def test_output_envelope_oscillates_at_twice_the_fundamental(self):
        cfg = small_cfg()
        tables = {t.name: t for t in emit_figure("fig2", cfg)}
        _, _, std, _, _ = tables["fig2_output"].columns
        squared = TimeSeries(cfg.grid(), std**2)
        mags = [lockin_extract(squared, k).magnitude for k in range(9)]
        assert int(np.argmax(mags[1:])) + 1 == 2

    def test_scan_covers_two_pi(self):
        cfg = small_cfg()
        tables = {t.name: t for t in emit_figure("fig2", cfg)}
        theta_deg = tables["fig2_scan"].columns[0]
        assert len(theta_deg) == 2 * cfg.thetas - 1
        assert theta_deg[0] == 0.0
        assert theta_deg[-1] == pytest.approx(360.0)

    def test_fig3_scan_shows_amplitude_squeezing(self):
        cfg = small_cfg(A=3.0)
        tables = {t.name: t for t in emit_figure("fig3", cfg)}
        theta_deg, variance, mean, _ = tables["fig3_scan"].columns
        # displacement deamplified to (1-r)*A at theta = 0
        assert mean[0] == pytest.approx(1.5, abs=0.05)
        assert variance[np.argmin(np.abs(theta_deg - 0.0))] < 0.3
        assert variance[np.argmin(np.abs(theta_deg - 90.0))] > 2.0

    def test_fig3_pump_flip_swaps_squeezing_axis(self):
        base = {t.name: t for t in emit_figure("fig3", small_cfg(A=3.0))}
        flip = {
            t.name: t
            for t in emit_figure("fig3", small_cfg(A=3.0, pump_phase_deg=180.0))
        }
        theta_deg, var_base, mean_base, _ = base["fig3_scan"].columns
        _, var_flip, mean_flip, _ = flip["fig3_scan"].columns
        i0 = int(np.argmin(np.abs(theta_deg - 0.0)))
        i90 = int(np.argmin(np.abs(theta_deg - 90.0)))
        assert var_base[i0] < 0.3 and var_base[i90] > 2.0
        assert var_flip[i90] < 0.3 and var_flip[i0] > 2.0
        # displacement amplified in the flipped configuration
        assert mean_flip[i0] == pytest.approx(4.5, abs=0.05)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown figure"):
            emit_figure("fig9", small_cfg())
        assert "fig9" not in FIGURE_NAMES
