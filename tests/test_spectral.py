import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opasim.fields import (
    HarmonicComponent,
    TimeGrid,
    TimeSeries,
    pump_carrier,
    synthesize,
)
from opasim.medium import SusceptibilityProfile, polarization_values
from opasim.spectral import (
    lines_mean_square,
    lockin_extract,
    predict_spectrum,
    pumped_spectrum,
    spectrum_rows,
)

GRID = TimeGrid(64, 4)

amplitudes = st.floats(-5, 5, allow_nan=False, allow_infinity=False)


def polarized(series, medium):
    """The medium's polarization of a sampled field, as a series."""
    return TimeSeries(series.grid, polarization_values(series.values, medium))


def lines(series, k_max):
    """Bins k = 0..k_max of a series, one lock-in per bin."""
    return [lockin_extract(series, k) for k in range(k_max + 1)]


def random_series(rng, grid, k_max):
    comps = [HarmonicComponent(0, float(rng.uniform(-2, 2)))]
    comps += [
        HarmonicComponent(k, float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
        for k in range(1, k_max + 1)
    ]
    return comps, synthesize(comps, grid)


class TestLockin:
    def test_pure_cosine_extracts_exactly(self):
        series = synthesize([HarmonicComponent(1, 1.0, 0.0)], GRID)
        comp = lockin_extract(series, 1)
        assert comp.c == pytest.approx(1.0, abs=1e-15)
        assert comp.s == pytest.approx(0.0, abs=1e-15)

    def test_second_order_cross_term(self):
        # pure chi2 response of A*cos(wt) - B*cos(2wt) with A = B = 1:
        # the omega line is -AB*cos(wt - phi), at phi = 0 just -cos(wt)
        medium = SusceptibilityProfile(chi1=0.0, chi2=1.0)
        series = synthesize(
            [HarmonicComponent(1, 1.0, 0.0), pump_carrier(1.0)], GRID
        )
        out = polarized(series, medium)
        comp = lockin_extract(out, 1)
        assert comp.c == pytest.approx(-1.0, abs=1e-12)
        assert comp.s == pytest.approx(0.0, abs=1e-12)
        # and the 4-omega line is B^2/2 * cos(4wt)
        k4 = lockin_extract(out, 4)
        assert k4.c == pytest.approx(0.5, abs=1e-12)
        assert k4.s == pytest.approx(0.0, abs=1e-12)

    def test_rejects_aliasing_order(self):
        series = TimeSeries(TimeGrid(8, 2), np.zeros(16))
        with pytest.raises(ValueError, match="alias"):
            lockin_extract(series, 4)
        with pytest.raises(ValueError):
            lockin_extract(series, -1)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 31))
    def test_single_line_round_trip(self, k):
        comp_in = HarmonicComponent(k, 0.8, 0.6 if k else 0.0)
        series = synthesize([comp_in], GRID)
        comp = lockin_extract(series, k)
        assert abs(comp.c - comp_in.c) <= 1e-12
        assert abs(comp.s - comp_in.s) <= 1e-12

    def test_round_trip_all_bins(self):
        rng = np.random.default_rng(11)
        comps, series = random_series(rng, GRID, GRID.max_harmonic())
        for comp in comps:
            got = lockin_extract(series, comp.k)
            assert abs(got.c - comp.c) <= 1e-12
            assert abs(got.s - comp.s) <= 1e-12

    @pytest.mark.parametrize(
        "grid",
        [GRID, TimeGrid(9, 3), TimeGrid(200, 1), TimeGrid(9, 1), TimeGrid(127, 3)],
        ids=lambda g: f"{g.samples_per_period}x{g.n_periods}",
    )
    def test_bins_equal_the_plain_projection_bit_for_bit(self, grid):
        # the one-row lock-in and the stacked spectrum must add the products
        # in the same order as a sum over the series itself
        rng = np.random.default_rng(13)
        _, series = random_series(rng, grid, grid.max_harmonic())
        values = series.values * 1e3 + rng.normal(size=grid.n_samples)
        series = TimeSeries(grid, values)
        scale = 2.0 / grid.n_samples
        k_max = grid.max_harmonic()
        for k in range(1, k_max + 1):
            phases = k * grid.phases()
            got = lockin_extract(series, k)
            assert got.c == scale * float(np.sum(values * np.cos(phases)))
            assert got.s == scale * float(np.sum(values * np.sin(phases)))
        column = spectrum_rows(np.array(values)[:, None], grid, k_max)[0]
        assert column.tolist() == [[comp.c, comp.s] for comp in lines(series, k_max)]
        # blocks of 1 to 128 columns, over 16 decades, with -0.0 entries
        # and an all -0.0 column: every column is its own projection
        n = grid.n_samples
        for width in (1, 2, 25, 128):
            block = rng.normal(size=(n, width)) * 10.0 ** rng.integers(-8, 8, (n, width))
            block[::7, 0] = -0.0
            block[:, 1::5] = -0.0
            want = np.array(
                [
                    [(np.mean(column), 0.0)]
                    + [
                        (
                            scale * np.sum(column * np.cos(k * grid.phases())),
                            scale * np.sum(column * np.sin(k * grid.phases())),
                        )
                        for k in range(1, k_max + 1)
                    ]
                    for column in block.T
                ]
            )
            got = spectrum_rows(block.copy(), grid, k_max)
            assert got.tobytes() == want.tobytes()

    def test_phase_covariance_under_delay(self):
        # delaying by tau advances bin k's phase by k*omega*tau; an
        # eighth-period delay is an exact 8-sample roll on this grid
        rng = np.random.default_rng(12)
        comps, series = random_series(rng, GRID, 6)
        shift = GRID.samples_per_period // 8
        delayed = TimeSeries(GRID, np.roll(series.values, shift))
        tau_phase = 2.0 * math.pi / 8.0
        for k in range(1, 7):
            before = lockin_extract(series, k)
            after = lockin_extract(delayed, k)
            expected = before.phase + k * tau_phase
            assert math.cos(after.phase) == pytest.approx(
                math.cos(expected), abs=1e-9
            )
            assert math.sin(after.phase) == pytest.approx(
                math.sin(expected), abs=1e-9
            )


class TestFullSpectrum:
    def test_zero_series(self):
        spectrum = lines(TimeSeries(GRID, np.zeros(GRID.n_samples)), 6)
        for comp in spectrum:
            assert comp.c == 0.0 and comp.s == 0.0

    def test_pump_only_quadratic_lines(self):
        # B = 2 through a pure quadratic medium: DC and 4-omega at B^2/2 = 2
        medium = SusceptibilityProfile(chi1=0.0, chi2=1.0)
        series = synthesize([pump_carrier(2.0)], GRID)
        spectrum = lines(polarized(series, medium), 6)
        assert spectrum[0].c == pytest.approx(2.0, abs=1e-12)
        assert spectrum[4].magnitude == pytest.approx(2.0, abs=1e-12)
        for k in (1, 3, 5, 6):
            assert spectrum[k].magnitude == pytest.approx(0.0, abs=1e-12)

    def test_parseval(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            _, series = random_series(rng, GRID, GRID.max_harmonic())
            spectrum = lines(series, GRID.max_harmonic())
            ms = float(np.mean(series.values**2))
            power = lines_mean_square([(comp.c, comp.s) for comp in spectrum])
            assert power == pytest.approx(ms, rel=1e-10)

    def test_band_limit_of_quadratic_response(self):
        medium = SusceptibilityProfile(chi1=1.0, chi2=0.8)
        series = synthesize(
            [HarmonicComponent(1, 1.0, -0.4), pump_carrier(1.3)], GRID
        )
        spectrum = lines(polarized(series, medium), 10)
        for k in range(5, 11):
            assert spectrum[k].magnitude < 1e-12


def predicted(a, b, phi, chi1, chi2):
    """predict_spectrum's lines as components, k = 0..4."""
    return [
        HarmonicComponent(k, c, s)
        for k, (c, s) in enumerate(predict_spectrum(a, b, phi, chi1, chi2))
    ]


def row(x):
    return np.array([x])


class TestPredictSpectrum:
    def test_pump_only(self):
        spectrum = predicted(0.0, 2.0, 0.0, 1.0, 0.6)
        assert spectrum[0].c == pytest.approx(0.5 * 0.6 * 4.0)
        assert spectrum[2].c == pytest.approx(-2.0)
        assert spectrum[4].c == pytest.approx(0.5 * 0.6 * 4.0)
        assert spectrum[1].magnitude == 0.0
        assert spectrum[3].magnitude == 0.0

    def test_fundamental_only(self):
        spectrum = predicted(1.0, 0.0, 0.0, 1.0, 1.0)
        assert spectrum[0].c == pytest.approx(0.5)
        assert spectrum[1].c == pytest.approx(1.0)
        assert spectrum[2].c == pytest.approx(0.5)

    def test_full_deamplification_point(self):
        # chi1*A = chi2*A*B: the omega bin interferes to zero
        spectrum = predicted(1.0, 1.0, 0.0, 1.0, 1.0)
        assert spectrum[1].magnitude == pytest.approx(0.0, abs=1e-15)

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(0, 2),
        st.floats(0, 2),
        st.floats(0, 2 * math.pi),
        st.floats(0.5, 2),
        st.floats(-1, 1),
        st.floats(0.5, 2),
    )
    def test_matches_numeric_pipeline(self, a, b, phi, chi1, chi2, eps0):
        numeric = pumped_spectrum(
            row(a), row(b), row(phi), 0.0, row(chi1), row(chi2), row(eps0), GRID, 4
        )[0]
        for num, pred in zip(numeric.tolist(), predict_spectrum(a, b, phi, chi1, chi2)):
            for got, want in zip(num, pred):
                if want == 0.0:
                    assert abs(got) <= 1e-12
                else:
                    assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


class TestPumpedSpectrum:
    @pytest.mark.parametrize(
        "grid",
        [GRID, TimeGrid(9, 1), TimeGrid(127, 3)],
        ids=lambda g: f"{g.samples_per_period}x{g.n_periods}",
    )
    @pytest.mark.parametrize("pump_phase", [0.0, 0.7, math.radians(360.0)])
    def test_each_draw_has_the_bits_of_its_scalar_pipeline(self, grid, pump_phase):
        # a block of draws against synthesize, the polarization and one
        # lock-in per bin on each draw alone, over eps0
        rng = np.random.default_rng(17)
        m = 25
        a, b = rng.uniform(0.0, 2.0, (2, m))
        phi = rng.uniform(0.0, 2.0 * math.pi, m)
        chi1, eps0 = rng.uniform(0.5, 2.0, (2, m))
        chi2 = rng.uniform(-1.0, 1.0, m)
        k_max = grid.max_harmonic()
        got = pumped_spectrum(a, b, phi, pump_phase, chi1, chi2, eps0, grid, k_max)
        assert got.shape == (m, k_max + 1, 2)
        for j in range(m):
            aj, phij, scale = float(a[j]), float(phi[j]), 1.0 / float(eps0[j])
            carriers = [
                HarmonicComponent(1, aj * math.cos(phij), -aj * math.sin(phij)),
                pump_carrier(float(b[j]), pump_phase),
            ]
            medium = SusceptibilityProfile(
                chi1=float(chi1[j]), chi2=float(chi2[j]), eps0=float(eps0[j])
            )
            series = polarized(synthesize(carriers, grid), medium)
            want = [(comp.c * scale, comp.s * scale) for comp in lines(series, k_max)]
            assert got[j].tobytes() == np.array(want).tobytes()
