import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opasim.fields import (
    HarmonicComponent,
    QuadraturePair,
    TimeGrid,
    TimeSeries,
    pump_carrier,
    synthesize,
)
from opasim.spectral import lockin_extract

amplitudes = st.floats(-10, 10, allow_nan=False, allow_infinity=False)


class TestTimeGrid:
    def test_sample_count_and_spacing(self):
        grid = TimeGrid(64, 4)
        t = grid.times()
        assert grid.n_samples == 256
        assert len(t) == 256
        assert t[0] == 0.0
        np.testing.assert_allclose(np.diff(t), 1.0 / 64)
        # endpoint of the last period is excluded
        assert t[-1] < 4.0

    def test_phases_repeat_one_period(self):
        grid = TimeGrid(8, 3)
        ph = grid.phases()
        assert ph[8] == 0.0
        assert ph[7] == pytest.approx(2.0 * math.pi - 2.0 * math.pi / 8)
        assert np.array_equal(ph, np.tile(ph[:8], 3))

    @pytest.mark.parametrize("spp,n", [(64, 4), (9, 3), (127, 3)])
    def test_harmonic_rows_are_k_omega_t(self, spp, n):
        # against cos/sin of the exactly reduced angle 2*pi*(k*n mod spp)/spp;
        # float64 k*omega*t itself drifts by 2.7e-15 at k = 1 over 4 periods
        grid = TimeGrid(spp, n)
        steps = np.arange(grid.n_samples)
        for k in range(grid.max_harmonic() + 1):
            angle = (k * steps % spp) * (2.0 * math.pi / spp)
            cos_k, sin_k = grid.harmonic(k)
            bound = 1e-15 * max(1, 2 * k - 1)
            assert np.max(np.abs(cos_k - np.cos(angle))) <= bound
            assert np.max(np.abs(sin_k - np.sin(angle))) <= bound

    @pytest.mark.parametrize("spp,n", [(64, 4), (9, 3), (127, 3)])
    def test_harmonic_rows_tile_one_period(self, spp, n):
        grid, period = TimeGrid(spp, n), TimeGrid(spp, 1)
        for k in range(grid.max_harmonic() + 1):
            for row, one in zip(grid.harmonic(k), period.harmonic(k), strict=True):
                assert np.array_equal(row.view(np.uint64), np.tile(one, n).view(np.uint64))

    @pytest.mark.parametrize("spp,n", [(0, 1), (4, 0), (-2, 3)])
    def test_rejects_non_positive(self, spp, n):
        with pytest.raises(ValueError):
            TimeGrid(spp, n)

    def test_harmonic_support(self):
        grid = TimeGrid(64, 1)
        grid.require_harmonic(31)
        with pytest.raises(ValueError, match="harmonic k=32 aliases"):
            grid.require_harmonic(32)
        assert grid.max_harmonic() == 31
        for grid in (TimeGrid(64, 4), TimeGrid(9, 3), TimeGrid(200, 1)):
            # the basis rows are the plain expressions, bit for bit
            for k in range(grid.max_harmonic() + 1):
                cos_k, sin_k = grid.harmonic(k)
                assert np.array_equal(cos_k, np.cos(k * grid.phases()))
                assert np.array_equal(sin_k, np.sin(k * grid.phases()))
            nyquist = math.ceil(grid.samples_per_period / 2)
            for k in (nyquist, nyquist + 1, -1):
                with pytest.raises(ValueError, match=f"harmonic k={k} aliases"):
                    grid.harmonic(k)
            series = TimeSeries(grid, np.zeros(grid.n_samples))
            with pytest.raises(ValueError, match="harmonic k=-1 aliases"):
                lockin_extract(series, -1)


class TestTimeSeries:
    def test_length_checked(self):
        with pytest.raises(ValueError):
            TimeSeries(TimeGrid(8, 1), np.zeros(7))

    def test_values_are_frozen(self):
        series = TimeSeries(TimeGrid(8, 1), np.zeros(8))
        with pytest.raises(ValueError):
            series.values[0] = 1.0


class TestHarmonicComponent:
    def test_dc_has_no_sine_part(self):
        with pytest.raises(ValueError):
            HarmonicComponent(0, 1.0, 0.5)

    def test_magnitude_and_phase(self):
        comp = HarmonicComponent(2, 3.0, 4.0)
        assert comp.magnitude == pytest.approx(5.0)
        assert comp.phase == pytest.approx(math.atan2(4.0, 3.0))

    def test_pump_carrier_matches_sign_convention(self):
        # pump is -B*cos(2wt): pure negative cosine at zero pump phase
        pump = pump_carrier(2.0)
        assert (pump.k, pump.c, pump.s) == (2, -2.0, 0.0)
        flipped = pump_carrier(2.0, math.pi)
        assert flipped.c == pytest.approx(2.0)
        assert flipped.s == pytest.approx(0.0, abs=1e-15)


class TestSynthesize:
    def test_pure_cosine(self):
        grid = TimeGrid(64, 4)
        series = synthesize([HarmonicComponent(1, 1.0, 0.0)], grid)
        assert series.values[0] == pytest.approx(1.0)
        # quarter period
        assert series.values[16] == pytest.approx(0.0, abs=1e-15)

    def test_empty_sum_is_zero(self):
        grid = TimeGrid(16, 2)
        series = synthesize([], grid)
        assert np.all(series.values == 0.0)

    def test_carrier_plus_pump_cancels_at_t0(self):
        # A*cos(wt) - B*cos(2wt) with A = B = 1 vanishes at t = 0
        grid = TimeGrid(64, 4)
        series = synthesize(
            [HarmonicComponent(1, 1.0, 0.0), pump_carrier(1.0)], grid
        )
        assert series.values[0] == pytest.approx(0.0, abs=1e-15)

    def test_aliasing_rejected(self):
        grid = TimeGrid(8, 1)
        with pytest.raises(ValueError, match="alias"):
            synthesize([HarmonicComponent(4, 1.0, 0.0)], grid)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(1, 7), amplitudes, amplitudes), max_size=6
        ),
        st.lists(
            st.tuples(st.integers(1, 7), amplitudes, amplitudes), max_size=6
        ),
    )
    def test_linearity(self, terms_a, terms_b):
        grid = TimeGrid(16, 2)
        comps_a = [HarmonicComponent(k, c, s) for k, c, s in terms_a]
        comps_b = [HarmonicComponent(k, c, s) for k, c, s in terms_b]
        joint = synthesize(comps_a + comps_b, grid)
        split = synthesize(comps_a, grid).values + synthesize(comps_b, grid).values
        np.testing.assert_allclose(joint.values, split, atol=1e-12)


class TestQuadratures:
    def test_ninety_degree_carrier(self):
        # cos(wt + 90deg) = -sin(wt)
        q = QuadraturePair.from_amplitude_phase(1.0, math.radians(90.0))
        assert q.x1 == pytest.approx(0.0, abs=1e-15)
        assert q.x2 == pytest.approx(-1.0)

    def test_forty_five_degree_carrier(self):
        # oracle: evaluate A*cos(wt+phi) at t = 0 and at the quarter period
        a, phi = 2.0, math.radians(45.0)
        q = QuadraturePair.from_amplitude_phase(a, phi)
        assert q.x1 == pytest.approx(a * math.cos(phi))  # = sqrt(2)
        assert q.x1 == pytest.approx(math.sqrt(2.0))
        assert q.x2 == pytest.approx(-math.sqrt(2.0))

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.01, 10), st.floats(0, 2 * math.pi - 1e-9))
    def test_amplitude_phase_round_trip(self, a, phi):
        q = QuadraturePair.from_amplitude_phase(a, phi)
        assert math.hypot(q.x1, q.x2) == pytest.approx(a, rel=1e-12)
        back = math.atan2(-q.x2, q.x1)
        assert math.cos(back) == pytest.approx(math.cos(phi), abs=1e-12)
        assert math.sin(back) == pytest.approx(math.sin(phi), abs=1e-12)
