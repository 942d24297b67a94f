import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opasim.ensemble import (
    GaussianState,
    VacuumConvention,
    default_thetas,
    scan_state,
    squeezing_report,
)
from opasim.fields import QuadraturePair
from opasim.oracle import (
    PassGain,
    gain_matrix,
    map_quadratures,
    single_pass,
)

VAC = VacuumConvention(1.0)


def ground():
    return GaussianState.vacuum(VAC)


class TestPassGain:
    def test_raw_gains(self):
        assert PassGain(0.5).gains() == (0.5, 1.5)

    def test_symplectic_gains_keep_ratio_and_determinant(self):
        g1, g2 = PassGain(0.5, "symplectic").gains()
        assert g1 * g2 == pytest.approx(1.0, abs=1e-15)
        assert g1 / g2 == pytest.approx(0.5 / 1.5, rel=1e-12)

    def test_below_threshold_enforced(self):
        with pytest.raises(ValueError, match="threshold"):
            PassGain(1.0)
        with pytest.raises(ValueError):
            PassGain(-1.2, "symplectic")

    def test_mode_checked(self):
        with pytest.raises(ValueError):
            PassGain(0.1, "exact")


class TestSinglePass:
    def test_identity_at_zero_gain(self):
        state = GaussianState(QuadraturePair(1.0, -2.0), [[2.0, 0.3], [0.3, 0.5]])
        out = single_pass(state, PassGain(0.0))
        assert out.mean == state.mean
        assert np.array_equal(out.cov, state.cov)

    def test_raw_ground_state_variances(self):
        out = single_pass(ground(), PassGain(0.5))
        np.testing.assert_allclose(out.cov, np.diag([0.25, 2.25]), atol=1e-15)

    def test_symplectic_ground_state_variances(self):
        # rho with exp(-rho) = 0.5 comes from r = atanh-inverse of ln 2
        r = math.tanh(math.log(2.0))
        out = single_pass(ground(), PassGain(r, "symplectic"))
        np.testing.assert_allclose(out.cov, np.diag([0.25, 4.0]), rtol=1e-12)
        assert np.linalg.det(out.cov) == pytest.approx(1.0, abs=1e-12)

    def test_mean_transforms_like_noise(self):
        gain = PassGain(0.3)
        state = GaussianState.coherent(QuadraturePair(2.0, -1.0), VAC)
        out = single_pass(state, gain)
        assert out.mean.x1 == pytest.approx(0.7 * 2.0)
        assert out.mean.x2 == pytest.approx(1.3 * -1.0)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-0.99, 0.99))
    def test_symplectic_determinant_preserved(self, r):
        out = single_pass(ground(), PassGain(r, "symplectic"))
        assert float(np.linalg.det(out.cov)) == pytest.approx(1.0, rel=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-0.99, 0.99))
    def test_raw_uncertainty_product(self, r):
        # documented property of the truncated map: the product dips
        # below the vacuum bound by exactly (1 - r^2)^2
        out = single_pass(ground(), PassGain(r))
        product = out.cov[0, 0] * out.cov[1, 1]
        assert product == pytest.approx((1.0 - r * r) ** 2, rel=1e-12)


def amplitude_gain(amplitude, phi, gain, pump_phase=0.0):
    """|mean out| / amplitude of a coherent carrier at phase phi."""
    q = QuadraturePair.from_amplitude_phase(amplitude, phi)
    mean = single_pass(GaussianState.coherent(q, VAC), gain, pump_phase).mean
    return math.hypot(mean.x1, mean.x2) / amplitude


class TestAmplitudeGain:
    def test_deamplification_at_zero_phase(self):
        assert amplitude_gain(1.0, 0.0, PassGain(0.5)) == pytest.approx(0.5)

    def test_amplification_at_ninety_degrees(self):
        assert amplitude_gain(1.0, math.pi / 2, PassGain(0.5)) == pytest.approx(1.5)

    def test_a_pi_pump_phase_swaps_deamplification_and_amplification(self):
        gain = PassGain(0.5)
        assert amplitude_gain(1.0, 0.0, gain, math.pi) == pytest.approx(1.5)
        assert amplitude_gain(1.0, math.pi / 2, gain, math.pi) == pytest.approx(0.5)

    def test_unity_without_pump(self):
        for phi in np.linspace(0, 2 * math.pi, 17):
            assert amplitude_gain(2.0, float(phi), PassGain(0.0)) == pytest.approx(1.0)

    def test_extrema_locations(self):
        gain = PassGain(0.4)
        phis = np.linspace(0, math.pi, 181)
        gains = [amplitude_gain(1.0, float(p), gain) for p in phis]
        assert int(np.argmin(gains)) == 0
        assert phis[int(np.argmax(gains))] == pytest.approx(math.pi / 2)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.01, 0.95), st.floats(0, 2 * math.pi), st.floats(0, 2 * math.pi))
    def test_matches_quadrature_map(self, r, phi, pump_phase):
        q = QuadraturePair.from_amplitude_phase(2.0, phi)
        out = map_quadratures(q.as_array()[None, :], PassGain(r), pump_phase)[0]
        assert amplitude_gain(2.0, phi, PassGain(r), pump_phase) == pytest.approx(
            math.hypot(*out) / 2.0, rel=1e-12
        )

    def test_squeeze_monotone_in_pump_strength(self):
        values = []
        for r in np.linspace(0.05, 0.95, 19):
            state = single_pass(ground(), PassGain(float(r)))
            rep = squeezing_report(scan_state(state, default_thetas(181)), VAC)
            values.append(rep.squeeze_db)
        assert all(b < a for a, b in zip(values, values[1:]))


class TestPumpPhase:
    def test_pi_swaps_the_gains(self):
        out = map_quadratures(np.array([[1.0, 1.0]]), PassGain(0.5), math.pi)
        np.testing.assert_allclose(out, [[1.5, 0.5]], atol=1e-15)

    def test_matrix_is_symmetric_and_consistent(self):
        gain = PassGain(0.3)
        for psi in (0.0, 0.7, math.pi / 2, math.pi, 4.0):
            m = gain_matrix(gain, psi)
            assert m[0, 1] == pytest.approx(m[1, 0], abs=1e-15)
            pairs = np.array([[0.4, -1.2], [2.0, 0.0]])
            np.testing.assert_allclose(
                map_quadratures(pairs, gain, psi), pairs @ m.T, atol=1e-15
            )

    @pytest.mark.parametrize("mode", ["raw", "symplectic"])
    def test_matrix_is_exactly_symmetric(self, mode):
        gain = PassGain(0.5, mode)
        for psi in (0.3, 1.0, math.radians(37), math.pi / 2, math.pi, 4.0, -2.5):
            m = gain_matrix(gain, psi)
            assert m[0, 1] == m[1, 0]
            # the rotation conjugation that the closed form writes out
            c, s = math.cos(-0.5 * psi), math.sin(-0.5 * psi)
            rot = np.array([[c, -s], [s, c]])
            expected = rot @ np.diag(gain.gains()) @ rot.T
            np.testing.assert_allclose(m, expected, rtol=0, atol=1e-15)

    def test_state_map_matches_sample_map(self):
        gain = PassGain(0.5, "symplectic")
        psi = 1.1
        state = GaussianState.coherent(QuadraturePair(1.0, 2.0), VAC)
        mapped = single_pass(state, gain, psi)
        m = gain_matrix(gain, psi)
        np.testing.assert_allclose(
            mapped.mean.as_array(), m @ np.array([1.0, 2.0]), atol=1e-14
        )
        np.testing.assert_allclose(mapped.cov, m @ state.cov @ m.T, atol=1e-14)

    def test_general_phase_rotates_squeezing_axis(self):
        # the squeezed direction sits at -psi/2
        psi = 0.8
        mapped = single_pass(ground(), PassGain(0.5), psi)
        eigvals, eigvecs = np.linalg.eigh(mapped.cov)
        angle = math.atan2(eigvecs[1, 0], eigvecs[0, 0])
        expected = -psi / 2.0
        assert math.cos(2 * angle) == pytest.approx(math.cos(2 * expected), abs=1e-9)
        assert math.sin(2 * angle) == pytest.approx(math.sin(2 * expected), abs=1e-9)
        assert eigvals[0] == pytest.approx(0.25, rel=1e-12)
        assert eigvals[1] == pytest.approx(2.25, rel=1e-12)
