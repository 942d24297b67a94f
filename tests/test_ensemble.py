import math

import numpy as np
import pytest

from opasim import ensemble
from opasim.ensemble import (
    CHUNK,
    EnsembleConfig,
    GaussianState,
    QuadratureScan,
    VacuumConvention,
    default_thetas,
    pair_sums,
    propagate_ensemble,
    pump_trace,
    run_spans,
    sample_state_array,
    scan_state,
    squeezing_report,
    synthesize_rows,
    variance_scan,
)
from opasim.fields import (
    HarmonicComponent,
    QuadraturePair,
    TimeGrid,
    TimeSeries,
    pump_carrier,
    synthesize,
)
from opasim.medium import (
    SusceptibilityProfile,
    alias_free_samples,
    polarization_values,
    transfer_values,
)
from opasim.oracle import PassGain, map_quadratures
from opasim.spectral import lockin_extract, lockin_rows

GRID = TimeGrid(64, 4)
VAC = VacuumConvention(1.0)
MEDIUM_R05 = SusceptibilityProfile(chi1=1.0, chi2=0.5)


def cfg(n=10_000, seed=777):
    return EnsembleConfig(n, seed, GRID, VAC)


class TestStateValidation:
    def test_ground_state(self):
        state = GaussianState.vacuum(VAC)
        assert state.mean == QuadraturePair(0.0, 0.0)
        assert np.array_equal(state.cov, np.eye(2))

    def test_rejects_non_psd(self):
        with pytest.raises(ValueError, match="positive semi-definite"):
            GaussianState(QuadraturePair(0, 0), [[1.0, 2.0], [2.0, 1.0]])

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            GaussianState(QuadraturePair(0, 0), [[1.0, 0.5], [0.1, 1.0]])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EnsembleConfig(1, 0, GRID, VAC)
        with pytest.raises(ValueError):
            EnsembleConfig(10, -3, GRID, VAC)
        with pytest.raises(ValueError):
            VacuumConvention(0.0)


class TestSampling:
    def test_ground_state_moments(self):
        n = 100_000
        draws = sample_state_array(GaussianState.vacuum(VAC), cfg(n))
        bound = 4.0 * math.sqrt(VAC.var_zp / n)
        assert np.all(np.abs(draws.mean(axis=0)) < bound)
        assert np.all(
            np.abs(draws.var(axis=0, ddof=1) - 1.0) < 4.0 * math.sqrt(2.0 / n)
        )

    def test_displaced_vacuum_moments(self):
        n = 100_000
        state = GaussianState.coherent(QuadraturePair(3.0, 0.0), VAC)
        draws = sample_state_array(state, cfg(n))
        bound = 4.0 * math.sqrt(VAC.var_zp / n)
        assert abs(draws[:, 0].mean() - 3.0) < bound
        assert abs(draws[:, 1].mean()) < bound

    def test_degenerate_covariance_is_deterministic(self):
        state = GaussianState(QuadraturePair(1.5, -2.5), np.zeros((2, 2)))
        draws = sample_state_array(state, cfg(100))
        assert np.all(draws == np.array([1.5, -2.5]))

    def test_correlated_covariance_reproduced(self):
        cov = np.array([[2.0, 0.8], [0.8, 0.5]])
        state = GaussianState(QuadraturePair(0.0, 0.0), cov)
        draws = sample_state_array(state, cfg(200_000))
        sample_cov = np.cov(draws.T, ddof=1)
        np.testing.assert_allclose(sample_cov, cov, atol=0.03)

    def test_slices_are_indexed_by_realization(self):
        state = GaussianState.vacuum(VAC)
        whole = sample_state_array(state, cfg(1000))
        tail = sample_state_array(state, cfg(1000), start=600, count=400)
        assert np.array_equal(whole[600:], tail)


class TestPropagation:
    def test_pump_off_is_identity(self):
        out = propagate_ensemble(np.array([[0.7, -1.1]]), 0.0, 0.0, MEDIUM_R05, GRID)
        assert out[0, 0] == pytest.approx(0.7, abs=1e-12)
        assert out[0, 1] == pytest.approx(-1.1, abs=1e-12)

    def test_known_gain_point(self):
        # r = chi2*B/chi1 = 0.5 deamplifies x1 and amplifies x2
        out = propagate_ensemble(np.array([[1.0, 1.0]]), 1.0, 0.0, MEDIUM_R05, GRID)
        assert out[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert out[0, 1] == pytest.approx(1.5, abs=1e-12)

    def test_deamplification_of_cosine_input(self):
        out = propagate_ensemble(np.array([[1.0, 0.0]]), 1.0, 0.0, MEDIUM_R05, GRID)
        assert out[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert out[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_matches_explicit_chain(self):
        # propagate_ensemble traces one period of the smallest alias-free grid
        for chi3 in (0.0, 0.05):
            m = SusceptibilityProfile(chi1=1.1, chi2=0.4, chi3=chi3, eps0=1.6)
            grid = TimeGrid(alias_free_samples(m), 1)
            series = synthesize(
                [HarmonicComponent(1, 0.3, -0.9), pump_carrier(1.2, 0.4)], grid
            )
            output = polarization_values(series.values, m) / (m.eps0 * m.chi1)
            chain = lockin_extract(TimeSeries(grid, output), 1)
            direct = propagate_ensemble(np.array([[0.3, -0.9]]), 1.2, 0.4, m, GRID)
            assert (direct[0, 0], direct[0, 1]) == (chain.c, chain.s)

    def test_batch_matches_single_realizations(self):
        draws = sample_state_array(GaussianState.vacuum(VAC), cfg(40))
        batch = propagate_ensemble(draws, 1.0, 0.3, MEDIUM_R05, GRID)
        for i in range(40):
            single = propagate_ensemble(draws[i : i + 1], 1.0, 0.3, MEDIUM_R05, GRID)
            assert batch[i, 0] == single[0, 0]
            assert batch[i, 1] == single[0, 1]

    def test_worker_count_is_invisible(self):
        draws = sample_state_array(GaussianState.vacuum(VAC), cfg(9000))
        one = propagate_ensemble(draws, 1.0, 0.0, MEDIUM_R05, GRID, workers=1)
        many = propagate_ensemble(draws, 1.0, 0.0, MEDIUM_R05, GRID, workers=4)
        assert np.array_equal(one, many)

    def test_per_realization_oracle_equivalence(self):
        draws = sample_state_array(GaussianState.vacuum(VAC), cfg(5000))
        out = propagate_ensemble(draws, 1.0, 0.0, MEDIUM_R05, GRID)
        expected = draws * np.array([0.5, 1.5])
        assert np.max(np.abs(out - expected)) <= 1e-10

    def test_displacement_transforms_like_noise(self):
        # the mean obeys the same linear map as the fluctuations
        mean_in = QuadraturePair(2.0, -1.0)
        state = GaussianState.coherent(mean_in, VAC)
        draws = sample_state_array(state, cfg(4000))
        out = propagate_ensemble(draws, 1.0, 0.0, MEDIUM_R05, GRID)
        mean_only = propagate_ensemble(
            mean_in.as_array()[None, :], 1.0, 0.0, MEDIUM_R05, GRID
        )[0]
        assert mean_only[0] == pytest.approx(0.5 * 2.0, abs=1e-12)
        assert mean_only[1] == pytest.approx(1.5 * -1.0, abs=1e-12)
        # centered noise maps with the same gains, realization by realization
        centered_out = out - mean_only
        centered_in = draws - mean_in.as_array()
        np.testing.assert_allclose(
            centered_out, centered_in * np.array([0.5, 1.5]), atol=1e-10
        )

    def test_cubic_term_does_not_break_batch_equality(self):
        medium = SusceptibilityProfile(chi1=1.0, chi2=0.3, chi3=0.05)
        draws = sample_state_array(GaussianState.vacuum(VAC), cfg(20))
        batch = propagate_ensemble(draws, 0.8, 0.0, medium, GRID)
        single = propagate_ensemble(draws[3:4], 0.8, 0.0, medium, GRID)
        assert batch[3, 0] == single[0, 0] and batch[3, 1] == single[0, 1]


class TestOnePeriod:
    """propagate_ensemble reads the k = 1 bin off one period of its grid."""

    MEDIA = {
        "chi2": SusceptibilityProfile(chi1=1.1, chi2=0.4, eps0=1.6),
        "chi3": SusceptibilityProfile(chi1=1.1, chi2=0.4, chi3=0.05, eps0=1.6),
    }

    @staticmethod
    def draws():
        # a squeezed state, so x1 and x2 are correlated
        state = GaussianState(QuadraturePair(0.4, -0.2), [[0.3, 0.2], [0.2, 1.7]])
        return sample_state_array(state, cfg(3000))

    @pytest.mark.parametrize("medium", list(MEDIA.values()), ids=list(MEDIA))
    def test_output_does_not_depend_on_n_periods(self, medium):
        draws = self.draws()
        outs = [
            propagate_ensemble(draws, 1.2, 0.4, medium, TimeGrid(64, periods))
            for periods in (1, 3, 4)
        ]
        assert np.array_equal(outs[0], outs[1])
        assert np.array_equal(outs[0], outs[2])

    @pytest.mark.parametrize("medium", list(MEDIA.values()), ids=list(MEDIA))
    def test_matches_the_configured_grid_lockin(self, medium):
        draws = self.draws()
        out = propagate_ensemble(draws, 1.2, 0.4, medium, GRID)
        # the plain kernels on every sample of the configured grid
        cos1, sin1 = GRID.harmonic(1)
        traces = synthesize_rows(draws, pump_trace(1.2, 0.4, GRID), cos1, sin1)
        full = lockin_rows(transfer_values(traces, medium), cos1, sin1, GRID.n_samples)
        assert np.max(np.abs(out - full)) <= 1e-13 * max(1.0, np.max(np.abs(out)))

    def test_linear_medium_runs_on_five_samples(self, monkeypatch):
        widths = []

        def transfer(values, *args, **kwargs):
            widths.append(values.shape[1])
            return transfer_values(values, *args, **kwargs)

        monkeypatch.setattr(ensemble, "transfer_values", transfer)
        draws = self.draws()
        linear = SusceptibilityProfile(chi1=1.1, eps0=1.6)
        # the 2*omega pump is representable on 5 samples and leaves k = 1 alone
        out = propagate_ensemble(draws, 1.2, 0.4, linear, GRID)
        assert set(widths) == {5}
        assert np.max(np.abs(out - draws)) <= 1e-14 * np.max(np.abs(draws))

    def test_matches_the_oracle_map(self):
        medium = self.MEDIA["chi2"]
        draws = self.draws()
        out = propagate_ensemble(draws, 1.2, 0.4, medium, GRID)
        gain = PassGain(medium.chi2 * 1.2 / medium.chi1)
        assert np.max(np.abs(out - map_quadratures(draws, gain, 0.4))) <= 1e-12


class TestSpanEngine:
    def test_spans_cover_the_rows_in_order(self):
        spans = run_spans(lambda start, count: (start, count), 2 * CHUNK + 1, workers=3)
        assert spans == [(0, CHUNK), (CHUNK, CHUNK), (2 * CHUNK, 1)]

    @pytest.mark.parametrize("workers", [0, -3])
    def test_rejects_fewer_than_one_worker(self, workers):
        with pytest.raises(ValueError, match="workers"):
            run_spans(lambda start, count: None, 10, workers)

    def test_pool_has_at_most_one_thread_per_span(self, monkeypatch):
        sizes = []

        class RecordingPool:
            # runs the work inline, so no thread is started
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(ensemble, "ThreadPoolExecutor", RecordingPool)
        run_spans(lambda start, count: count, 3 * CHUNK, workers=10_000)
        assert sizes == [3]



class TestPairSums:
    @pytest.fixture
    def pairs(self):
        return np.random.default_rng(5).normal(size=(1001, 2)) * 2.0 + 3.0

    @pytest.mark.parametrize("degree", [2, 3, 4, 6])
    def test_degree_two_part_is_the_five_pair_sums_bit_for_bit(self, pairs, degree):
        # the input bands read these five sums: their bits set the fig*_input
        # and fig1 bytes whatever degree the output band needs
        center = np.array([3.0, -0.5])
        y1, y2 = pairs[:, 0] - center[0], pairs[:, 1] - center[1]
        five = np.array([y1.sum(), y2.sum(), (y1 * y1).sum(), (y1 * y2).sum(), (y2 * y2).sum()])
        sums = pair_sums(pairs, center, degree)
        assert len(sums) == (degree * (degree + 3)) // 2
        assert np.array_equal(sums[:5].view(np.uint64), five.view(np.uint64))
        assert np.array_equal(pair_sums(pairs, center).view(np.uint64), five.view(np.uint64))

    def test_sums_run_by_degree_then_falling_power_of_y1(self, pairs):
        center = np.array([3.0, -0.5])
        y1, y2 = pairs[:, 0] - center[0], pairs[:, 1] - center[1]
        want = [
            (y1**p * y2 ** (m - p)).sum() for m in range(1, 7) for p in range(m, -1, -1)
        ]
        sums = pair_sums(pairs, center, 6)
        assert len(sums) == 27
        np.testing.assert_allclose(sums, want, rtol=1e-13)
        assert np.array_equal(pair_sums(pairs, center, 4), sums[:14])


class TestVarianceScan:
    def test_identical_pairs_have_zero_variance(self):
        pairs = np.array([[1.0, 2.0]] * 10)
        scan = variance_scan(pairs, default_thetas(19))
        assert np.all(scan.variances == 0.0)

    def test_hand_computed_two_point_ensemble(self):
        # X(0) = +-1 -> unbiased variance 2; X(90deg) = 0 always
        pairs = np.array([[1.0, 0.0], [-1.0, 0.0]])
        scan = variance_scan(pairs, np.array([0.0, math.pi / 2]))
        assert scan.variances[0] == pytest.approx(2.0)
        assert scan.variances[1] == pytest.approx(0.0, abs=1e-30)
        assert scan.means[0] == pytest.approx(0.0)

    def test_rejects_tiny_ensembles(self):
        with pytest.raises(ValueError):
            variance_scan(np.array([[1.0, 0.0]]), default_thetas(5))

    def test_matches_direct_projection_estimator(self):
        rng = np.random.default_rng(3)
        pairs = rng.normal(size=(500, 2)) @ np.array([[1.0, 0.2], [0.0, 0.7]])
        thetas = default_thetas(37)
        scan = variance_scan(pairs, thetas)
        for j, theta in enumerate(thetas):
            x = pairs[:, 0] * math.cos(theta) + pairs[:, 1] * math.sin(theta)
            assert scan.variances[j] == pytest.approx(np.var(x, ddof=1), rel=1e-10)
            assert scan.means[j] == pytest.approx(np.mean(x), rel=1e-10, abs=1e-12)

    def test_scan_period_is_pi(self):
        state = GaussianState(QuadraturePair(0, 0), np.diag([0.25, 2.25]))
        thetas = np.linspace(0, 2 * math.pi, 73)
        scan = scan_state(state, thetas)
        np.testing.assert_allclose(scan.variances[:36], scan.variances[36:72], atol=1e-12)

    def test_scan_validation(self):
        with pytest.raises(ValueError):
            QuadratureScan(np.array([0.0, 1.0]), np.array([1.0]), np.array([0.0]))
        with pytest.raises(ValueError):
            QuadratureScan(np.array([0.0]), np.array([-1.0]), np.array([0.0]))


class TestSqueezingReport:
    def test_squeezed_state_report(self):
        state = GaussianState(QuadraturePair(0, 0), np.diag([0.25, 2.25]))
        report = squeezing_report(scan_state(state, default_thetas(181)), VAC)
        assert report.v_min == pytest.approx(0.25, rel=1e-12)
        assert report.v_max == pytest.approx(2.25, rel=1e-12)
        assert report.theta_min == pytest.approx(0.0)
        assert report.theta_max == pytest.approx(math.pi / 2)
        assert report.squeeze_db == pytest.approx(-6.020599913279624, abs=1e-9)
        assert report.antisqueeze_db == pytest.approx(3.5218251811136247, abs=1e-9)
        assert report.uncertainty_product == pytest.approx(0.5625, rel=1e-12)

    def test_orthogonality_of_extrema(self):
        state = GaussianState(QuadraturePair(0, 0), np.diag([0.7, 1.9]))
        report = squeezing_report(scan_state(state, default_thetas(181)), VAC)
        delta = abs(report.theta_max - report.theta_min) % math.pi
        assert delta == pytest.approx(math.pi / 2, abs=1e-12)

    def test_flat_vacuum_scan_is_zero_db(self):
        report = squeezing_report(
            scan_state(GaussianState.vacuum(VAC), default_thetas(181)), VAC
        )
        assert report.squeeze_db == pytest.approx(0.0, abs=1e-12)
        assert report.uncertainty_product == pytest.approx(1.0, rel=1e-12)

    def test_product_uses_orthogonal_grid_point(self):
        # rotated squeezed state: minimum away from zero
        cov = np.array([[1.3, -0.6], [-0.6, 1.3]])
        state = GaussianState(QuadraturePair(0, 0), cov)
        report = squeezing_report(scan_state(state, default_thetas(181)), VAC)
        eigvals = np.linalg.eigvalsh(cov)
        assert report.v_min == pytest.approx(eigvals[0], rel=1e-4)
        assert report.uncertainty_product == pytest.approx(
            eigvals[0] * eigvals[1], rel=1e-3
        )

    def test_rejects_bad_convention(self):
        scan = scan_state(GaussianState.vacuum(VAC), default_thetas(5))
        bad = object.__new__(VacuumConvention)
        object.__setattr__(bad, "var_zp", -1.0)
        with pytest.raises(ValueError):
            squeezing_report(scan, bad)
