import math
import os
import signal
import subprocess
import sys

import numpy as np
import pytest

from opasim import ensemble
from opasim.ensemble import (
    CHUNK,
    EnsembleConfig,
    GaussianState,
    VacuumConvention,
    default_thetas,
    det2,
    map_pairs,
    medium_channel,
    pair_sums,
    propagate_ensemble,
    pump_trace,
    run_spans,
    sample_state_array,
    scan_state,
    span_groups,
    squeezing_report,
    sums_scan,
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
    channel_samples,
    polarization_values,
    transfer_values,
)
from opasim.oracle import PassGain, map_quadratures
from opasim.rng import angle_cos_sin, raw_uint64, standard_normal_pairs, uniforms
from opasim.spectral import lockin_extract, lockin_rows

GRID = TimeGrid(64, 4)
VAC = VacuumConvention(1.0)
MEDIUM_R05 = SusceptibilityProfile(chi1=1.0, chi2=0.5)


def cfg(n=10_000, seed=777):
    return EnsembleConfig(n, seed)


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1), (1, 1)])
    def test_rejects_non_finite_covariance(self, bad, where):
        cov = np.eye(2)
        cov[where] = cov[where[::-1]] = bad
        with pytest.raises(ValueError, match="cov must be finite"):
            GaussianState(QuadraturePair(0, 0), cov)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_rejects_non_finite_mean(self, bad, axis):
        mean = [0.5, -0.5]
        mean[axis] = bad
        with pytest.raises(ValueError, match="mean must be finite"):
            GaussianState(QuadraturePair(*mean), np.eye(2))

    def test_two_realizations_are_rejected(self):
        # the sample covariance of two pairs has rank at most 1
        with pytest.raises(ValueError, match="n_realizations must be at least 3"):
            EnsembleConfig(2, 0)
        assert EnsembleConfig(3, 0).n_realizations == 3

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EnsembleConfig(1, 0)
        with pytest.raises(ValueError):
            EnsembleConfig(10, -3)
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

    def test_determinant_is_written_out(self):
        # the bits of a*b - c*d, whatever power of two scales the entries
        rows = np.random.default_rng(5).normal(size=(200, 4))
        rows *= 2.0 ** np.random.default_rng(6).integers(-60, 60, size=(200, 1))
        for a, b, c, d in rows.tolist():
            assert det2(np.array([[a, c], [d, b]])) == a * b - c * d
        assert det2(np.zeros((2, 2))) == 0.0

    def test_rotated_state_near_the_largest_var_zp(self, recwarn):
        # a*b = 2.6e308 is past the largest double; the determinant,
        # 0.5625 * var_zp**2, is not
        var_zp = 1.34e154
        cov = var_zp * np.array([[1.25, 1.0], [1.0, 1.25]])
        state = GaussianState(QuadraturePair(0.0, 0.0), cov)
        assert det2(cov) / var_zp**2 == pytest.approx(0.5625, rel=1e-15)
        np.testing.assert_allclose(
            state.noise / math.sqrt(var_zp), [[1.0, 0.5], [0.5, 1.0]], rtol=1e-15
        )
        assert not recwarn.list

    def test_correlated_covariance_reproduced(self):
        cov = np.array([[2.0, 0.8], [0.8, 0.5]])
        state = GaussianState(QuadraturePair(0.0, 0.0), cov)
        draws = sample_state_array(state, cfg(200_000))
        sample_cov = np.cov(draws.T, ddof=1)
        np.testing.assert_allclose(sample_cov, cov, atol=0.03)

    def test_noise_map_is_two_products_and_a_sum_per_column(self):
        z = np.random.default_rng(4).standard_normal((1000, 2))
        m = np.array([[0.7, 0.2], [-0.3, 1.3]])
        want = np.empty_like(z)
        for r in range(2):
            want[:, r] = z[:, 0] * m[r, 0] + z[:, 1] * m[r, 1]
        got = map_pairs(z, m)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        # quadrature-major: each column is one contiguous run
        assert got.T.flags.c_contiguous
        # from quadrature-major input too
        assert np.array_equal(map_pairs(np.asfortranarray(z), m), got)
        assert np.max(np.abs(got - z @ m.T)) <= 1e-15 * np.max(np.abs(got))

    def test_noise_map_of_a_diagonal_matrix_has_the_bits_of_the_product(self):
        z = np.random.default_rng(5).standard_normal((1000, 2))
        m = np.diag([0.5, 1.7])
        assert np.array_equal(map_pairs(z, m), z @ m.T)

    # a diagonal noise root scales each column of z; every other one maps
    # the pairs through map_pairs. Either way the draws are map_pairs' and
    # the mean's, bit for bit: they differ only in the sign of an exactly
    # zero draw under a -0.0 mean, and none is drawn here
    @pytest.mark.parametrize("var_zp", [1.0, 1e-20, 1e10])
    def test_diagonal_noise_roots_scale_the_columns(self, var_zp, monkeypatch):
        mapped = []
        monkeypatch.setattr(
            ensemble, "map_pairs", lambda *args: mapped.append(args) or map_pairs(*args)
        )
        convention = VacuumConvention(var_zp)
        mean = QuadraturePair(-0.0, 2.5)
        states = [
            GaussianState.vacuum(convention),
            GaussianState.coherent(mean, convention),
            GaussianState(mean, np.diag([var_zp, 4.0 * var_zp])),
        ]
        for state in states:
            for seed in range(12):
                ens = EnsembleConfig(3000, seed)
                z = ensemble.rng.standard_normal_pairs(seed, 1000, 2000)
                want = map_pairs(z, state.noise)
                want[:, 0] += state.mean.x1
                want[:, 1] += state.mean.x2
                got = sample_state_array(state, ens, 1000, 2000)
                assert got.tobytes() == want.tobytes()
        assert mapped == []
        squeezed = GaussianState(mean, var_zp * np.array([[2.0, 0.8], [0.8, 0.5]]))
        sample_state_array(squeezed, EnsembleConfig(3000, 1))
        assert len(mapped) == 1

    def test_slices_are_indexed_by_realization(self):
        state = GaussianState.vacuum(VAC)
        whole = sample_state_array(state, cfg(1000))
        tail = sample_state_array(state, cfg(1000), start=600, count=400)
        assert np.array_equal(whole[600:], tail)


class TestPropagation:
    def test_pump_off_is_identity(self):
        out = propagate_ensemble(np.array([[0.7, -1.1]]), 0.0, 0.0, MEDIUM_R05)
        assert out[0, 0] == pytest.approx(0.7, abs=1e-12)
        assert out[0, 1] == pytest.approx(-1.1, abs=1e-12)

    def test_empty_ensemble_gives_an_empty_pair_array(self):
        out = propagate_ensemble(np.empty((0, 2)), 1.0, 0.0, MEDIUM_R05)
        assert out.shape == (0, 2)

    def test_known_gain_point(self):
        # r = chi2*B/chi1 = 0.5 deamplifies x1 and amplifies x2
        out = propagate_ensemble(np.array([[1.0, 1.0]]), 1.0, 0.0, MEDIUM_R05)
        assert out[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert out[0, 1] == pytest.approx(1.5, abs=1e-12)

    def test_deamplification_of_cosine_input(self):
        out = propagate_ensemble(np.array([[1.0, 0.0]]), 1.0, 0.0, MEDIUM_R05)
        assert out[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert out[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_matches_explicit_chain(self):
        # propagate_ensemble traces one period of channel_samples samples
        for chi3 in (0.0, 0.05):
            m = SusceptibilityProfile(chi1=1.1, chi2=0.4, chi3=chi3, eps0=1.6)
            grid = TimeGrid(channel_samples(m), 1)
            series = synthesize(
                [HarmonicComponent(1, 0.3, -0.9), pump_carrier(1.2, 0.4)], grid
            )
            output = polarization_values(series.values, m) / (m.eps0 * m.chi1)
            chain = lockin_extract(TimeSeries(grid, output), 1)
            direct = propagate_ensemble(np.array([[0.3, -0.9]]), 1.2, 0.4, m)
            assert (direct[0, 0], direct[0, 1]) == (chain.c, chain.s)

    def test_batch_matches_single_realizations(self):
        draws = sample_state_array(GaussianState.vacuum(VAC), cfg(40))
        batch = propagate_ensemble(draws, 1.0, 0.3, MEDIUM_R05)
        for i in range(40):
            single = propagate_ensemble(draws[i : i + 1], 1.0, 0.3, MEDIUM_R05)
            assert batch[i, 0] == single[0, 0]
            assert batch[i, 1] == single[0, 1]

    def test_per_realization_oracle_equivalence(self):
        draws = sample_state_array(GaussianState.vacuum(VAC), cfg(5000))
        out = propagate_ensemble(draws, 1.0, 0.0, MEDIUM_R05)
        expected = draws * np.array([0.5, 1.5])
        assert np.max(np.abs(out - expected)) <= 1e-10

    def test_displacement_transforms_like_noise(self):
        # the mean obeys the same linear map as the fluctuations
        mean_in = QuadraturePair(2.0, -1.0)
        state = GaussianState.coherent(mean_in, VAC)
        draws = sample_state_array(state, cfg(4000))
        out = propagate_ensemble(draws, 1.0, 0.0, MEDIUM_R05)
        mean_only = propagate_ensemble(mean_in.as_array()[None], 1.0, 0.0, MEDIUM_R05)[0]
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
        batch = propagate_ensemble(draws, 0.8, 0.0, medium)
        single = propagate_ensemble(draws[3:4], 0.8, 0.0, medium)
        assert batch[3, 0] == single[0, 0] and batch[3, 1] == single[0, 1]


class TestOnePeriod:
    """propagate_ensemble reads the k = 1 bin off one period of channel_samples samples."""

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
    def test_matches_the_configured_grid_lockin(self, medium):
        draws = self.draws()
        out = propagate_ensemble(draws, 1.2, 0.4, medium)
        # the plain kernels on every sample of the configured grid
        cos1, sin1 = GRID.harmonic(1)
        traces = synthesize_rows(draws, pump_trace(1.2, 0.4, GRID), cos1, sin1)
        full = lockin_rows(transfer_values(traces, medium), cos1, sin1, GRID.n_samples)
        assert np.max(np.abs(out - full)) <= 1e-13 * max(1.0, np.max(np.abs(out)))

    def test_linear_medium_runs_on_five_samples(self, monkeypatch):
        widths = []

        def transfer(values, *args, **kwargs):
            widths.append(values.shape[0])
            return transfer_values(values, *args, **kwargs)

        monkeypatch.setattr(ensemble, "transfer_values", transfer)
        draws = self.draws()
        linear = SusceptibilityProfile(chi1=1.1, eps0=1.6)
        # the 2*omega pump is representable on 5 samples and leaves k = 1 alone
        out = propagate_ensemble(draws, 1.2, 0.4, linear)
        assert set(widths) == {channel_samples(linear)} == {5}
        assert np.max(np.abs(out - draws)) <= 1e-14 * np.max(np.abs(draws))

    def test_matches_the_oracle_map(self):
        medium = self.MEDIA["chi2"]
        draws = self.draws()
        out = propagate_ensemble(draws, 1.2, 0.4, medium)
        gain = PassGain(medium.chi2 * 1.2 / medium.chi1)
        assert np.max(np.abs(out - map_quadratures(draws, gain, 0.4))) <= 1e-12


def _bits(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array).view(np.uint64)


class TestQuadratureMajorLayout:
    """Pairs keep their (n, 2) shape with each quadrature one contiguous column.

    Every result below has the bits of the same expression written into a
    C-ordered (n, 2) array; n spans more than one 4096-row block. The 2x2
    map is checked in TestSampling.
    """

    N = CHUNK + 5
    SQUEEZED = GaussianState(QuadraturePair(0.4, -0.2), [[0.3, 0.2], [0.2, 1.7]])

    def test_normal_pairs(self):
        start = 123
        rows = np.arange(start, start + self.N, dtype=np.uint64)
        even = raw_uint64(7, rows * np.uint64(2)) >> np.uint64(11)
        radius = np.sqrt(-2.0 * np.log((even.astype(np.float64) + 0.5) * 2.0**-53))
        cos, sin = angle_cos_sin(raw_uint64(7, rows * np.uint64(2) + np.uint64(1)))
        want = np.empty((self.N, 2))
        want[:, 0] = cos * radius
        want[:, 1] = sin * radius
        got = standard_normal_pairs(7, start, self.N)
        assert got.shape == (self.N, 2) and got.T.flags.c_contiguous
        assert np.array_equal(_bits(got), want.view(np.uint64))

    def test_state_samples(self):
        state = self.SQUEEZED
        z = np.ascontiguousarray(standard_normal_pairs(777, 0, self.N))
        want = np.empty((self.N, 2))
        for r in range(2):
            want[:, r] = z[:, 0] * state.noise[r, 0] + z[:, 1] * state.noise[r, 1]
            want[:, r] += state.mean.as_array()[r]
        got = sample_state_array(state, cfg(self.N))
        assert got.T.flags.c_contiguous
        assert np.array_equal(_bits(got), want.view(np.uint64))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_channel_of_either_layout(self, order):
        medium = SusceptibilityProfile(chi1=1.1, chi2=0.4, chi3=0.05, eps0=1.6)
        pairs = sample_state_array(self.SQUEEZED, cfg(self.N))
        period = TimeGrid(channel_samples(medium), 1)
        cos1, sin1 = period.harmonic(1)
        c_pairs = np.ascontiguousarray(pairs)
        traces = synthesize_rows(c_pairs, pump_trace(1.2, 0.4, period), cos1, sin1)
        want = lockin_rows(transfer_values(traces, medium), cos1, sin1, period.n_samples)
        assert want.flags.c_contiguous
        got = medium_channel(1.2, 0.4, medium)(np.asarray(pairs, order=order))
        assert got.T.flags.c_contiguous
        assert np.array_equal(_bits(got), want.view(np.uint64))


def _span_array(start, count):
    return np.array([start, count, math.sqrt(start + count)])


def _assert_no_child_is_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestSpanEngine:
    def test_spans_cover_the_rows_in_order(self):
        spans = run_spans(lambda start, count: (start, count), 2 * CHUNK + 1)
        assert spans == [(0, CHUNK), (CHUNK, CHUNK), (2 * CHUNK, 1)]

    # pure bounds: nothing here forks, whatever the group count
    @pytest.mark.parametrize("n_spans", [0, 1, 2, 3, 7, 245, 1000])
    @pytest.mark.parametrize("groups", [1, 2, 3, 8, 244, 10**6])
    def test_span_groups_are_contiguous_non_empty_and_cover_every_span(
        self, n_spans, groups
    ):
        bounds = span_groups(n_spans, groups)
        assert len(bounds) == max(1, min(groups, n_spans))
        assert bounds[0][0] == 0 and bounds[-1][1] == n_spans
        for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
            assert hi == lo
        sizes = [hi - lo for lo, hi in bounds]
        assert min(sizes) >= (1 if n_spans else 0)
        assert max(sizes) - min(sizes) <= 1

    def test_span_groups_of_a_million_spans(self):
        bounds = span_groups(10**6, 10**6)
        assert bounds == [(i, i + 1) for i in range(10**6)]
        assert span_groups(10**6, 3) == [(0, 333333), (333333, 666666), (666666, 10**6)]

    def test_usable_cpus(self, monkeypatch):
        assert ensemble.usable_cpus() >= 1
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert ensemble.usable_cpus() == 1
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert ensemble.usable_cpus() == 6
        # without fork, the spans run in this process
        monkeypatch.delattr(os, "fork")
        assert ensemble.usable_cpus() == 1

    @pytest.mark.parametrize("workers", [2, 3])
    def test_forked_spans_return_the_serial_results_in_order(self, workers, monkeypatch):
        # fork whatever this host's CPU count: the bounds do not depend on it
        monkeypatch.setattr(ensemble, "usable_cpus", lambda: workers)
        n = 5 * CHUNK + 7
        want = run_spans(_span_array, n)
        got = run_spans(_span_array, n, workers)
        assert len(got) == len(want) == 6
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
        _assert_no_child_is_left()

    def test_workers_are_capped_at_the_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(ensemble, "usable_cpus", lambda: 1)
        parent = os.getpid()
        pids = run_spans(lambda start, count: np.array([os.getpid()]), 4 * CHUNK, 4)
        assert [int(pid[0]) for pid in pids] == [parent] * 4

    @pytest.mark.parametrize("failing_span", [0, 2], ids=["group 0", "child group"])
    def test_exception_comes_back_with_its_serial_type_and_message(
        self, failing_span, monkeypatch
    ):
        monkeypatch.setattr(ensemble, "usable_cpus", lambda: 2)

        def work(start, count):
            if start == failing_span * CHUNK:
                raise ValueError(f"span at row {start} failed")
            return _span_array(start, count)

        raised = []
        for workers in (1, 2):
            with pytest.raises(ValueError) as excinfo:
                run_spans(work, 3 * CHUNK, workers)
            raised.append((type(excinfo.value), str(excinfo.value)))
            _assert_no_child_is_left()
        message = f"span at row {failing_span * CHUNK} failed"
        assert raised[0] == raised[1] == (ValueError, message)

    def test_unpicklable_exception_is_named_in_a_child_process_error(self, monkeypatch):
        monkeypatch.setattr(ensemble, "usable_cpus", lambda: 2)

        class Unpicklable(Exception):
            def __init__(self, a, b):
                super().__init__(f"{a} and {b}")

        def work(start, count):
            if start:
                raise Unpicklable("this", "that")
            return _span_array(start, count)

        with pytest.raises(ChildProcessError, match="Unpicklable: this and that"):
            run_spans(work, 2 * CHUNK, 2)
        _assert_no_child_is_left()

    def test_child_killed_by_a_signal_is_a_child_process_error(self, monkeypatch):
        monkeypatch.setattr(ensemble, "usable_cpus", lambda: 2)
        parent = os.getpid()

        def work(start, count):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return _span_array(start, count)

        with pytest.raises(ChildProcessError, match="SIGKILL"):
            run_spans(work, 2 * CHUNK, 2)
        _assert_no_child_is_left()

    def test_children_flush_no_inherited_buffer(self):
        # a line still in this process's stdout buffer when the child forks
        # must be written once, by this process
        child = (
            "import sys, numpy as np\n"
            "from opasim import ensemble\n"
            "ensemble.usable_cpus = lambda: 2\n"
            "sys.stdout.write('before the fork\\n')\n"
            "out = ensemble.run_spans(lambda s, c: np.array([s]), 2 * ensemble.CHUNK, 2)\n"
            "print(len(out))\n"
        )
        # stdout buffered, as to any pipe unless PYTHONUNBUFFERED is set
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        result = subprocess.run(
            [sys.executable, "-c", child],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        assert result.stdout == "before the fork\n2\n"



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

    @pytest.mark.parametrize("width", [1, 7, 4096, 4097])
    @pytest.mark.parametrize("degree", range(1, 7))
    def test_each_sum_has_the_bits_of_its_own_power_series(self, width, degree):
        # one (terms, width) block summed along its rows, against one np.sum
        # per power; -0.0 entries check the sign the sums start from
        pairs = np.random.default_rng(width).normal(size=(width, 2)) * 2.0
        pairs[::3, 0] = -0.0
        pairs[1::4, 1] = -0.0
        center = np.array([0.0, 0.0]) if width < 8 else np.array([0.25, -0.5])
        y1, y2 = pairs[:, 0] - center[0], pairs[:, 1] - center[1]
        powers = [y1, y2]
        want = [y1.sum(), y2.sum()]
        for _ in range(degree - 1):
            powers = [power * y1 for power in powers] + [powers[-1] * y2]
            want.extend(np.sum(power) for power in powers)
        got = pair_sums(pairs, center, degree)
        assert np.array_equal(got.view(np.uint64), np.array(want).view(np.uint64))

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

    def test_two_phases_are_rejected(self):
        # {0, pi} reads one quadrature twice, as the config rejects it
        with pytest.raises(ValueError, match="thetas must be at least 3, got 2"):
            default_thetas(2)
        assert list(default_thetas(3)) == [0.0, math.pi / 2, math.pi]

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
        # a rank-1 covariance projected on its null direction rounds to
        # -2.2e-16; the scan clamps it, so no variance is negative
        a, c, b = 1.4276239728125713, 1.1310697259761868, 0.8961174296474245
        theta = 2.2408086663149382
        cos_t, sin_t = math.cos(theta), math.sin(theta)
        assert a * cos_t**2 + 2.0 * c * cos_t * sin_t + b * sin_t**2 < 0.0
        thetas = np.array([theta, 0.0, 1.0])
        scan = sums_scan(np.array([0.0, 0.0, a, c, b]), 2, np.zeros(2), thetas)
        assert scan.thetas.shape == scan.variances.shape == scan.means.shape == (3,)
        assert scan.variances[0] == 0.0
        assert scan.variances.min() >= 0.0

    def test_scan_arrays_are_read_only_copies(self):
        # the covariance it was projected from is kept on the scan
        cov = np.array([[0.7, 0.2], [0.2, 1.9]])
        thetas = default_thetas(5)
        scan = scan_state(GaussianState(QuadraturePair(0.3, -1.0), cov), thetas)
        assert np.array_equal(scan.cov, cov)
        assert thetas.flags.writeable and np.array_equal(scan.thetas, thetas)
        for arr in (scan.thetas, scan.variances, scan.means, scan.cov):
            with pytest.raises(ValueError):
                arr[0] = 0.0


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

    @staticmethod
    def _report(cov, thetas=default_thetas(3), convention=VAC):
        """The report of a scan whose covariance is cov, bit for bit."""
        # two pairs with zero sums about the center: cov = (s11, s12, s22)
        (a, c), (_, b) = cov
        scan = sums_scan(np.array([0.0, 0.0, a, c, b]), 2, np.zeros(2), thetas)
        assert np.array_equal(scan.cov, [[a, c], [c, b]])
        return squeezing_report(scan, convention)

    @staticmethod
    def _drawn_covariances():
        """Covariances drawn from rng.uniforms, symmetric up to rounding.

        Rotated ellipses, round states (v_small = v_large) and rank-1
        states (v_small = 0), each rotated by an angle in (-pi, pi].
        """
        u = uniforms(41, 0, 3 * 60).reshape(60, 3)
        for k, (u_small, u_large, u_angle) in enumerate(u.tolist()):
            v_large = 4.0 * u_large
            v_small = (0.0, v_large, v_large * u_small)[k % 3]
            angle = math.pi * (2.0 * u_angle - 1.0)
            c, s = math.cos(angle), math.sin(angle)
            rot = np.array([[c, -s], [s, c]])
            yield rot @ np.diag([v_small, v_large]) @ rot.T

    def test_extrema_match_the_eigenvalues(self):
        for cov in self._drawn_covariances():
            cov[1, 0] = cov[0, 1]
            report = self._report(cov)
            low, high = np.linalg.eigvalsh(cov)
            tol = 1e-12 * high
            assert report.v_min == pytest.approx(max(low, 0.0), abs=tol)
            assert report.v_max == pytest.approx(high, abs=tol)
            assert report.uncertainty_product == report.v_min * report.v_max
            # the variance at the reported angles is the extremum
            for theta, v in ((report.theta_min, low), (report.theta_max, high)):
                u = np.array([math.cos(theta), math.sin(theta)])
                assert u @ cov @ u == pytest.approx(v, abs=tol)

    def test_report_reads_no_theta_grid(self):
        for cov in self._drawn_covariances():
            reports = {
                self._report(cov, thetas)
                for thetas in (default_thetas(3), default_thetas(181), np.array([0.1]))
            }
            assert len(reports) == 1

    def test_theta_range_convention(self):
        # theta_min in (-pi/2, pi/2], theta_max a quarter turn above it: a
        # minimum just below 0 reads as -0.5 degrees, not 179.5
        for cov in self._drawn_covariances():
            report = self._report(cov)
            assert -math.pi / 2 < report.theta_min <= math.pi / 2
            assert report.theta_max == report.theta_min + math.pi / 2
        for theta, want in ((-0.5, -0.5), (0.5, 0.5), (89.5, 89.5), (90.5, -89.5)):
            c, s = math.cos(math.radians(theta)), math.sin(math.radians(theta))
            rot = np.array([[c, -s], [s, c]])
            report = self._report(rot @ np.diag([0.25, 2.25]) @ rot.T)
            assert math.degrees(report.theta_min) == pytest.approx(want, abs=1e-9)
        # a squeezed x2 lies at the top of the range, not at -pi/2
        report = self._report(np.diag([2.25, 0.25]))
        assert (report.theta_min, report.theta_max) == (math.pi / 2, math.pi)

    @pytest.mark.parametrize("c", [0.0, -0.0])
    def test_round_state_convention(self, c):
        # every theta is an extremum; the report reads theta_min = +0
        report = self._report(np.array([[1.5, c], [c, 1.5]]))
        assert report.v_min == report.v_max == 1.5
        assert math.copysign(1.0, report.theta_min) == 1.0
        assert (report.theta_min, report.theta_max) == (0.0, math.pi / 2)

    def test_no_product_overflows_near_the_largest_var_zp(self):
        # a*b is 2.6e308 here, past the largest double
        big = VacuumConvention(1.3e154)
        cov = 1.3e154 * np.array([[1.25, 1.0], [1.0, 1.25]])
        report = self._report(cov, convention=big)
        assert report.v_min == pytest.approx(0.25 * 1.3e154, rel=1e-14)
        assert report.v_max == pytest.approx(2.25 * 1.3e154, rel=1e-14)
        product = report.uncertainty_product / 1.3e154**2
        assert product == pytest.approx(0.5625, rel=1e-14)

    @pytest.mark.parametrize("c", [0.0, -0.0])
    def test_all_zero_covariance_is_rejected(self, c):
        # a scan whose noise was lost to rounding has no extrema to report
        with pytest.raises(ValueError, match="covariance is all zero"):
            self._report(np.array([[0.0, c], [c, 0.0]]))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("entry", ["a", "c"])
    def test_non_finite_covariance_is_rejected(self, entry, value):
        # NaN fails the all-zero test too; it must not be read as lost noise
        sums = {"a": [0.0, 0.0, value, 0.5, 1.0], "c": [0.0, 0.0, 1.0, value, 1.0]}
        scan = sums_scan(np.array(sums[entry]), 2, np.zeros(2), default_thetas(3))
        with pytest.raises(ValueError, match="covariance is not finite"):
            squeezing_report(scan, VAC)

    def test_rejects_bad_convention(self):
        scan = scan_state(GaussianState.vacuum(VAC), default_thetas(5))
        bad = object.__new__(VacuumConvention)
        object.__setattr__(bad, "var_zp", -1.0)
        with pytest.raises(ValueError):
            squeezing_report(scan, bad)


def _span_by_span(state, cfg, channel, degree):
    """A channel's (sums, center), summed span by span in order, in this process."""
    center = channel(state.mean.as_array()[None])[0]
    sums = 0.0
    for start in range(0, cfg.n_realizations, CHUNK):
        pairs = sample_state_array(state, cfg, start, min(CHUNK, cfg.n_realizations - start))
        sums = sums + pair_sums(channel(pairs), center, degree)
    return sums, center


def _identity(pairs):
    return pairs


def _channel_layouts():
    chi2 = SusceptibilityProfile(chi1=1.0, chi2=0.5)
    kerr = SusceptibilityProfile(chi1=0.7, chi2=-0.3, chi3=0.05, eps0=2.5)
    vacuum = GaussianState.vacuum()
    coherent = GaussianState.coherent(QuadraturePair.from_amplitude_phase(0.8, 0.5))
    return {
        # fig2's layout: the input pairs to twice the medium's degree, then the output
        "fig2": (vacuum, [(_identity, 4), (medium_channel(1.0, 0.0, chi2), 2)]),
        "two media": (
            coherent,
            [
                (medium_channel(1.0, 0.3, chi2), 2),
                (medium_channel(0.6, 2.0, kerr), 2),
            ],
        ),
    }


# 2 * CHUNK + 1 rows: the last span is one row
@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("layout", ["fig2", "two media"])
def test_channel_sums_of_many_channels_are_each_channels_own(layout, workers):
    state, channels = _channel_layouts()[layout]
    cfg = EnsembleConfig(2 * CHUNK + 1, 11)
    got = ensemble.channel_sums(state, cfg, channels, workers)
    assert len(got) == len(channels)
    for (sums, center), (channel, degree) in zip(got, channels):
        [(alone, alone_center)] = ensemble.channel_sums(state, cfg, [(channel, degree)], workers)
        want, want_center = _span_by_span(state, cfg, channel, degree)
        assert len(sums) == degree * (degree + 3) // 2
        for array in (sums, alone):
            assert array.tobytes() == want.tobytes()
        for array in (center, alone_center):
            assert array.tobytes() == want_center.tobytes()
