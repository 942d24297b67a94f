"""The validate checks: the batched closed-form and lock-in checks against
their scalar loops, bit for bit, and failing verdicts for wrong or
non-finite results."""

import gc
import itertools
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest

from opasim import ensemble, rng, spectral, validate
from opasim.cli import main
from opasim.config import RunConfig, with_overrides
from opasim.ensemble import default_thetas, sums_scan
from opasim.fields import (
    HarmonicComponent,
    TimeGrid,
    TimeSeries,
    pump_carrier,
    synthesize,
)
from opasim.medium import (
    SusceptibilityProfile,
    alias_free_samples,
    channel_samples,
    polarization_values,
    polynomial_degree,
)
from opasim.spectral import lines_mean_square, lockin_extract, predict_spectrum
from opasim.validate import SharedInputs

# the default grid, the smallest alias-free period, and 381 samples: the
# lock-in sums over fewer and over more than 128 samples take different
# pairwise paths
GRIDS = [TimeGrid(64, 4), TimeGrid(9, 1), TimeGrid(127, 3)]


def _scalar_draws(seed):
    """uniform(low, high): low + (high - low)*u of stream seed's next draw.

    One scalar draw per call, in stream order, each of its own index.
    """
    index = itertools.count()

    def uniform(low, high):
        return low + (high - low) * float(rng.uniforms(seed, next(index), 1)[0])

    return uniform


def _scalar_check(grid, perturb=()):
    """The closed-form check one draw at a time, through the scalar API.

    perturb holds (draw, k, part, delta): delta is added to that draw's
    closed-form bin k, part "c" or "s". Returns (draws, numeric,
    predicted, worst, verdict), verdict as the check reports it.
    """
    uniform = _scalar_draws(3)
    draws, numeric, predicted = [], [], []
    worst, verdict = 0.0, None
    for draw in range(1000):
        a = uniform(0.0, 2.0)
        b = uniform(0.0, 2.0)
        phi = uniform(0.0, 2 * math.pi)
        pump_phase = uniform(0.0, 2 * math.pi)
        medium = SusceptibilityProfile(
            chi1=uniform(0.5, 2.0),
            chi2=uniform(-1.0, 1.0),
            eps0=uniform(0.5, 2.0),
        )
        series = synthesize(
            [
                HarmonicComponent(1, a * math.cos(phi), -a * math.sin(phi)),
                pump_carrier(b, pump_phase),
            ],
            grid,
        )
        polarization = TimeSeries(grid, polarization_values(series.values, medium))
        scale = 1.0 / medium.eps0
        num = [lockin_extract(polarization, k) for k in range(5)]
        num = [HarmonicComponent(n.k, scale * n.c, scale * n.s) for n in num]
        lines = predict_spectrum(a, b, phi, pump_phase, medium.chi1, medium.chi2, 0.0)
        pred = [HarmonicComponent(k, c, s) for k, (c, s) in enumerate(lines[:5])]
        for at, k, part, delta in perturb:
            if at == draw:
                pred[k] = replace(pred[k], **{part: getattr(pred[k], part) + delta})
        draws.append((a, b, phi, pump_phase, medium.chi1, medium.chi2, medium.eps0))
        numeric.append([(line.c, line.s) for line in num])
        predicted.append([(line.c, line.s) for line in pred])
        for n, p in zip(num, pred):
            for got, want in ((n.c, p.c), (n.s, p.s)):
                err = abs(got - want)
                tol = 1e-9 * abs(want) + 1e-12
                if verdict is None and err > tol:
                    verdict = False, f"bin k={n.k} off by {err:.3e} (tol {tol:.3e})"
                worst = max(worst, err / tol)
    if verdict is None:
        verdict = True, f"1000 draws, worst deviation at {worst:.3f} of tolerance"
    return np.array(draws), np.array(numeric), np.array(predicted), worst, verdict


def _bits(array):
    return np.ascontiguousarray(array, dtype=float).tobytes()


def _grid_id(grid):
    return f"{grid.samples_per_period}x{grid.n_periods}"


@pytest.mark.parametrize("grid", GRIDS, ids=_grid_id)
def test_batched_check_has_the_scalar_pipelines_bits(grid):
    _, numeric, predicted, worst, verdict = _scalar_check(grid)
    got = validate._closed_form_spectra(grid)
    assert _bits(got[0]) == _bits(numeric)
    assert _bits(got[1]) == _bits(predicted)
    assert validate._closed_form_worst(*got) == (worst, None)
    cfg = RunConfig(samples_per_period=grid.samples_per_period, n_periods=grid.n_periods)
    assert verdict[0]
    assert validate.check_closed_form_equivalence(SharedInputs(cfg)) == verdict


# blocks of 1 column (a width-1 lock-in), short ones, and one for every draw
@pytest.mark.parametrize("block", [1, 7, 1000])
def test_batched_check_does_not_depend_on_the_block_width(block, monkeypatch):
    grid = GRIDS[1]
    want = validate._closed_form_spectra(grid)
    monkeypatch.setattr(validate, "BLOCK", block)
    got = validate._closed_form_spectra(grid)
    assert [_bits(x) for x in got] == [_bits(x) for x in want]


def _perturbed_lines(perturb):
    """predict_spectrum with deltas added, each at (draw, k, part, delta)."""

    def lines(*args):
        out = [
            [np.array(np.broadcast_to(x, args[0].shape)) for x in line]
            for line in spectral.predict_spectrum(*args)
        ]
        for draw, k, part, delta in perturb:
            out[k]["cs".index(part)][draw] += delta
        return out

    return lines


# the first failure is reported by draw, then by bin k, c before s
@pytest.mark.parametrize(
    "perturb",
    [
        [(637, 3, "s", 1e-6)],
        [(900, 0, "c", 1e-6), (637, 3, "s", 1e-6)],
        [(5, 4, "s", 1e-11), (5, 2, "c", 1e-6)],
        [(999, 1, "s", 1e-6), (999, 1, "c", -1e-6)],
        [(128, 0, "c", 1e-6)],
    ],
    ids=str,
)
def test_a_perturbed_closed_form_fails_as_the_scalar_loop_does(perturb, monkeypatch):
    grid = GRIDS[0]
    want = _scalar_check(grid, perturb)[4]
    monkeypatch.setattr(validate, "predict_spectrum", _perturbed_lines(perturb))
    got = validate.check_closed_form_equivalence(SharedInputs(RunConfig()))
    assert not got[0]
    assert got == want


def test_the_first_reported_failure_is_pinned(monkeypatch):
    perturb = [(637, 3, "s", 1e-6)]
    monkeypatch.setattr(validate, "predict_spectrum", _perturbed_lines(perturb))
    got = validate.check_closed_form_equivalence(SharedInputs(RunConfig()))
    # draw 637's closed-form s of bin 3 is 0.25293..., so tol 2.539e-10
    assert got == (False, "bin k=3 off by 1.000e-06 (tol 2.539e-10)")


@pytest.fixture
def nan_lockin(monkeypatch):
    """Every lock-in coefficient of bins k >= 1 is NaN, stacked passes too."""
    lockin = spectral._lockin

    def nan_lockin(block, references, scale, out, scratch):
        out = lockin(block, references, scale, out, scratch)
        out[...] = np.nan
        return out

    monkeypatch.setattr(spectral, "_lockin", nan_lockin)


@pytest.mark.parametrize(
    "check, detail",
    [
        (validate.check_lockin_exactness, "coefficient error is not finite (nan)"),
        (validate.check_parseval, "relative Parseval error is not finite (nan)"),
        (validate.check_closed_form_equivalence, "bin k=1 deviation is not finite (nan)"),
        (
            validate.check_oracle_equivalence,
            "per-realization deviation is not finite (nan)",
        ),
    ],
    ids=lambda x: getattr(x, "__name__", ""),
)
def test_a_nan_deviation_fails(check, detail, nan_lockin):
    assert check(SharedInputs(RunConfig())) == (False, detail)


def test_a_nan_one_period_deviation_keeps_the_sample_counts(nan_lockin):
    got = validate.check_one_period_lockin(SharedInputs(RunConfig()))
    want = "6-sample period vs 64x1 grid: per-realization deviation is not finite (nan)"
    assert got == (False, want)


@pytest.mark.parametrize(
    "check", [validate.check_vacuum_scan_flat, validate.check_heisenberg_symplectic]
)
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_a_non_finite_scan_covariance_fails(check, value):
    # squeezing_report raises on it; the check fails and names it instead
    shared = SharedInputs(RunConfig())
    sums = np.array([0.0, 0.0, value, 0.0, 1.0])
    scan = sums_scan(sums, 2, np.zeros(2), default_thetas(3))
    shared.scans = (scan, scan)
    ok, detail = check(shared)
    assert not ok
    assert detail == f"scan covariance is not finite ({scan.cov.tolist()})"


def test_a_nan_lockin_fails_validate_and_scan(nan_lockin, tmp_path, capsys):
    # validate fails its checks with exit 1, where the scan's report raised
    assert main(["validate"]) == 1
    out = capsys.readouterr().out
    assert "FAIL vacuum-scan-flat: scan covariance is not finite" in out
    assert main(["scan", "-o", str(tmp_path / "scan.csv")]) == 2
    assert "is not finite" in capsys.readouterr().err


def _per_draw_worst(grid):
    """Worst values of lockin-exactness and parseval, one draw at a time.

    The loops the stacked checks replaced: scalar draws, synthesize, then
    lockin_extract per bin, or every bin's lockin_extract and the two mean
    squares.
    """
    k_max = grid.max_harmonic()

    def carriers(uniform):
        comps = [HarmonicComponent(0, uniform(-2.0, 2.0))]
        comps += [
            HarmonicComponent(k, uniform(-2.0, 2.0), uniform(-2.0, 2.0))
            for k in range(1, k_max + 1)
        ]
        return comps

    uniform = _scalar_draws(1)
    errors = []
    for _ in range(validate.LINE_DRAWS):
        comps = carriers(uniform)
        series = synthesize(comps, grid)
        for comp in comps:
            got = lockin_extract(series, comp.k)
            errors += abs(got.c - comp.c), abs(got.s - comp.s)
    uniform = _scalar_draws(2)
    relative = []
    for _ in range(validate.LINE_DRAWS):
        series = synthesize(carriers(uniform), grid)
        ms = float(np.mean(series.values**2))
        spectrum = [lockin_extract(series, k) for k in range(k_max + 1)]
        power = lines_mean_square([(comp.c, comp.s) for comp in spectrum])
        relative.append(abs(power - ms) / max(ms, 1e-30))
    return max(errors), max(relative)


def _stacked_worst(grid, monkeypatch):
    """Worst values of the two checks as run, at full precision."""
    worst = []
    monkeypatch.setattr(validate, "_bounded", lambda value, *_: worst.append(value))
    cfg = RunConfig(samples_per_period=grid.samples_per_period, n_periods=grid.n_periods)
    validate.check_lockin_exactness(SharedInputs(cfg))
    validate.check_parseval(SharedInputs(cfg))
    return tuple(worst)


@pytest.mark.parametrize("grid", GRIDS, ids=_grid_id)
def test_stacked_lockin_checks_have_the_per_draw_worst_values(grid, monkeypatch):
    # the (draws, 2 k_max + 1) table holds the scalar draws, value for value
    k_max = grid.max_harmonic()
    uniform = _scalar_draws(1)
    scalar = [uniform(-2.0, 2.0) for _ in range(validate.LINE_DRAWS * (2 * k_max + 1))]
    lines = validate._random_lines(1, k_max)
    table = np.concatenate([lines[:, :1, 0], lines[:, 1:].reshape(len(lines), -1)], axis=1)
    assert _bits(table) == _bits(scalar)
    want = [value.hex() for value in _per_draw_worst(grid)]
    assert [value.hex() for value in _stacked_worst(grid, monkeypatch)] == want


@pytest.mark.parametrize(
    "check",
    [validate.check_lockin_exactness, validate.check_parseval],
    ids=lambda check: check.__name__,
)
def test_lockin_checks_do_not_sum_per_draw(check, monkeypatch):
    # each check sums its columns in a few stacked passes; a loop over its
    # draws would make at least one pass per draw
    calls = itertools.count()
    column_sums = spectral._column_sums

    def counted(block):
        next(calls)
        return column_sums(block)

    monkeypatch.setattr(spectral, "_column_sums", counted)
    monkeypatch.setattr(validate, "_column_sums", counted)
    assert check(SharedInputs(RunConfig()))[0]
    assert 0 < next(calls) < validate.LINE_DRAWS


def test_an_infinite_closed_form_fails(monkeypatch):
    perturb = [(3, 2, "c", math.inf)]
    monkeypatch.setattr(validate, "predict_spectrum", _perturbed_lines(perturb))
    got = validate.check_closed_form_equivalence(SharedInputs(RunConfig()))
    assert got == (False, "bin k=2 deviation is not finite (inf)")


# the chi2 media are named by their chi3
@pytest.mark.parametrize(
    "chi2, chi3",
    [
        pytest.param(0.5, 0.0, id="0.0"),
        pytest.param(0.5, 0.05, id="0.05"),
        pytest.param(0.0, 0.0, id="linear"),
    ],
)
def test_one_period_lockin_catches_an_aliasing_period(chi2, chi3, monkeypatch):
    # the channel traces another period while require_alias_free still
    # passes. A k = 1 lock-in on N samples reads every order j = +-1 mod N,
    # and the pumped output of degree d stops at order 2d: so N = 2d + 1
    # (the period of the fundamental's harmonics alone, without the 2*omega
    # pump) folds order 2d onto k = 1, while every N from channel_samples
    # up to the configured grid's bound is exact
    cfg = with_overrides(RunConfig(), chi2=chi2, chi3=chi3)
    degree = polynomial_degree(cfg.medium)
    exact = range(channel_samples(cfg.medium), alias_free_samples(cfg.medium) + 1)
    assert 2 * degree + 1 not in exact
    for samples in (2 * degree + 1, *exact):
        monkeypatch.setattr(ensemble, "channel_samples", lambda medium: samples)
        if samples < 5:
            # a linear medium's 2d + 1 = 3 samples cannot hold the pump at all
            with pytest.raises(ValueError, match="harmonic k=2 aliases"):
                validate.check_one_period_lockin(SharedInputs(cfg))
        else:
            assert validate.check_one_period_lockin(SharedInputs(cfg))[0] is (samples in exact)


def test_one_period_lockin_keeps_the_span_buffers_short(monkeypatch):
    # the reference runs on its own blocks: the held span buffers keep the
    # height of the channel's period
    cfg = RunConfig()
    monkeypatch.delattr(ensemble._held, "buffers", raising=False)
    assert validate.check_one_period_lockin(SharedInputs(cfg))[0]
    buffers = ensemble._held.buffers
    assert len(buffers) == 3
    assert all(buffer.shape[0] <= channel_samples(cfg.medium) for buffer in buffers)


@pytest.mark.parametrize(
    "check", [validate.check_oracle_equivalence, validate.check_one_period_lockin],
    ids=lambda check: check.__name__,
)
def test_lockin_checks_pass_at_a_large_var_zp(check):
    # the traces' E^2 term sets the lock-in's rounding, far above 1e-10
    # and above 1e-13 of the k = 1 output at var_zp = 1e10
    ok, detail = check(SharedInputs(with_overrides(RunConfig(), var_zp=1e10)))
    assert ok, detail


RUN_CONFIGS = [
    {},
    {"chi3": 0.05, "samples_per_period": 64},
    {"pump_phase_deg": 37.0},
    {"var_zp": 2.5, "seed": 9},
]


def _standalone(cfg):
    return [(name, *check(SharedInputs(cfg))) for name, check in validate.CHECKS]


@pytest.mark.parametrize("overrides", RUN_CONFIGS, ids=str)
def test_run_all_matches_each_check_called_alone(overrides):
    cfg = with_overrides(RunConfig(), **overrides)
    assert validate.run_all(cfg) == _standalone(cfg)


def _owner(array):
    while array.base is not None:
        array = array.base
    return array


def test_run_all_keeps_nothing_it_sampled(monkeypatch):
    # back-to-back runs on two seeds each give their own results, and no
    # sampled or propagated array outlives its run
    made = []
    for name in ("sample_state_array", "propagate_ensemble"):
        original = getattr(validate, name)

        def recorded(*args, original=original, **kwargs):
            out = original(*args, **kwargs)
            made.append(weakref.ref(_owner(out)))
            return out

        monkeypatch.setattr(validate, name, recorded)
    cfgs = [with_overrides(RunConfig(), seed=seed) for seed in (5, 6)]
    got = [validate.run_all(cfg) for cfg in cfgs]
    # per run: the shared draws, determinism's three slices, and two propagations
    assert len(made) == 6 * len(cfgs)
    gc.collect()
    assert [ref() for ref in made] == [None] * len(made)
    monkeypatch.undo()
    assert got[0] != got[1]
    assert got == [_standalone(cfg) for cfg in cfgs]


# at n = 1e4 the sampled product's relative sd, about 2/sqrt(n - 1), is
# 0.02, and a fixed bound of 0.03 failed 26 of these 200 seeds
@pytest.mark.parametrize("n, seeds", [(10_000, range(1000, 1200)), (100_000, range(1000, 1100))])
def test_heisenberg_symplectic_passes_a_correct_pipeline_on_every_seed(n, seeds):
    failed = []
    for seed in seeds:
        cfg = with_overrides(RunConfig(), n_realizations=n, seed=seed)
        ok, detail = validate.check_heisenberg_symplectic(SharedInputs(cfg))
        if not ok:
            failed.append((seed, detail))
    assert failed == []
