"""Acceptance gate: the eight end-to-end checks the simulator must pass.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or on
failure) and enforces its tolerance exactly as stated:

1 closed-form equivalence over >= 1000 random draws, < 5 s
2 band limit of the polynomial medium (quadratic -> k <= 4, cubic -> k <= 6)
3 per-realization pipeline == closed-form map for 10^4 vacuum draws
4 phase rule: amplitude gain 1-r at phi=0, 1+r at phi=90 deg
5 squeezing statistics at n = 10^5, r = 0.5, plus pump-off control, < 20 s
6 uncertainty products: symplectic at the vacuum bound, raw at (1-r^2)^2
7 figure data contracts: 2f envelope oscillation, 90 deg squeezing swap
8 worker-count determinism of CLI CSV output
"""

import math
import os
import subprocess
import sys
import time

import numpy as np

from opasim.config import RunConfig, with_overrides
from opasim.ensemble import (
    EnsembleConfig,
    GaussianState,
    VacuumConvention,
    default_thetas,
    propagate_ensemble,
    sample_state_array,
    scan_state,
    squeezing_report,
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
from opasim.figures import emit_figure
from opasim.medium import SusceptibilityProfile, polarization_values
from opasim.oracle import PassGain, map_quadratures, single_pass
from opasim.spectral import lockin_extract, predict_spectrum

GRID = TimeGrid(64, 4)
VAC = VacuumConvention(1.0)
SEED = 20260811


def report(num: int, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}"
    print(line)
    assert ok, line


def _lines(series, medium, k_max):
    """Bins k = 0..k_max of the medium's polarization of a series, one lock-in each."""
    polarization = TimeSeries(series.grid, polarization_values(series.values, medium))
    return [lockin_extract(polarization, k) for k in range(k_max + 1)]


def test_c1_closed_form_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        a = float(rng.uniform(0.0, 2.0))
        b = float(rng.uniform(0.0, 2.0))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        medium = SusceptibilityProfile(
            chi1=float(rng.uniform(0.5, 2.0)), chi2=float(rng.uniform(-1.0, 1.0))
        )
        series = synthesize(
            [
                HarmonicComponent(1, a * math.cos(phi), -a * math.sin(phi)),
                pump_carrier(b),
            ],
            GRID,
        )
        scale = 1.0 / medium.eps0
        predicted = predict_spectrum(a, b, phi, 0.0, medium.chi1, medium.chi2, 0.0)
        for num, pred in zip(_lines(series, medium, 4), predicted):
            for got, want in zip((scale * num.c, scale * num.s), pred):
                # 1e-9 relative, 1e-12 absolute floor for zero bins
                err = abs(got - want)
                tol = 1e-9 * abs(want) + 1e-12
                assert err <= tol, f"bin k={num.k}: |{got} - {want}| > {tol}"
                worst = max(worst, err / tol)
    elapsed = time.perf_counter() - start
    report(
        1,
        elapsed < 5.0,
        f"closed-form equivalence, 1000 draws, worst deviation at "
        f"{worst:.3f} of tolerance, {elapsed:.2f} s (< 5 s)",
    )


def test_c2_band_limit():
    series = synthesize(
        [HarmonicComponent(1, 1.1, -0.6), pump_carrier(0.9)], GRID
    )
    quadratic = SusceptibilityProfile(chi1=1.0, chi2=0.6)
    spectrum = _lines(series, quadratic, 10)
    high_q = max(spectrum[k].magnitude for k in range(5, 11))

    cubic = SusceptibilityProfile(chi1=1.0, chi2=0.6, chi3=0.08)
    spectrum3 = _lines(series, cubic, 10)
    k5 = spectrum3[5].magnitude
    k6 = spectrum3[6].magnitude
    high_c = max(spectrum3[k].magnitude for k in range(7, 11))

    ok = high_q < 1e-12 and k5 > 1e-6 and k6 > 1e-6 and high_c < 1e-12
    report(
        2,
        ok,
        f"band limit: quadratic residue {high_q:.2e} < 1e-12; cubic fills "
        f"k=5 ({k5:.2e}), k=6 ({k6:.2e}), residue above {high_c:.2e} < 1e-12",
    )


def test_c3_per_realization_oracle_equivalence():
    medium = SusceptibilityProfile(chi1=1.0, chi2=0.5)  # r = 0.5 with B = 1
    ens = EnsembleConfig(10_000, SEED)
    pairs = sample_state_array(GaussianState.vacuum(VAC), ens)
    out = propagate_ensemble(pairs, 1.0, 0.0, medium)
    expected = pairs * np.array([0.5, 1.5])
    worst = float(np.max(np.abs(out - expected)))
    report(
        3,
        worst <= 1e-10,
        f"oracle equivalence on 10^4 realizations, max deviation {worst:.2e} "
        "(<= 1e-10)",
    )


def test_c4_phase_rule():
    worst = 0.0
    for r in (0.1, 0.3, 0.5):
        medium = SusceptibilityProfile(chi1=1.0, chi2=r)  # B = 1
        gain = PassGain(r)
        for phi_deg, expected in ((0.0, 1.0 - r), (90.0, 1.0 + r)):
            phi = math.radians(phi_deg)
            q = QuadraturePair.from_amplitude_phase(1.0, phi)
            mean = single_pass(GaussianState.coherent(q, VAC), gain).mean
            analytic = math.hypot(mean.x1, mean.x2)
            out = propagate_ensemble(np.array([[q.x1, q.x2]]), 1.0, 0.0, medium)[0]
            numeric = math.hypot(out[0], out[1])
            worst = max(worst, abs(analytic - expected), abs(numeric - expected))
    report(
        4,
        worst <= 1e-9,
        f"phase rule (1-r at 0 deg, 1+r at 90 deg) for r in {{0.1, 0.3, 0.5}}, "
        f"max deviation {worst:.2e} (<= 1e-9)",
    )


def test_c5_squeezing_statistics():
    start = time.perf_counter()
    n = 100_000
    medium = SusceptibilityProfile(chi1=1.0, chi2=0.5)
    ens = EnsembleConfig(n, SEED)
    pairs = sample_state_array(GaussianState.vacuum(VAC), ens)

    out = propagate_ensemble(pairs, 1.0, 0.0, medium)
    scan = variance_scan(out, default_thetas(181))
    rep = squeezing_report(scan, VAC)
    ok_min = abs(rep.v_min / VAC.var_zp - 0.25) <= 0.25 * 0.02
    ok_max = abs(rep.v_max / VAC.var_zp - 2.25) <= 2.25 * 0.02
    ok_db = abs(rep.squeeze_db - (-6.0206)) <= 0.09

    control = propagate_ensemble(pairs, 0.0, 0.0, medium)
    rep0 = squeezing_report(variance_scan(control, default_thetas(181)), VAC)
    ok_flat = abs(rep0.squeeze_db) <= 0.09 and abs(rep0.antisqueeze_db) <= 0.09

    elapsed = time.perf_counter() - start
    report(
        5,
        ok_min and ok_max and ok_db and ok_flat and elapsed < 20.0,
        f"statistics at n=10^5: V_min/var_zp = {rep.v_min:.4f} (0.25 +- 2%), "
        f"V_max/var_zp = {rep.v_max:.4f} (2.25 +- 2%), squeeze "
        f"{rep.squeeze_db:+.3f} dB (-6.02 +- 0.09), control "
        f"{rep0.squeeze_db:+.3f}/{rep0.antisqueeze_db:+.3f} dB (0 +- 0.09), "
        f"{elapsed:.2f} s (< 20 s)",
    )


def test_c6_uncertainty_products():
    gain = PassGain(0.5, "symplectic")
    oracle_state = single_pass(GaussianState.vacuum(VAC), gain)
    det = float(np.linalg.det(oracle_state.cov))
    oracle_scan = scan_state(oracle_state, default_thetas(181))
    oracle_rep = squeezing_report(oracle_scan, VAC)
    ok_oracle = (
        abs(det - VAC.var_zp**2) <= 1e-10
        and abs(oracle_rep.uncertainty_product - VAC.var_zp**2) <= 1e-10
    )

    ens = EnsembleConfig(100_000, SEED)
    pairs = sample_state_array(GaussianState.vacuum(VAC), ens)
    mapped = map_quadratures(pairs, gain)
    mc_rep = squeezing_report(variance_scan(mapped, default_thetas(181)), VAC)
    ok_mc = abs(mc_rep.uncertainty_product / VAC.var_zp**2 - 1.0) <= 0.03

    raw_state = single_pass(GaussianState.vacuum(VAC), PassGain(0.5))
    raw_product = float(raw_state.cov[0, 0] * raw_state.cov[1, 1])
    ok_raw = raw_product == (1.0 - 0.5**2) ** 2

    report(
        6,
        ok_oracle and ok_mc and ok_raw,
        f"uncertainty products: symplectic oracle det {det:.12f} (1 +- 1e-10), "
        f"Monte-Carlo product {mc_rep.uncertainty_product:.4f} (1 +- 3%), raw "
        f"product {raw_product} == (1 - r^2)^2",
    )


def _theta_min_deg(table) -> float:
    theta_deg, variance = table.columns[0], table.columns[1]
    return float(theta_deg[int(np.argmin(variance))])


def test_c7_figure_contracts():
    fig2_cfg = with_overrides(RunConfig(), n_realizations=30_000, seed=SEED)
    tables = {t.name: t for t in emit_figure("fig2", fig2_cfg)}
    std = tables["fig2_output"].columns[2]
    squared = TimeSeries(fig2_cfg.grid(), std**2)
    mags = [lockin_extract(squared, k).magnitude for k in range(9)]
    dominant = int(np.argmax(mags[1:])) + 1

    fig3_cfg = with_overrides(RunConfig(), A=3.0, n_realizations=30_000, seed=SEED)
    flip_cfg = with_overrides(fig3_cfg, pump_phase_deg=180.0)
    base_min = _theta_min_deg(
        {t.name: t for t in emit_figure("fig3", fig3_cfg)}["fig3_scan"]
    )
    flip_min = _theta_min_deg(
        {t.name: t for t in emit_figure("fig3", flip_cfg)}["fig3_scan"]
    )
    move = abs(base_min - flip_min) % 180.0
    move = min(move, 180.0 - move)

    ok = dominant == 2 and abs(move - 90.0) <= 2.0
    report(
        7,
        ok,
        f"figure contracts: squared fig2 envelope dominant non-DC bin k={dominant} "
        f"(expect 2); fig3 pump flip moves theta_min by {move:.1f} deg "
        "(expect 90 +- 2)",
    )


def _run_cli(args, cwd):
    # the subprocess runs in cwd, so a relative PYTHONPATH (e.g. "src")
    # must be made absolute for it to find the package
    env = dict(os.environ)
    if env.get("PYTHONPATH"):
        env["PYTHONPATH"] = os.pathsep.join(
            os.path.abspath(entry) for entry in env["PYTHONPATH"].split(os.pathsep)
        )
    return subprocess.run(
        [sys.executable, "-m", "opasim", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


def test_c8_cli_determinism(tmp_path):
    scan_args = ["scan", "--n-realizations", "30000", "--seed", str(SEED)]
    one = tmp_path / "scan_w1.csv"
    many = tmp_path / "scan_w8.csv"
    r1 = _run_cli([*scan_args, "--workers", "1", "-o", str(one)], tmp_path)
    r2 = _run_cli([*scan_args, "--workers", "8", "-o", str(many)], tmp_path)
    assert r1.returncode == 0 and r2.returncode == 0, (r1.stderr, r2.stderr)
    scan_same = one.read_bytes() == many.read_bytes()

    fig_args = ["figure", "fig2", "--n-realizations", "20000", "--seed", str(SEED)]
    d1, d2 = tmp_path / "w1", tmp_path / "w8"
    r3 = _run_cli([*fig_args, "--workers", "1", "--outdir", str(d1)], tmp_path)
    r4 = _run_cli([*fig_args, "--workers", "8", "--outdir", str(d2)], tmp_path)
    assert r3.returncode == 0 and r4.returncode == 0, (r3.stderr, r4.stderr)
    fig_same = all(
        (d1 / name).read_bytes() == (d2 / name).read_bytes()
        for name in (
            "fig2_input.csv",
            "fig2_characteristic.csv",
            "fig2_output.csv",
            "fig2_scan.csv",
        )
    )

    report(
        8,
        scan_same and fig_same,
        "determinism: 1-worker and 8-worker CLI runs are byte-identical "
        f"(scan {scan_same}, figure bundle {fig_same})",
    )
