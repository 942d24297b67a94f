import gc
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from opasim import cli, ensemble, rng
from opasim.cli import main
from opasim.config import RUN_FIELDS, RunConfig, from_json, with_overrides
from opasim.ensemble import UFUNC_BUFFER

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConfigCommand:
    def test_print_defaults_is_valid_json(self, capsys):
        code, out, _ = run_cli(["config", "--print-defaults"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["grid"]["samples_per_period"] == 64
        assert doc["mode"] == "raw"

    def test_effective_config_reflects_overrides(self, capsys):
        code, out, _ = run_cli(["config", "--A", "2.5", "--chi2", "0.1"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["A"] == 2.5
        assert doc["medium"]["chi2"] == 0.1

    def test_config_file_and_override(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text('{"A": 1.0, "B": 0.5}')
        code, out, _ = run_cli(
            ["config", "--config", str(path), "--B", "0.75"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["A"] == 1.0 and doc["B"] == 0.75

    @pytest.mark.parametrize("run_field", RUN_FIELDS, ids=lambda f: f.name)
    def test_every_field_has_a_json_key_and_a_flag(self, run_field, capsys):
        default = getattr(RunConfig(), run_field.name)
        if run_field.choices:
            value = next(c for c in run_field.choices if c != default)
        else:
            value = default + (1 if run_field.type is int else 0.25)
        flag = "--" + run_field.name.replace("_", "-")
        code, out, _ = run_cli(["config", flag, str(value)], capsys)
        assert code == 0
        doc = json.loads(out)
        section = doc if run_field.section is None else doc[run_field.section]
        assert section[run_field.name] == value
        assert from_json(out) == with_overrides(RunConfig(), **{run_field.name: value})

    def test_bad_config_file_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"unknown_key": 1}')
        code, _, err = run_cli(["config", "--config", str(path)], capsys)
        assert code == 2
        assert "unknown" in err

    @pytest.mark.parametrize(
        "flags", [["--var-zp", "0"], ["--config", "{bad}"]], ids=" ".join
    )
    def test_print_defaults_checks_its_flags(self, flags, tmp_path, capsys):
        # the defaults are printed only once every flag has loaded, as for any command
        path = tmp_path / "bad.json"
        path.write_text('{"unknown_key": 1}')
        flags = [flag.format(bad=path) for flag in flags]
        code, out, err = run_cli(["config", "--print-defaults", *flags], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ")


class TestSpectrumCommand:
    def test_destructive_interference_row(self, capsys):
        code, out, _ = run_cli(
            ["spectrum", "--A", "1", "--B", "1", "--chi1", "1", "--chi2", "1"],
            capsys,
        )
        assert code == 0
        rows = out.strip().splitlines()
        k1 = rows[2].split()
        assert abs(float(k1[1])) < 1e-12  # c of the omega bin
        assert "max deviation" in rows[-1]

    def test_pump_only_lines(self, capsys):
        code, out, _ = run_cli(
            ["spectrum", "--A", "0", "--B", "2", "--chi1", "1", "--chi2", "1"],
            capsys,
        )
        assert code == 0
        rows = out.strip().splitlines()
        dc = rows[1].split()
        k4 = rows[5].split()
        assert float(dc[1]) == pytest.approx(2.0, abs=1e-12)
        assert float(k4[1]) == pytest.approx(2.0, abs=1e-12)

    def test_zero_input_zero_table(self, capsys):
        code, out, _ = run_cli(["spectrum", "--A", "0", "--B", "0"], capsys)
        assert code == 0
        for row in out.strip().splitlines()[1:-1]:
            assert abs(float(row.split()[1])) < 1e-14

    # spectrum reads bins 0..min(6, max_harmonic): 9 samples resolve k <= 4
    @pytest.mark.parametrize("spp, k_max", [(9, 4), (12, 5), (13, 6)])
    def test_reads_every_bin_the_grid_resolves(self, spp, k_max, capsys):
        argv = ["spectrum", "--samples-per-period", str(spp), "--n-periods", "1"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        rows = out.strip().splitlines()
        assert [int(row.split()[0]) for row in rows[1:-1]] == list(range(k_max + 1))
        assert float(rows[-1].split()[3]) <= 1e-9

    def test_kerr_medium_at_any_pump_phase(self, capsys):
        argv = ["spectrum", "--chi3", "0.1", "--pump-phase-deg", "90"]
        argv += ["--samples-per-period", "13", "--A", "0.7"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        rows = out.strip().splitlines()
        assert [int(row.split()[0]) for row in rows[1:-1]] == list(range(7))
        assert float(rows[-1].split()[3]) <= 1e-9

    # whole turns are phase 0, however many: the phase is reduced before radians
    @pytest.mark.parametrize("degrees", ["360", "-720", "3.6e12"])
    def test_whole_turns_of_pump_phase_are_phase_0(self, degrees, tmp_path, capsys):
        base = ["spectrum", "--A", "0.5"]
        assert run_cli([*base, "--pump-phase-deg", degrees], capsys) == run_cli(base, capsys)
        scans = []
        for phase in ("0", degrees):
            target = tmp_path / f"{phase}.csv"
            argv = ["scan", "--n-realizations", "9000", "--pump-phase-deg", phase]
            assert run_cli([*argv, "-o", str(target)], capsys)[0] == 0
            scans.append(target.read_bytes())
        assert scans[0] == scans[1]

    # spectrum has the bounds every subcommand has, and no bound of its own
    @pytest.mark.parametrize(
        "flags",
        [
            ["--chi3", "0.1"],
            ["--pump-phase-deg", "90"],
            ["--pump-phase-deg", "3.6e12"],
            ["--chi3", "0.1", "--samples-per-period", "12"],
            ["--chi3", "0.1", "--samples-per-period", "13"],
            ["--samples-per-period", "9"],
        ],
        ids=" ".join,
    )
    def test_exits_2_exactly_where_config_does(self, flags, capsys):
        code = run_cli(["spectrum", *flags], capsys)[0]
        assert code == run_cli(["config", *flags], capsys)[0]
        assert code in (0, 2)

    @pytest.mark.parametrize(
        "flags",
        [["--B", "1e200"], ["--chi1", "1.7e308"], ["--A", "1e200", "--B", "1"]],
        ids=" ".join,
    )
    def test_overflow_exits_2_before_any_output(self, flags, capsys):
        code, out, err = run_cli(["spectrum", *flags], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        # pytest collects warnings itself, so stderr is read from a fresh process
        result = subprocess.run(
            [sys.executable, "-m", "opasim", "spectrum", *flags],
            capture_output=True,
            text=True,
        )
        assert (result.returncode, result.stdout) == (2, "")
        assert "RuntimeWarning" not in result.stderr


class TestScanCommand:
    def test_vacuum_scan_is_flat(self, capsys):
        code, out, err = run_cli(
            ["scan", "--B", "0", "--n-realizations", "20000", "--seed", "11"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "theta_deg,variance,mean,squeeze_db"
        variances = [float(line.split(",")[1]) for line in lines[1:]]
        assert max(abs(v - 1.0) for v in variances) < 0.1
        assert "squeeze" in err

    @pytest.mark.parametrize("var_zp", ["1e-150", "1e-40"])
    def test_noise_lost_to_rounding_is_config_error(self, var_zp, tmp_path, capsys):
        # the noise vanishes when it is added to the unit pump
        target = tmp_path / "scan.csv"
        argv = ["scan", "--var-zp", var_zp, "--n-realizations", "2000", "-o", str(target)]
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert "error: the scan's covariance is all zero" in err
        assert not target.exists()

    def test_squeezed_scan_summary(self, capsys):
        code, out, err = run_cli(
            ["scan", "--n-realizations", "50000", "--seed", "5"], capsys
        )
        assert code == 0
        assert "squeeze" in err and "dB" in err
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        v0 = float(rows[0][1])
        v90 = float(rows[90][1])
        assert v0 == pytest.approx(0.25, rel=0.1)
        assert v90 == pytest.approx(2.25, rel=0.1)

    def test_summary_does_not_depend_on_thetas(self, capsys):
        argv = ["scan", "--n-realizations", "20000", "--seed", "5"]
        code, out, want = run_cli([*argv, "--thetas", "181"], capsys)
        assert code == 0 and len(out.splitlines()) == 182
        code, out, err = run_cli([*argv, "--thetas", "4"], capsys)
        assert code == 0 and len(out.splitlines()) == 5
        assert err == want
        assert want.startswith("squeeze -")

    def test_coherent_mean_column(self, capsys):
        code, out, _ = run_cli(
            ["scan", "--A", "3", "--n-realizations", "20000", "--seed", "2"],
            capsys,
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        mean0 = float(rows[0][2])
        assert mean0 == pytest.approx(1.5, abs=0.05)

    def test_symplectic_mode(self, capsys):
        code, out, _ = run_cli(
            [
                "scan",
                "--mode",
                "symplectic",
                "--n-realizations",
                "20000",
                "--seed",
                "3",
            ],
            capsys,
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        v0, v90 = float(rows[0][1]), float(rows[90][1])
        product = v0 * v90
        assert product == pytest.approx(1.0, rel=0.1)

    def test_symplectic_mode_rejects_chi3(self, capsys):
        # the symplectic map is the quadratic medium's closed form
        argv = ["scan", "--mode", "symplectic", "--chi3", "0.05"]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert "requires chi3 = 0" in err

    def test_symplectic_mode_rejects_chi3_before_sampling(self, monkeypatch, capsys):
        def sample(*args):
            raise AssertionError("sampled a configuration that is rejected")

        monkeypatch.setattr(ensemble, "sample_state_array", sample)
        monkeypatch.setattr(rng, "standard_normal_pairs", sample)
        argv = ["scan", "--mode", "symplectic", "--chi3", "0.05"]
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert "requires chi3 = 0" in err

    def test_memory_does_not_grow_with_n(self, tmp_path, capsys):
        def peak(n):
            argv = ["scan", "--n-realizations", str(n), "-o", str(tmp_path / "scan.csv")]
            tracemalloc.start()
            try:
                assert main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(ensemble.CHUNK)  # this thread's kernel buffers are kept across calls
        small, large = peak(65536), peak(4 * 65536)
        capsys.readouterr()
        assert abs(large - small) < 0.5 * 2**20

    def test_non_finite_amplitude_is_config_error(self, capsys):
        code, out, err = run_cli(["scan", "--A", "nan"], capsys)
        assert code == 2
        assert out == ""
        assert "A must be finite" in err

    def test_threshold_is_config_error(self, capsys):
        code, out, err = run_cli(["scan", "--chi2", "1"], capsys)
        assert code == 2
        assert out == ""
        assert "threshold" in err

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "scan.csv"
        code, out, _ = run_cli(
            [
                "scan",
                "--n-realizations",
                "5000",
                "-o",
                str(target),
            ],
            capsys,
        )
        assert code == 0
        assert out == ""
        content = target.read_text()
        assert content.startswith("theta_deg,variance,mean,squeeze_db\n")
        assert content.endswith("\n")


class TestFigureCommand:
    def test_fig1a_bundle(self, tmp_path, capsys):
        code, out, _ = run_cli(
            [
                "figure",
                "fig1a",
                "--outdir",
                str(tmp_path),
                "--n-realizations",
                "5000",
            ],
            capsys,
        )
        assert code == 0
        path = tmp_path / "fig1a.csv"
        assert path.exists()
        assert str(path) in out
        header = path.read_text().splitlines()[0]
        assert header == "t,mean,std,lower,upper"

    def test_fig2_bundle_files(self, tmp_path, capsys):
        code, out, _ = run_cli(
            [
                "figure",
                "fig2",
                "--outdir",
                str(tmp_path),
                "--n-realizations",
                "5000",
            ],
            capsys,
        )
        assert code == 0
        for part in ("input", "characteristic", "output", "scan"):
            assert (tmp_path / f"fig2_{part}.csv").exists()

    def test_non_finite_pump_is_config_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["figure", "fig2", "--B", "inf", "--outdir", str(tmp_path)], capsys
        )
        assert code == 2
        assert "B must be finite" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv", [["fig2", "--B", "2"], ["fig3", "--A", "1", "--B", "2"]], ids=" ".join
    )
    def test_pump_at_threshold_is_config_error(self, argv, tmp_path, capsys):
        # r = chi2 * B / chi1 = 1 at the default medium
        code, out, err = run_cli(["figure", *argv, "--outdir", str(tmp_path)], capsys)
        assert code == 2
        assert out == ""
        assert "|r| must be < 1" in err
        assert not list(tmp_path.iterdir())

    def test_unknown_figure_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["figure", "fig7"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("argv", [["fig2"], ["fig3", "--A", "1"]], ids=" ".join)
    def test_pipeline_figure_rejects_symplectic_mode(self, argv, tmp_path, capsys):
        # the pipelines trace the raw medium: symplectic mode wrote raw bytes
        argv = ["figure", *argv, "--mode", "symplectic", "--outdir", str(tmp_path)]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert "figure fig" in err and "no symplectic mode" in err
        assert not list(tmp_path.iterdir())

    def test_fig1_follows_symplectic_mode(self, tmp_path, capsys):
        for mode in ("raw", "symplectic"):
            argv = ["figure", "fig1b", "--mode", mode, "--outdir", str(tmp_path / mode)]
            code, _, _ = run_cli([*argv, "--n-realizations", "5000"], capsys)
            assert code == 0
        assert (tmp_path / "raw" / "fig1b.csv").read_bytes() != (
            tmp_path / "symplectic" / "fig1b.csv"
        ).read_bytes()

    def test_fig3_without_displacement_is_config_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["figure", "fig3", "--outdir", str(tmp_path)], capsys
        )
        assert code == 2
        assert "coherent" in err

    @pytest.mark.parametrize("argv", [["fig2"], ["fig3", "--A", "1"]], ids=" ".join)
    def test_noise_lost_to_rounding_is_config_error(self, argv, tmp_path, capsys):
        # as in scan: the noise vanishes when it is added to the unit pump
        outdir = tmp_path / "out"
        argv = [*argv, "--var-zp", "1e-40", "--n-realizations", "2000"]
        code, out, err = run_cli(["figure", *argv, "--outdir", str(outdir)], capsys)
        assert code == 2 and out == ""
        assert "error: the scan's covariance is all zero" in err
        assert not outdir.exists()


class TestValidateCommand:
    def test_validate_passes(self, capsys):
        code, out, _ = run_cli(
            ["validate", "--n-realizations", "20000", "--thetas", "61"], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 8
        assert all(line.startswith("PASS") for line in lines)

    @pytest.mark.parametrize("thetas", ["4", "6"])
    def test_validate_does_not_depend_on_thetas(self, thetas, capsys):
        # both scan checks read the covariance, not the thetas grid: four
        # and six phases miss the antisqueezed quadrature
        code, want, _ = run_cli(["validate"], capsys)
        assert code == 0
        code, out, _ = run_cli(["validate", "--thetas", thetas], capsys)
        assert code == 0
        assert out == want

    def test_validate_passes_on_a_kerr_medium(self, capsys):
        # the pumpless scan runs without the cubic self-term, which lifts
        # every variance of an unpumped Kerr medium above the vacuum
        argv = ["validate", "--chi3", "0.05", "--A", "0.5", "--pump-phase-deg", "37"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert "PASS vacuum-scan-flat" in out
        assert "PASS one-period-lockin: 8-sample period vs 64x1 grid" in out

    @pytest.mark.parametrize("samples", ["5", "6", "7", "8"])
    def test_grid_below_the_checks_floor_is_config_error(self, samples, capsys):
        # a linear medium accepts these grids, but the checks pump chi2 media
        argv = ["validate", "--chi2", "0", "--samples-per-period", samples]
        code, out, err = run_cli([*argv, "--n-periods", "1"], capsys)
        assert code == 2 and out == ""
        assert "error: validate's checks pump a chi2 medium: " in err
        assert f"samples_per_period = {samples} aliases" in err and "greater than 8" in err

    def test_validate_passes_on_a_linear_medium(self, capsys):
        code, out, _ = run_cli(["validate", "--chi2", "0"], capsys)
        assert code == 0
        assert len(out.strip().splitlines()) == 8
        assert "PASS one-period-lockin: 5-sample period vs 64x1 grid" in out


class TestOracleCommand:
    def test_report_values(self, capsys):
        code, out, _ = run_cli(["oracle", "--A", "1", "--phi-deg", "0"], capsys)
        assert code == 0
        assert "pump ratio r        = 0.5" in out
        assert "gains (g1, g2)      = 0.5, 1.5" in out
        assert "amplitude gain      = 0.5" in out
        assert "-6.0206 dB" in out

    def test_a_pi_pump_phase_amplifies_the_carrier(self, capsys):
        code, out, _ = run_cli(["oracle", "--A", "1", "--pump-phase-deg", "180"], capsys)
        assert code == 0
        assert "amplitude gain      = 1.5 (at phi = 0 deg)" in out

    @pytest.mark.parametrize(
        "flags",
        [("--A", "1"), ("--A", "2", "--phi-deg", "30", "--pump-phase-deg", "90"),
         ("--A", "0.7", "--phi-deg", "-50", "--pump-phase-deg", "37", "--mode", "symplectic")],
        ids=" ".join,
    )
    def test_amplitude_gain_is_the_printed_mean_over_a(self, flags, capsys):
        code, out, _ = run_cli(["oracle", *flags], capsys)
        assert code == 0
        values = {}
        for line in out.splitlines():
            label, value = line.split(" = ", 1)
            values[label.rstrip()] = value
        x1, x2 = map(float, values["mean out (x1, x2)"].split(", "))
        gain = float(values["amplitude gain"].split(" (")[0])
        assert gain == math.hypot(x1, x2) / float(flags[1])

    def test_overflow_prints_only_the_error(self):
        # pytest collects warnings itself, so stderr is read from a fresh process
        result = subprocess.run(
            [sys.executable, "-m", "opasim", "oracle", "--A", "1.5e308", "--phi-deg", "90"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2 and result.stdout == ""
        assert result.stderr.splitlines() == ["error: mean must be finite"]

    def test_gain_out_of_range_is_config_error(self, capsys):
        code, _, err = run_cli(["oracle", "--chi2", "1.5"], capsys)
        assert code == 2
        assert "threshold" in err

    def test_chi3_is_config_error(self, capsys):
        # the closed form is the quadratic medium's; it would print chi3 = 0
        code, out, err = run_cli(["oracle", "--chi3", "0.05"], capsys)
        assert code == 2
        assert out == ""
        assert "requires chi3 = 0" in err

    def test_exact_extrema_off_the_theta_grid(self, capsys):
        # a 1 degree pump phase puts the squeezed axis at -0.5 degrees,
        # between the points of the 1 degree theta grid
        code, out, _ = run_cli(["oracle", "--pump-phase-deg", "1"], capsys)
        assert code == 0
        assert "v_min, v_max        = 0.25, 2.25 (theta -0.5, 89.5 deg)\n" in out
        assert "uncertainty product = 0.5625\n" in out
        assert "exact" not in out

    @pytest.mark.parametrize("thetas", ["3", "4", "181"])
    def test_extrema_do_not_depend_on_thetas(self, thetas, capsys):
        # four phases at 0, 60, 120 and 180 degrees miss the antisqueezed 90
        code, out, _ = run_cli(["oracle", "--thetas", thetas], capsys)
        assert code == 0
        assert "v_min, v_max        = 0.25, 2.25 (theta 0.0, 90.0 deg)\n" in out
        assert "squeeze, antisqueeze = -6.0206 dB, +3.5218 dB\n" in out
        assert "uncertainty product = 0.5625\n" in out

    @pytest.mark.parametrize("phase", ["0", "1"])
    def test_vacuum_mean_prints_unsigned_zeros(self, phase, capsys):
        code, out, _ = run_cli(["oracle", "--A", "0", "--pump-phase-deg", phase], capsys)
        assert code == 0
        assert "mean out (x1, x2)   = 0, 0\n" in out


class TestInProcessCalls:
    """Many main() calls in one process, as perfbench's closed loop makes them."""

    N = ("--n-realizations", "1000")

    @pytest.mark.parametrize(
        "argv",
        [
            ["scan", *N],
            ["figure", "fig2", *N, "--outdir", "{tmp}"],
            ["validate", "--n-realizations", "2000"],
            ["spectrum"],
            ["oracle"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_a_call_leaves_no_cyclic_garbage(self, argv, tmp_path, capsys):
        # the parser is built once, so a call leaves nothing for the
        # collector. config is left out: the indenting encoder of the
        # standard json module leaves its own closures in cycles
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        assert main(argv) == 0  # warm-up: imports, caches, the parser
        gc.collect()
        gc.disable()
        try:
            assert main(argv) == 0
            assert gc.collect() == 0
        finally:
            gc.enable()
        capsys.readouterr()

    def test_a_seed_does_not_reach_the_next_call(self, tmp_path, capsys):
        default = str(RunConfig().seed)
        for name, seed in (("a", ["--seed", "5"]), ("b", []), ("c", ["--seed", default])):
            assert main(["scan", *self.N, *seed, "-o", str(tmp_path / name)]) == 0
        capsys.readouterr()
        a, b, c = ((tmp_path / name).read_bytes() for name in "abc")
        assert b == c != a

    def test_an_outdir_does_not_reach_the_next_call(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        outdir = tmp_path / "x"
        assert main(["figure", "fig2", *self.N, "--outdir", str(outdir)]) == 0
        assert main(["figure", "fig1a", *self.N]) == 0
        assert (tmp_path / "fig1a.csv").exists()
        assert not (outdir / "fig1a.csv").exists()
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv, want",
        [(["config"], 0), (["scan", "--config", "{tmp}/missing.json"], 2)],
        ids=["returns 0", "exits 2"],
    )
    def test_the_frame_does_not_outlive_the_call(self, argv, want, tmp_path, capsys):
        default = np.getbufsize()
        assert default != UFUNC_BUFFER
        assert main([arg.format(tmp=tmp_path) for arg in argv]) == want
        assert np.getbufsize() == default
        capsys.readouterr()

    def test_forked_span_workers_run_in_the_frame(self, tmp_path, monkeypatch, capsys):
        seen = []

        def buffer_sizes(cfg, workers):
            def work(start, count):
                return np.array([np.getbufsize()], dtype=float)

            # three spans on two workers: the last two run in a forked child
            seen.extend(ensemble.run_spans(work, 2 * ensemble.CHUNK + 1, workers))
            vacuum = ensemble.GaussianState.vacuum()
            return ensemble.scan_state(vacuum, ensemble.default_thetas(3))

        monkeypatch.setattr(cli, "run_scan", buffer_sizes)
        monkeypatch.setattr(ensemble, "usable_cpus", lambda: 2)
        assert main(["scan", "--workers", "2", "-o", str(tmp_path / "x.csv")]) == 0
        assert [float(size) for size, in seen] == [UFUNC_BUFFER] * 3
        capsys.readouterr()


class TestEntryPoint:
    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "opasim", "config", "--print-defaults"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        json.loads(result.stdout)

    def test_usage_error_exit_code(self):
        result = subprocess.run(
            [sys.executable, "-m", "opasim", "nonsense"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate"],
            ["scan", "--n-realizations", "2000", "-o", "{out}/scan.csv"],
            ["figure", "fig2", "--n-realizations", "2000", "--outdir", "{out}"],
            ["spectrum"],
            ["oracle"],
        ],
        ids=["validate", "scan", "figure fig2", "spectrum", "oracle"],
    )
    def test_no_command_loads_numpy_random(self, argv, tmp_path):
        # every random number comes from opasim.rng; importing numpy.random
        # alone would add about 6 MB to the process's RSS
        child = (
            "import sys; from opasim.cli import main; code = main(sys.argv[1:]); "
            "print('numpy.random' in sys.modules, file=sys.stderr); sys.exit(code)"
        )
        argv = [arg.format(out=tmp_path) for arg in argv]
        result = subprocess.run(
            [sys.executable, "-c", child, *argv], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert result.stderr.splitlines()[-1] == "False"


class TestRunGuards:
    # two pairs have a singular 2x2 sample covariance, and a zero-degree
    # chi-square for heisenberg-symplectic, whatever they are
    @pytest.mark.parametrize(
        "argv", [["scan", "--seed", "5"], ["figure", "fig2"], ["validate"]], ids=" ".join
    )
    def test_two_realizations_are_config_error(self, argv, tmp_path, capsys):
        if argv[0] == "scan":
            target = ["-o", str(tmp_path / "x.csv")]
        elif argv[0] == "figure":
            target = ["--outdir", str(tmp_path / "out")]
        else:
            target = []
        code, out, err = run_cli([*argv, "--n-realizations", "2", *target], capsys)
        assert code == 2 and out == ""
        assert err == "error: n_realizations must be at least 3\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", [["scan"], ["figure", "fig2"], ["figure", "fig1b"]])
    def test_error_in_a_forked_span_is_the_serial_error(
        self, command, tmp_path, monkeypatch, capsys
    ):
        # fork whatever this host's CPU count; the third span runs in a child
        monkeypatch.setattr(ensemble, "usable_cpus", lambda: 2)
        sample = ensemble.sample_state_array

        def failing(state, cfg, start=0, count=None):
            if start >= 2 * ensemble.CHUNK:
                raise ValueError(f"no pairs at row {start}")
            return sample(state, cfg, start, count)

        monkeypatch.setattr(ensemble, "sample_state_array", failing)
        errors = []
        for workers in ("1", "2"):
            outdir = tmp_path / workers
            target = ["-o" if command[0] == "scan" else "--outdir", str(outdir)]
            argv = [*command, "--n-realizations", str(3 * ensemble.CHUNK)]
            code, out, err = run_cli([*argv, "--workers", workers, *target], capsys)
            assert code == 2 and out == "" and not outdir.exists()
            errors.append(err)
        assert errors[0] == errors[1] == f"error: no pairs at row {2 * ensemble.CHUNK}\n"
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("command", [["scan"], ["figure", "fig2"]])
    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_fewer_than_one_worker_is_usage_error(self, command, workers, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*command, "--workers", workers])
        assert excinfo.value.code == 2
        assert f"--workers: must be at least 1, got {workers}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "script, argv, message",
        [
            ("squeeze_vs_pump.py", ["--r", "0.5", "1.0"], "--r: |r| must be < 1"),
            ("squeeze_vs_pump.py", ["--n-realizations", "1"], "must be at least 3, got 1"),
            ("squeeze_vs_pump.py", ["--seed", "-1"], "--seed: must be at least 0"),
            ("make_figure_data.py", ["--n-realizations", "1"], "must be at least 3, got 1"),
            ("make_figure_data.py", ["--seed", "-1"], "--seed: must be at least 0"),
        ],
        ids=["squeeze-r", "squeeze-n", "squeeze-seed", "figures-n", "figures-seed"],
    )
    def test_script_rejects_bad_input_before_any_output(
        self, script, argv, message, tmp_path
    ):
        if script == "make_figure_data.py":
            argv = [str(tmp_path / "out"), *argv]
        result = subprocess.run(
            [sys.executable, str(SCRIPTS / script), *argv], capture_output=True, text=True
        )
        assert result.returncode == 2
        assert result.stdout == ""
        assert "error: argument" in result.stderr and message in result.stderr
        assert "Traceback" not in result.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv, spp, limit",
        [
            (["scan", "--samples-per-period", "5"], 5, 8),
            (["scan", "--chi3", "0.1", "--samples-per-period", "6"], 6, 12),
            (["figure", "fig2", "--samples-per-period", "8"], 8, 8),
            (["figure", "fig3", "--A", "1", "--samples-per-period", "8"], 8, 8),
            (["spectrum", "--samples-per-period", "8"], 8, 8),
            (["validate", "--samples-per-period", "8"], 8, 8),
            # subcommands that trace no medium share the bound
            (["scan", "--mode", "symplectic", "--samples-per-period", "8"], 8, 8),
            (["oracle", "--samples-per-period", "8"], 8, 8),
            (["figure", "fig1a", "--samples-per-period", "8"], 8, 8),
            (["config", "--samples-per-period", "8"], 8, 8),
        ],
    )
    def test_aliasing_grid_is_config_error(self, argv, spp, limit, tmp_path, capsys):
        if argv[0] == "figure":
            argv = [*argv, "--outdir", str(tmp_path)]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == "" and list(tmp_path.iterdir()) == []
        assert f"samples_per_period = {spp} " in err
        assert f"greater than {limit}" in err

    def test_aliasing_config_document_is_config_error(self, tmp_path, capsys):
        # the document is a RunConfig of its own, checked before any flag, as
        # every bound is: --chi2 0 would make its grid alias-free
        path = tmp_path / "run.json"
        path.write_text('{"grid": {"samples_per_period": 6}}')
        code, out, err = run_cli(["config", "--config", str(path), "--chi2", "0"], capsys)
        assert code == 2 and out == ""
        assert "samples_per_period = 6 aliases" in err
        path.write_text('{"band_sigma": -1}')
        code, out, err = run_cli(["config", "--config", str(path), "--band-sigma", "1"], capsys)
        assert code == 2 and out == ""
        assert "band_sigma must be positive" in err
        # the same values as flags alone are one config
        code, out, _ = run_cli(["config", "--samples-per-period", "6", "--chi2", "0"], capsys)
        assert code == 0 and json.loads(out)["grid"]["samples_per_period"] == 6

    @pytest.mark.parametrize(
        "argv",
        [
            ["scan", "--n-realizations", "2000"],
            ["scan", "--mode", "symplectic", "--n-realizations", "2000"],
            ["figure", "fig2", "--n-realizations", "2000"],
            ["figure", "fig3", "--A", "1", "--n-realizations", "2000"],
            ["figure", "fig1a", "--n-realizations", "2000"],
            ["spectrum"],
            ["validate"],
            ["oracle"],
            ["config"],
        ],
        ids=" ".join,
    )
    def test_smallest_alias_free_grid_is_accepted(self, argv, tmp_path, capsys):
        # 9 samples per period resolve the quadratic medium's k <= 4 output
        if argv[0] == "figure":
            argv = [*argv, "--outdir", str(tmp_path)]
        code, out, err = run_cli([*argv, "--samples-per-period", "9"], capsys)
        assert code == 0, err
        assert out

    @pytest.mark.parametrize("argv", [["scan"], ["oracle"], ["figure", "fig2"]], ids=" ".join)
    def test_two_phases_are_config_error(self, argv, tmp_path, capsys):
        # two phases scan {0, pi} (fig2: {0, pi, 2 pi}), one quadrature read as
        # both squeeze and antisqueeze with a sub-vacuum product v_min**2
        if argv[0] == "figure":
            argv = [*argv, "--outdir", str(tmp_path)]
        elif argv[0] == "scan":
            argv = [*argv, "-o", str(tmp_path / "scan.csv")]
        code, out, err = run_cli([*argv, "--thetas", "2", "--n-realizations", "10"], capsys)
        assert code == 2
        assert out == "" and list(tmp_path.iterdir()) == []
        assert "thetas must be at least 3, got 2" in err

    def test_three_phases_resolve_both_quadratures(self, tmp_path, capsys):
        target = tmp_path / "scan.csv"
        argv = ["scan", "--thetas", "3", "--n-realizations", "10", "-o", str(target)]
        code, _, err = run_cli(argv, capsys)
        assert code == 0
        theta_deg = [line.split(",")[0] for line in target.read_text().splitlines()[1:]]
        assert [float(theta) for theta in theta_deg] == [0.0, 90.0, 180.0]
        assert "squeeze" in err

    @pytest.mark.parametrize("grid", [[], ["--samples-per-period", "9"]])
    def test_alias_free_grid_runs(self, grid, capsys):
        code, out, _ = run_cli(["scan", "--n-realizations", "2000", *grid], capsys)
        assert code == 0
        assert len(out.strip().splitlines()) == 182

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "argv",
        [
            ["scan", "--A", "1e200"],
            # a bright band is centred on the state's mean and stays finite
            # at any A; std = 2 makes the envelope overflow
            ["figure", "fig1c", "--A", "1", "--var-zp", "4", "--band-sigma", "1e308"],
            ["figure", "fig2", "--A", "1e200"],  # the characteristic overflows
            # and so does fig3's scan, whose covariance is NaN, not all zero
            ["figure", "fig3", "--A", "1e200"],
            ["figure", "fig2", "--band-sigma", "1e308"],
        ],
        ids=" ".join,
    )
    def test_non_finite_table_is_config_error(self, argv, tmp_path, capsys):
        if argv[0] == "scan":
            target = ["-o", str(tmp_path / "x.csv")]
        else:
            target = ["--outdir", str(tmp_path)]
        code, out, err = run_cli([*argv, "--n-realizations", "1000", *target], capsys)
        assert code == 2
        assert out == "" and list(tmp_path.iterdir()) == []
        assert "error: table " in err and "is not finite" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["figure", "fig2", "--band-sigma", "1e308"],
            # overflows in the span loop under main's errstate: of 3 spans
            # on 2 workers, the last two overflow in a forked child (on a
            # host with 2 or more CPUs)
            ["scan", "--A", "1e200", "--workers", "2"],
        ],
        ids=" ".join,
    )
    def test_non_finite_table_prints_only_the_error(self, argv, tmp_path):
        # pytest collects warnings itself, so stderr is read from a fresh process
        if argv[0] == "scan":
            target = ["-o", str(tmp_path / "x.csv")]
        else:
            target = ["--outdir", str(tmp_path)]
        n = str(2 * ensemble.CHUNK + 1)
        result = subprocess.run(
            [sys.executable, "-m", "opasim", *argv, "--n-realizations", n, *target],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2
        (line,) = result.stderr.splitlines()
        assert line.startswith("error: table ") and line.endswith("is not finite")

    @pytest.mark.parametrize("var_zp", ["1e-200", "1e-160", "1e300"])
    @pytest.mark.parametrize(
        "command", [["scan"], ["figure", "fig2"], ["oracle"], ["validate"]], ids=" ".join
    )
    def test_var_zp_without_a_finite_square_is_config_error(
        self, command, var_zp, tmp_path, capsys
    ):
        # var_zp**2, the vacuum uncertainty product, underflows to zero,
        # turns subnormal or overflows
        argv = [*command, "--var-zp", var_zp]
        if command[0] == "figure":
            argv += ["--outdir", str(tmp_path)]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == "" and list(tmp_path.iterdir()) == []
        assert "error: var_zp must be positive with a finite, normal square" in err

    @pytest.mark.parametrize(
        "medium, message",
        [
            (["--eps0", "5e-324"], "eps0 must be at least 2.2250738585072014e-308"),
            (
                ["--eps0", "1e-160", "--chi1", "1e-162", "--chi2", "5e-163"],
                "eps0*chi1 must be at least 2.2250738585072014e-308",
            ),
            (
                ["--eps0", "1e-200", "--chi1", "1e-200", "--chi2", "5e-201"],
                "eps0*chi1 must be at least 2.2250738585072014e-308",
            ),
        ],
        ids=["eps0", "subnormal-divisor", "zero-divisor"],
    )
    @pytest.mark.parametrize(
        "command",
        [
            ["scan", "--n-realizations", "20000"],
            ["figure", "fig2"],
            ["spectrum"],
            ["validate"],
        ],
        ids=lambda command: command[0],
    )
    def test_subnormal_eps0_is_config_error(
        self, command, medium, message, tmp_path, capsys
    ):
        # they ran on: scan read -6.858 dB for -5.982 dB, validate failed two
        # checks, spectrum and the zero divisor failed with unrelated errors
        argv = [*command, *medium]
        if command[0] == "figure":
            argv += ["--outdir", str(tmp_path)]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == "" and list(tmp_path.iterdir()) == []
        assert f"error: {message}" in err

    def test_oracle_runs_near_the_largest_var_zp(self, capsys):
        code, out, _ = run_cli(["oracle", "--var-zp", "1e154"], capsys)
        assert code == 0
        assert "det cov / var_zp^2  = 0.5625" in out


def test_squeeze_script_tabulates_each_pump_ratio():
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / "squeeze_vs_pump.py"), "--n-realizations", "4000",
         "--r", "0.3", "0.5", "-0.3", "0.3"],
        capture_output=True,
        text=True,
        check=True,
    )
    header, *rows = result.stdout.splitlines()
    assert header.split()[:3] == ["r", "mc_sqz_db", "raw_sqz_db"]
    assert [float(row.split()[0]) for row in rows] == [0.3, 0.5, -0.3, 0.3]
    for row in rows:
        mc_db, raw_db = map(float, row.split()[1:3])
        assert mc_db == pytest.approx(raw_db, abs=0.5)
    # a negative r squeezes the other quadrature by as much: the closed-form
    # columns (raw_sqz_db, raw_anti_db, raw_product, symp_anti_db) follow |r|
    closed_form = [row.split()[i] for row in rows[2:] for i in (2, 4, 5, 6)]
    assert closed_form[:4] == closed_form[4:]
