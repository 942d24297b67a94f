"""Command-line front end.

Subcommands:
  spectrum   harmonic table from the numeric pipeline vs the closed form
  scan       quadrature-variance scan of the propagated ensemble (CSV)
  figure     plot-ready CSV bundles for the illustration figures
  oracle     closed-form single-pass report for the configured run
  validate   run the cross-validation suite
  config     show the effective or default run configuration

Exit codes: 0 success, 1 validation failure, 2 usage or config error.
All numeric output uses 17 significant digits and '.' decimals so runs
are reproducible byte for byte. scan and figure run their span loop on
up to --workers N processes (forked, capped at the spans and at the CPUs
this process may use); every output byte is the same for every N.
"""

from __future__ import annotations

import argparse
import math
import sys
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import config as config_mod
from .config import ConfigError, RunConfig
from .ensemble import (
    CHUNK,
    GaussianState,
    QuadratureScan,
    channel_sums,
    default_thetas,
    det2,
    medium_channel,
    numpy_frame,
    scan_state,
    squeezing_report,
    sums_scan,
)
from .fields import HarmonicComponent, QuadraturePair
from .figures import FIGURE_NAMES, FigureTable, emit_figure, scan_table
from .oracle import PassGain, gain_matrix, map_quadratures, single_pass
from .spectral import predict_spectrum, pumped_spectrum
from .validate import run_all, spectrum_floor


# every number the CLI prints: 17 significant digits round-trip a double
FLOAT_FORMAT = "%.17g"


def _fmt(x: float) -> str:
    return FLOAT_FORMAT % x


def write_csv(stream, header, columns) -> None:
    stream.write(",".join(header) + "\n")
    # one template per row instead of one _fmt call per value
    row_format = ",".join([FLOAT_FORMAT] * len(columns)) + "\n"
    # tolist() makes every value a Python float in one call; iterating an
    # array would box each one as a numpy scalar
    for row in zip(*(column.tolist() for column in columns)):
        stream.write(row_format % row)


def write_tables(tables: list[FigureTable], outdir: Path, suffix: str = "") -> None:
    """Write each table to outdir/<name><suffix>.csv and print its path."""
    outdir.mkdir(parents=True, exist_ok=True)
    for table in tables:
        path = outdir / f"{table.name}{suffix}.csv"
        with open(path, "w", newline="\n") as stream:
            write_csv(stream, table.header, table.columns)
        print(path)


def _integer(text: str, low: int, high: int | None = None) -> int:
    """An integer in [low, high), or the argparse error that names the range."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
    if high is not None and value >= high:
        raise argparse.ArgumentTypeError(f"must be below {high}, got {value}")
    return value


def worker_count(text: str) -> int:
    """argparse type of a --workers value: an integer of at least 1."""
    return _integer(text, 1)


WORKERS_HELP = (
    "run the span loop on up to N forked processes (default 1), capped at the "
    f"number of {CHUNK}-row spans and at the CPUs this process may use; the output "
    "bytes do not depend on N"
)


def realization_count(text: str) -> int:
    """argparse type of a script's --n-realizations: at least 3, as EnsembleConfig."""
    return _integer(text, 3)


def seed_value(text: str) -> int:
    """argparse type of a script's --seed: a 64-bit unsigned integer."""
    return _integer(text, 0, 2**64)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--config",
        metavar="PATH",
        help="JSON run configuration; '-' reads from stdin",
    )
    group = parser.add_argument_group("config overrides")
    for f in config_mod.RUN_FIELDS:
        group.add_argument(
            "--" + f.name.replace("_", "-"), type=f.type, choices=f.choices, help=f.help
        )


def _load_config(args) -> RunConfig:
    if args.config is None:
        cfg = RunConfig()
    elif args.config == "-":
        cfg = config_mod.from_json(sys.stdin.read())
    else:
        cfg = config_mod.from_json(Path(args.config).read_text())
    overrides = {f.name: getattr(args, f.name) for f in config_mod.RUN_FIELDS}
    return config_mod.with_overrides(cfg, **overrides)


def _require_quadratic(cfg: RunConfig, command: str) -> None:
    """Reject chi3 in a command that only knows the quadratic medium's closed form."""
    if cfg.medium.chi3 != 0.0:
        raise ConfigError(f"{command} requires chi3 = 0 (no closed form kept)")


def cmd_spectrum(cfg: RunConfig, args) -> int:
    medium, grid = cfg.medium, cfg.grid()
    # one draw through the pipeline, every bin the grid resolves up to k = 6
    draw = (cfg.A, cfg.B, cfg.phi, cfg.pump_phase, medium.chi1, medium.chi2)
    a, b, phi, psi, chi1, chi2, eps0 = np.array([*draw, medium.eps0])[:, None]
    k_max = min(6, grid.max_harmonic())
    numeric = pumped_spectrum(a, b, phi, psi, chi1, chi2, medium.chi3, eps0, grid, k_max)
    predicted = predict_spectrum(*draw, medium.chi3)[: k_max + 1]
    # an input that overflows has no spectrum to compare: exit 2 before any output
    if not (np.isfinite(numeric).all() and np.isfinite(predicted).all()):
        raise ValueError("the configured draw's spectrum is not finite (overflow)")

    out = sys.stdout
    out.write(
        f"{'k':>2} {'c_pipeline':>24} {'s_pipeline':>24} {'magnitude':>24} "
        f"{'phase_deg':>12} {'c_predicted':>24} {'s_predicted':>24} {'deviation':>12}\n"
    )
    err = np.abs(numeric[0] - predicted)
    devs = np.max(err / np.maximum(1.0, np.abs(predicted)), axis=1).tolist()
    for k, (line, (pred_c, pred_s), dev) in enumerate(zip(numeric[0].tolist(), predicted, devs)):
        comp = HarmonicComponent(k, *line)
        out.write(
            f"{k:>2} {comp.c:>24.16e} {comp.s:>24.16e} {comp.magnitude:>24.16e} "
            f"{math.degrees(comp.phase):>12.6f} {pred_c:>24.16e} {pred_s:>24.16e} "
            f"{dev:>12.3e}\n"
        )
    bound = spectrum_floor(cfg.A, cfg.B, medium.chi1, medium.chi2, medium.chi3)
    worst = float(np.max(err))
    out.write(f"max error = {worst:.3e} (bound {bound:.3e})\n")
    return 0 if worst <= bound else 1


def run_scan(cfg: RunConfig, workers: int = 1) -> QuadratureScan:
    """Scan of the configured input state sent through the configured channel.

    The span loop runs on up to ``workers`` processes (:func:`channel_sums`).
    """
    state = GaussianState.coherent(
        QuadraturePair.from_amplitude_phase(cfg.A, cfg.phi), cfg.convention()
    )
    # both modes share the map's validity bound |r| < 1
    gain = PassGain(cfg.pump_ratio, cfg.mode)
    if cfg.mode == "symplectic":
        _require_quadratic(cfg, "scan --mode symplectic")
        channel = partial(map_quadratures, gain=gain, pump_phase=cfg.pump_phase)
    else:
        channel = medium_channel(cfg.B, cfg.pump_phase, cfg.medium)
    [(sums, out_center)] = channel_sums(state, cfg.ensemble(), [(channel, 2)], workers)
    return sums_scan(sums, cfg.n_realizations, out_center, default_thetas(cfg.thetas))


def _summary_line(report) -> str:
    return (
        f"squeeze {report.squeeze_db:+.3f} dB at theta {math.degrees(report.theta_min):.1f} deg; "
        f"antisqueeze {report.antisqueeze_db:+.3f} dB at theta {math.degrees(report.theta_max):.1f} deg; "
        f"uncertainty product {report.uncertainty_product:.6g}"
    )


def cmd_scan(cfg: RunConfig, args) -> int:
    scan = run_scan(cfg, args.workers)
    convention = cfg.convention()
    # a non-finite table exits 2 naming its column
    table = scan_table("scan", scan, convention)
    # an all-zero covariance exits 2 here, before any output
    report = squeezing_report(scan, convention)
    if args.output:
        with open(args.output, "w", newline="\n") as stream:
            write_csv(stream, table.header, table.columns)
    else:
        write_csv(sys.stdout, table.header, table.columns)
    print(_summary_line(report), file=sys.stderr)
    return 0


def cmd_figure(cfg: RunConfig, args) -> int:
    if cfg.mode == "symplectic" and not args.name.startswith("fig1"):
        # fig2/fig3 trace the polynomial medium itself, which has no such mode
        raise ConfigError(
            f"figure {args.name} sends its traces through the raw medium and has "
            "no symplectic mode: use --mode raw"
        )
    write_tables(emit_figure(args.name, cfg, workers=args.workers), Path(args.outdir))
    return 0


def cmd_oracle(cfg: RunConfig, args) -> int:
    _require_quadratic(cfg, "oracle")
    gain = PassGain(cfg.pump_ratio, cfg.mode)
    g1, g2 = gain.gains()
    convention = cfg.convention()
    state_in = GaussianState.coherent(
        QuadraturePair.from_amplitude_phase(cfg.A, cfg.phi), convention
    )
    state_out = single_pass(state_in, gain, cfg.pump_phase)
    report = squeezing_report(scan_state(state_out, default_thetas(cfg.thetas)), convention)
    matrix = gain_matrix(gain, cfg.pump_phase)
    out = sys.stdout
    out.write(f"mode                = {cfg.mode}\n")
    out.write(f"pump ratio r        = {_fmt(cfg.pump_ratio)}\n")
    out.write(f"gains (g1, g2)      = {_fmt(g1)}, {_fmt(g2)}\n")
    out.write(
        f"transfer matrix     = [[{_fmt(matrix[0, 0])}, {_fmt(matrix[0, 1])}], "
        f"[{_fmt(matrix[1, 0])}, {_fmt(matrix[1, 1])}]]\n"
    )
    out.write(
        f"mean out (x1, x2)   = {_fmt(state_out.mean.x1)}, {_fmt(state_out.mean.x2)}\n"
    )
    out.write(
        f"cov out             = [[{_fmt(state_out.cov[0, 0])}, {_fmt(state_out.cov[0, 1])}], "
        f"[{_fmt(state_out.cov[1, 0])}, {_fmt(state_out.cov[1, 1])}]]\n"
    )
    out.write(f"det cov / var_zp^2  = {_fmt(det2(state_out.cov / convention.var_zp))}\n")
    if cfg.A > 0.0:
        amplitude_gain = math.hypot(state_out.mean.x1, state_out.mean.x2) / cfg.A
        out.write(
            f"amplitude gain      = {_fmt(amplitude_gain)}"
            f" (at phi = {_fmt(cfg.phi_deg)} deg)\n"
        )
    out.write(
        f"v_min, v_max        = {_fmt(report.v_min)}, {_fmt(report.v_max)} "
        f"(theta {math.degrees(report.theta_min):.1f}, {math.degrees(report.theta_max):.1f} deg)\n"
    )
    out.write(
        f"squeeze, antisqueeze = {report.squeeze_db:+.4f} dB, {report.antisqueeze_db:+.4f} dB\n"
    )
    out.write(f"uncertainty product = {_fmt(report.uncertainty_product)}\n")
    return 0


def cmd_validate(cfg: RunConfig, args) -> int:
    failures = 0
    for name, ok, detail in run_all(cfg):
        status = "PASS" if ok else "FAIL"
        print(f"{status} {name}: {detail}")
        failures += 0 if ok else 1
    if failures:
        print(f"{failures} check(s) failed", file=sys.stderr)
        return 1
    return 0


def cmd_config(cfg: RunConfig, args) -> int:
    sys.stdout.write((RunConfig() if args.print_defaults else cfg).to_json())
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The opasim parser, built once per process.

    It depends on nothing but the code, and parsing neither changes it nor
    keeps a parsed value, so every :func:`main` call shares it. A parser
    built per call would leave its ~100 actions behind as reference cycles
    until the garbage collector's oldest generation runs.
    """
    parser = argparse.ArgumentParser(
        prog="opasim",
        description="Simulator of optical parametric generation of squeezed light",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_spectrum = sub.add_parser(
        "spectrum", help="harmonic table: numeric pipeline vs closed form"
    )
    _add_config_flags(p_spectrum)
    p_spectrum.set_defaults(func=cmd_spectrum)

    p_scan = sub.add_parser("scan", help="quadrature variance scan (CSV)")
    _add_config_flags(p_scan)
    p_scan.add_argument("-o", "--output", metavar="FILE", help="write CSV here")
    p_scan.add_argument("--workers", type=worker_count, default=1, help=WORKERS_HELP)
    p_scan.set_defaults(func=cmd_scan)

    p_figure = sub.add_parser("figure", help="emit plot data for a named figure")
    p_figure.add_argument("name", choices=FIGURE_NAMES)
    _add_config_flags(p_figure)
    p_figure.add_argument("--outdir", default=".", help="directory for CSV files")
    p_figure.add_argument("--workers", type=worker_count, default=1, help=WORKERS_HELP)
    p_figure.set_defaults(func=cmd_figure)

    p_oracle = sub.add_parser("oracle", help="closed-form single-pass report")
    _add_config_flags(p_oracle)
    p_oracle.set_defaults(func=cmd_oracle)

    p_validate = sub.add_parser("validate", help="run the cross-validation suite")
    _add_config_flags(p_validate)
    p_validate.set_defaults(func=cmd_validate)

    p_config = sub.add_parser("config", help="show run configuration as JSON")
    _add_config_flags(p_config)
    p_config.add_argument(
        "--print-defaults", action="store_true", help="show built-in defaults"
    )
    p_config.set_defaults(func=cmd_config)

    return parser


def main(argv=None) -> int:
    """Run one command on its config, loaded once, in :func:`numpy_frame`.

    The span loop enters the frame itself; here it also covers each
    command's code outside that loop.
    """
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        with numpy_frame():
            return args.func(cfg, args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
