#!/usr/bin/env python3
"""Emit CSV data for every figure into an output directory.

Vacuum-input figures use the run defaults; the bright-state panels and
the coherent-input pipeline figure get a displacement of A = 3. Pass an
output directory (default ./figure_data).
"""

import argparse
from pathlib import Path

from opasim.cli import realization_count, seed_value, write_tables
from opasim.config import RunConfig, with_overrides
from opasim.figures import FIGURE_NAMES, emit_figure

NEEDS_DISPLACEMENT = {"fig1c", "fig1d", "fig1e", "fig3"}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("outdir", nargs="?", default="figure_data")
    parser.add_argument("--n-realizations", type=realization_count, default=100_000)
    parser.add_argument("--seed", type=seed_value, default=20260811)
    args = parser.parse_args()

    outdir = Path(args.outdir)
    base = with_overrides(
        RunConfig(), n_realizations=args.n_realizations, seed=args.seed
    )

    for name in FIGURE_NAMES:
        cfg = with_overrides(base, A=3.0) if name in NEEDS_DISPLACEMENT else base
        write_tables(emit_figure(name, cfg), outdir)
    # the phase-squeezed variant of the coherent-input figure
    flipped = with_overrides(base, A=3.0, pump_phase_deg=180.0)
    write_tables(emit_figure("fig3", flipped), outdir, "_flipped")


if __name__ == "__main__":
    main()
