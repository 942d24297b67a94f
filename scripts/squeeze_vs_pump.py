#!/usr/bin/env python3
"""Sweep the pump strength and tabulate squeezing of the output state.

For each normalized pump strength r the Monte-Carlo pipeline estimate is
printed next to the closed-form values 20*log10(1 -+ r), in both the raw
and the determinant-preserving (symplectic) convention.
"""

import argparse
import math

from opasim.cli import realization_count, seed_value
from opasim.ensemble import (
    EnsembleConfig,
    GaussianState,
    VacuumConvention,
    default_thetas,
    propagate_ensemble,
    sample_state_array,
    squeezing_report,
    variance_scan,
)
from opasim.fields import TimeGrid
from opasim.medium import SusceptibilityProfile
from opasim.oracle import PassGain, single_pass


def pump_ratio(text: str) -> float:
    """argparse type of an --r value: a pump ratio below threshold, |r| < 1."""
    try:
        return PassGain(float(text)).r
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-realizations", type=realization_count, default=50_000)
    parser.add_argument("--seed", type=seed_value, default=20260811)
    parser.add_argument(
        "--r", type=pump_ratio, nargs="+", default=[0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 0.9]
    )
    args = parser.parse_args()

    vac = VacuumConvention()
    grid = TimeGrid()
    ens = EnsembleConfig(args.n_realizations, args.seed, grid, vac)
    pairs = sample_state_array(GaussianState.vacuum(vac), ens)
    thetas = default_thetas()

    print(
        f"{'r':>5} {'mc_sqz_db':>10} {'raw_sqz_db':>11} {'mc_anti_db':>11} "
        f"{'raw_anti_db':>12} {'raw_product':>12} {'symp_anti_db':>13}"
    )
    for r in args.r:
        medium = SusceptibilityProfile(chi1=1.0, chi2=r)
        out = propagate_ensemble(pairs, 1.0, 0.0, medium, grid)
        rep = squeezing_report(variance_scan(out, thetas), vac)
        raw = single_pass(GaussianState.vacuum(vac), PassGain(r))
        symp = single_pass(GaussianState.vacuum(vac), PassGain(r, "symplectic"))
        print(
            f"{r:>5.2f} {rep.squeeze_db:>10.3f} {20 * math.log10(1 - r):>11.3f} "
            f"{rep.antisqueeze_db:>11.3f} {20 * math.log10(1 + r):>12.3f} "
            f"{float(raw.cov[0, 0] * raw.cov[1, 1]):>12.5f} "
            f"{10 * math.log10(symp.cov[1, 1]):>13.3f}"
        )


if __name__ == "__main__":
    main()
