#!/usr/bin/env python3
"""Sweep the pump strength and tabulate squeezing of the output state.

For each normalized pump strength r the Monte-Carlo pipeline estimate is
printed next to the closed-form values 20*log10(1 -+ |r|), in both the raw
and the determinant-preserving (symplectic) convention. A negative r
squeezes the other quadrature by the same amount.
"""

import argparse
import math

from opasim.cli import numpy_frame, realization_count, run_scan, seed_value
from opasim.config import RunConfig, with_overrides
from opasim.ensemble import GaussianState, squeezing_report
from opasim.oracle import PassGain, single_pass


def pump_ratio(text: str) -> float:
    """argparse type of an --r value: a pump ratio below threshold, |r| < 1."""
    try:
        return PassGain(float(text)).r
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# the numpy settings every opasim command runs under
@numpy_frame()
def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-realizations", type=realization_count, default=50_000)
    parser.add_argument("--seed", type=seed_value, default=20260811)
    parser.add_argument(
        "--r", type=pump_ratio, nargs="+", default=[0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 0.9]
    )
    args = parser.parse_args()

    base = with_overrides(
        RunConfig(), n_realizations=args.n_realizations, seed=args.seed
    )
    vac = base.convention()

    print(
        f"{'r':>5} {'mc_sqz_db':>10} {'raw_sqz_db':>11} {'mc_anti_db':>11} "
        f"{'raw_anti_db':>12} {'raw_product':>12} {'symp_anti_db':>13}"
    )
    for r in args.r:
        # the default medium (chi1 = 1) and pump (B = 1), so chi2 is the ratio
        rep = squeezing_report(run_scan(with_overrides(base, chi2=r)), vac)
        # the closed forms of |r|, whose sine quadrature is the anti-squeezed one
        a = abs(r)
        raw = single_pass(GaussianState.vacuum(vac), PassGain(a))
        symp = single_pass(GaussianState.vacuum(vac), PassGain(a, "symplectic"))
        print(
            f"{r:>5.2f} {rep.squeeze_db:>10.3f} {20 * math.log10(1 - a):>11.3f} "
            f"{rep.antisqueeze_db:>11.3f} {20 * math.log10(1 + a):>12.3f} "
            f"{float(raw.cov[0, 0] * raw.cov[1, 1]):>12.5f} "
            f"{10 * math.log10(symp.cov[1, 1]):>13.3f}"
        )


if __name__ == "__main__":
    main()
