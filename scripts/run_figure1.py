#!/usr/bin/env python3
"""Monte-Carlo sweep of max |S| over the theta grid; writes a CSV + meta file.

The full run (2e6 samples per theta, 101 thetas) takes about 6 s on two
cores and reproduces the instability profile: maxima well above 1 near
theta = 1/4, decaying to 1 around theta = 1/3, then flat at (or just below) 1.
Use --quick for a 10x cheaper pass with the same shape.
"""

import argparse
import pathlib
import sys

from mcs_adi.analysis import (
    DEFAULT_SAMPLES,
    complex_z0_scan,
    default_theta_grid,
    figure1_scan,
    write_scan_csv,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=None,
                    help=f"samples per theta (default {DEFAULT_SAMPLES})")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--threads", type=int, default=None)
    ap.add_argument("--quick", action="store_true", help="200k samples per theta")
    ap.add_argument("--complex-z0", action="store_true",
                    help="draw the mixed-term symbol with a uniform phase")
    ap.add_argument("--out", default="results/figure1.csv")
    args = ap.parse_args()

    if args.samples is not None:
        samples = args.samples
    else:
        samples = 200_000 if args.quick else DEFAULT_SAMPLES
    thetas = default_theta_grid()
    print(f"scanning {len(thetas)} theta values x {samples} samples "
          f"(seed {args.seed}, complex_z0={args.complex_z0}) ...")
    if args.complex_z0:
        report = complex_z0_scan(thetas, seed=args.seed, samples=samples,
                                 threads=args.threads)
    else:
        report = figure1_scan(seed=args.seed, samples=samples, thetas=thetas,
                              threads=args.threads)

    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_scan_csv(out, report)
    print(f"wrote {out} and {out}.meta")

    print(f"{'theta':>9}  {'max|S|':>12}")
    for theta, mx in zip(report.thetas, report.max_abs_s):
        if round(theta * 400) % 20 == 0:  # every 0.05
            print(f"{theta:9.4f}  {mx:12.8f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
