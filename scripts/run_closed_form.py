"""Solve the analytically tractable benchmark and report the error.

With zero volatility, zero decay, unit discount, unit conversion, no scrap
and marginal profit 1/C, the exercise boundary is 1 - exp(-(T - t)).  This
script solves it on a fine grid, prints the worst node error, and shows the
policy an investor starting below the boundary would follow.
"""

import argparse
import time

import numpy as np

import capexbound as cb


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--steps", type=int, default=2000)
    ap.add_argument("--start-fraction", type=float, default=0.5,
                    help="initial capacity as a fraction of the time-zero boundary")
    args = ap.parse_args()

    grid = cb.TimeGrid.uniform(1.0, args.steps)
    coeffs = cb.CoefficientSet.build(grid, mu_C=0.0, sigma=0.0, f_C=1.0,
                                     mu_F=1.0, w=1.0, r=1.0)
    prod = cb.power_marginal(1.0, 1.0)
    scrap = cb.ZeroScrap()

    t0 = time.perf_counter()
    curve = cb.deterministic_boundary(coeffs, prod, scrap, allow_zero_scrap=True)
    elapsed = time.perf_counter() - t0

    truth = 1.0 - np.exp(-(grid.horizon - grid.nodes[:-1]))
    err = np.abs(curve.values - truth)
    print(f"solved {args.steps} nodes in {elapsed:.2f}s")
    print(f"max |yhat - closed form| = {err.max():.3e}")

    # sigma = 0: the batch is the one deterministic path
    batch = cb.simulate(coeffs, 1, cb.MEASURE_P)
    y = args.start_fraction * curve.values[0]
    nubar = cb.build_controls(curve, batch, y, coeffs).nubar[0]
    print(f"start {y:.4f} below boundary {curve.values[0]:.4f}: "
          f"initial jump {nubar[1]:.4f}, total additions {nubar[-1]:.4f}")


if __name__ == "__main__":
    main()
