"""End-to-end demo on a stochastic Cobb-Douglas instance.

Solves the exercise boundary by Monte-Carlo backward induction, audits the
per-node residuals on a fresh seed, checks the first-order conditions at two
initial capacity levels, compares against the lattice stopping oracle, and
prints a small profit comparison.  Mirrors what `capexbound solve` followed
by `capexbound verify` and `capexbound simulate` do from a config file.
"""

import argparse
import time

import numpy as np

import capexbound as cb
from capexbound.boundary import McConfig
from capexbound.verify import Lattice, check_foc, cross_validate, dp_stopping_value


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--steps", type=int, default=50)
    ap.add_argument("--paths", type=int, default=20000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    grid = cb.TimeGrid.uniform(1.0, args.steps)
    coeffs = cb.CoefficientSet.build(grid, mu_C=0.1, sigma=0.2, f_C=1.0,
                                     mu_F=0.05, w=1.0, r=1.0)
    prod = cb.CobbDouglas(0.25, 0.25, 0.25)
    scrap = cb.SaturatingExponential(0.5, 1.0)

    print(cb.validate(coeffs, prod, scrap))
    t0 = time.perf_counter()
    curve = cb.solve_boundary(coeffs, prod, scrap,
                              mc=McConfig(n_paths=args.paths, seed=args.seed))
    print(f"\nsolved in {time.perf_counter() - t0:.1f}s; "
          f"yhat(0) = {curve.values[0]:.1f}, yhat(T-) = {curve.values[-1]:.2f}")
    z = np.abs(curve.residual) / np.maximum(curve.combined_se, 1e-300)
    print(f"fresh-seed residual audit: worst {z.max():.2f} se units")

    batch = cb.simulate(coeffs, args.paths, cb.MEASURE_P, seed=args.seed + 1)
    y0 = float(curve.values[0])
    foc = check_foc(curve, [0.5 * y0, 2.0 * y0], coeffs, prod, scrap, batch)
    print(f"first-order conditions: {'PASS' if foc.passed else 'FAIL'} "
          f"(worst {foc.worst_violation_se:.2f} se units)")

    lattice = Lattice.geometric(curve.values.min() / 8.0, curve.values.max() * 4.0, 200)
    sdp = dp_stopping_value(coeffs, prod, scrap, lattice)
    cross = cross_validate(curve, sdp)
    print(f"lattice oracle boundary gap: {cross.sup_rel_gap:.1%} sup-relative")

    y = 0.5 * y0
    plans = cb.build_controls(curve, batch, y, coeffs)
    j_opt, j_opt_se = cb.mean_and_se(cb.profit(coeffs, prod, scrap, batch, plans),
                                     batch.antithetic)
    j_zero, _ = cb.mean_and_se(cb.profit(coeffs, prod, scrap, batch, cb.zero_plan(batch, y)),
                               batch.antithetic)
    print(f"J(tracking) = {j_opt:.5g} (se {j_opt_se:.2g}); "
          f"J(no investment) = {j_zero:.5g}")


if __name__ == "__main__":
    main()
