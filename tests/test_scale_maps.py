"""Scale maps: an instance restated in other capacity units has the same
boundary in those units.

Measuring capacity in units 1/lam multiplies every capacity by lam.  The
maps below restate the README model so that its marginals at lam * C equal
the original ones at C, so the solved curve on the same seed must be lam
times the original, within the solver's tolerance at every node.

Vanishing volatility: the stochastic solve tends to the deterministic one as
sigma goes to 0, down to volatilities far below the doubles' resolution of
the decay paths.

Value identity: the tracking plan's simulated profit from y is the value
dynamic program's V(0, y).

The README scrap is inert near its boundary, so each relation also runs on
SCRAP_MODEL, whose scrap carries about 15% of the profit.
"""

import numpy as np
import pytest

import capexbound as cb
from capexbound.boundary import McConfig, SolverConfig
from capexbound.verify import Lattice, dp_value

ALPHA = BETA = GAMMA = 0.25
LAMBDAS = (4.0, 1e-3, 1e3, 1e-100, 1e100)
MC = McConfig(n_paths=2000, seed=0)
# scrap (a, b) of G(C) = a (1 - exp(-b C)): the README model's, and that of
# SCRAP_MODEL, the README model with the same G'(0) = a b = 0.5 but a scale
# 1/b near its boundary
README_SCRAP = (0.5, 1.0)
SCRAP_MODEL = (2.5e4, 2e-5)


def _coeffs(w=1.0, r=1.0, f_C=1.0, sigma=0.2, n=10):
    grid = cb.TimeGrid.uniform(1.0, n)
    return cb.CoefficientSet.build(grid, mu_C=0.1, sigma=sigma, f_C=f_C, mu_F=0.05, w=w, r=r)


def cobb_douglas(lam, scrap=README_SCRAP):
    # R(lam K, lam L, lam C) = lam^s R(K, L, C): prices scale by lam^(s-1) and
    # the replacement cost by lam^(1-s), so each input's share is unchanged;
    # G(lam C) = lam^s G(C) with a * lam^s and b / lam
    s = ALPHA + BETA + GAMMA
    coeffs = _coeffs(w=lam ** (s - 1.0), r=lam ** (s - 1.0), f_C=lam ** (1.0 - s))
    prod = cb.CobbDouglas(ALPHA, BETA, GAMMA, 1e6 * lam, 1e6 * lam)
    a, b = scrap
    return coeffs, prod, cb.SaturatingExponential(a * lam ** s, b / lam)


def scrap_model(lam):
    return cobb_douglas(lam, SCRAP_MODEL)


def power(lam, exponent=0.5):
    # scale * (lam C)^(-e) with scale lam^e is the marginal at C, and
    # G'(lam C) = a b exp(-b lam C) is unchanged with a * lam and b / lam
    prod = cb.power_marginal(lam ** exponent, exponent)
    return _coeffs(), prod, cb.SaturatingExponential(0.5 * lam, 1.0 / lam)


@pytest.mark.parametrize("instance", [cobb_douglas, power, scrap_model])
def test_curve_in_other_units_is_the_scaled_curve(instance):
    base = cb.solve_boundary(*instance(1.0), mc=MC).values
    tol_y = SolverConfig().tol_rel
    for lam in LAMBDAS:
        scaled = cb.solve_boundary(*instance(lam), mc=MC).values
        dev = np.max(np.abs(scaled / (lam * base) - 1.0))
        assert dev <= 2.0 * tol_y, (lam, dev / tol_y)


@pytest.mark.parametrize("sigma,scrap", [
    pytest.param(sigma, scrap, id=f"{name}{sigma}") for name, scrap in
    (("", README_SCRAP), ("scrap_model-", SCRAP_MODEL)) for sigma in (1e-3, 1e-40, 1e-160)])
def test_vanishing_volatility_gives_the_deterministic_curve(sigma, scrap):
    # the model at N = 20; sigma = 0 solves on one path to tol_y_det
    def model(sigma):
        prod = cb.CobbDouglas(ALPHA, BETA, GAMMA, 1e6, 1e6)
        return _coeffs(sigma=sigma, n=20), prod, cb.SaturatingExponential(*scrap)

    base = cb.solve_boundary(*model(0.0)).values
    noisy = cb.solve_boundary(*model(sigma), mc=McConfig(n_paths=2000, seed=0)).values
    dev = np.max(np.abs(noisy / base - 1.0))
    assert dev <= SolverConfig().tol_rel, dev / SolverConfig().tol_rel


def test_tracking_profit_is_the_dp_value():
    # SCRAP_MODEL at N = 10, y = yhat(0) / 2: running profit, scrap and
    # spending are about 118%, 15% and 33% of J, and booking the spending one
    # node late moves J by 1.6e-3, some 65 standard errors
    coeffs, prod, scrap = scrap_model(1.0)
    curve = cb.solve_boundary(coeffs, prod, scrap, mc=McConfig(n_paths=4000, seed=0))
    y = 0.5 * float(curve.values[0])
    batch = cb.simulate(coeffs, 20000, cb.MEASURE_P, seed=1)
    j, se = cb.mean_and_se(cb.profit(coeffs, prod, scrap, batch,
                                     cb.build_controls(curve, batch, y, coeffs)), True)
    # V(0, y) on the lattice of verify's default range, interpolated in log y;
    # its change from 800 to 1600 nodes bounds the lattice error at 1600
    values = []
    for nodes in (800, 1600):
        lattice = Lattice.geometric(float(curve.values.min()) / 8.0,
                                    4.0 * float(curve.values.max()), nodes)
        value = dp_value(coeffs, prod, scrap, lattice).V[0]
        values.append(float(np.interp(np.log(y), lattice.log_nodes, value)))
    lattice_err = abs(values[1] - values[0])
    assert se < 3e-5 * j and lattice_err < 1e-5 * j
    assert abs(j - values[1]) <= 3.0 * se + lattice_err, (j, values, se)
