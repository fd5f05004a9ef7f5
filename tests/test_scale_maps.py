"""Scale maps: an instance restated in other capacity units has the same
boundary in those units.

Measuring capacity in units 1/lam multiplies every capacity by lam.  The
maps below restate the README model so that its marginals at lam * C equal
the original ones at C, so the solved curve on the same seed must be lam
times the original, within the solver's tolerance at every node.

Vanishing volatility: the stochastic solve tends to the deterministic one as
sigma goes to 0, down to volatilities far below the doubles' resolution of
the decay paths.
"""

import numpy as np
import pytest

import capexbound as cb
from capexbound.boundary import McConfig, SolverConfig

ALPHA = BETA = GAMMA = 0.25
LAMBDAS = (4.0, 1e-3, 1e3, 1e-100, 1e100)
MC = McConfig(n_paths=2000, seed=0)


def _coeffs(w=1.0, r=1.0, f_C=1.0):
    grid = cb.TimeGrid.uniform(1.0, 10)
    return cb.CoefficientSet.build(grid, mu_C=0.1, sigma=0.2, f_C=f_C, mu_F=0.05, w=w, r=r)


def cobb_douglas(lam):
    # R(lam K, lam L, lam C) = lam^s R(K, L, C): prices scale by lam^(s-1) and
    # the replacement cost by lam^(1-s), so each input's share is unchanged
    s = ALPHA + BETA + GAMMA
    coeffs = _coeffs(w=lam ** (s - 1.0), r=lam ** (s - 1.0), f_C=lam ** (1.0 - s))
    prod = cb.CobbDouglas(ALPHA, BETA, GAMMA, 1e6 * lam, 1e6 * lam)
    return coeffs, prod, cb.SaturatingExponential(0.5 * lam ** s, 1.0 / lam)


def power(lam, exponent=0.5):
    # scale * (lam C)^(-e) with scale lam^e is the marginal at C, and
    # G'(lam C) = a b exp(-b lam C) is unchanged with a * lam and b / lam
    prod = cb.power_marginal(lam ** exponent, exponent)
    return _coeffs(), prod, cb.SaturatingExponential(0.5 * lam, 1.0 / lam)


@pytest.mark.parametrize("instance", [cobb_douglas, power])
def test_curve_in_other_units_is_the_scaled_curve(instance):
    base = cb.solve_boundary(*instance(1.0), mc=MC).values
    tol_y = SolverConfig().tol_rel
    for lam in LAMBDAS:
        scaled = cb.solve_boundary(*instance(lam), mc=MC).values
        dev = np.max(np.abs(scaled / (lam * base) - 1.0))
        assert dev <= 2.0 * tol_y, (lam, dev / tol_y)


@pytest.mark.parametrize("sigma", [1e-3, 1e-40, 1e-160])
def test_vanishing_volatility_gives_the_deterministic_curve(sigma):
    # the README model at N = 20; sigma = 0 solves on one path to tol_y_det
    def readme(sigma):
        grid = cb.TimeGrid.uniform(1.0, 20)
        coeffs = cb.CoefficientSet.build(grid, mu_C=0.1, sigma=sigma, f_C=1.0, mu_F=0.05,
                                         w=1.0, r=1.0)
        prod = cb.CobbDouglas(ALPHA, BETA, GAMMA, 1e6, 1e6)
        return coeffs, prod, cb.SaturatingExponential(0.5, 1.0)

    base = cb.solve_boundary(*readme(0.0)).values
    noisy = cb.solve_boundary(*readme(sigma), mc=McConfig(n_paths=2000, seed=0)).values
    dev = np.max(np.abs(noisy / base - 1.0))
    assert dev <= SolverConfig().tol_rel, dev / SolverConfig().tol_rel
