import numpy as np
import pytest

import capexbound as cb
from capexbound.boundary import BoundaryCurve, McConfig
from capexbound.model import SyntheticMarginal
from capexbound.paths import pair_means
from capexbound.policy import PlanBatch


def flat_curve(grid, values):
    values = np.asarray(values, dtype=float)
    z = np.zeros_like(values)
    return BoundaryCurve(grid, values, z, z, z, z.astype(int), meta={})


def unit_batch(grid):
    """One path with no decay, so capacity moves only through the plan."""
    return cb.PathBatch(np.ones((1, grid.nodes.size)), cb.MEASURE_P, antithetic=False)


ZERO_PROD = SyntheticMarginal(power_scale=0.0, power_exponent=0.0)


def simple_coeffs(grid, **over):
    base = dict(mu_C=0.1, sigma=0.2, f_C=1.0, mu_F=0.05, w=1.0, r=1.0)
    base.update(over)
    return cb.CoefficientSet.build(grid, **base)


class TestBuildControl:
    def test_worked_sup_example(self):
        # ratio trajectory (2, 1.5, 1.8) with y = 1 invests once at the start
        grid = cb.TimeGrid.uniform(1.0, 3)
        coeffs = simple_coeffs(grid, sigma=0.0, mu_C=0.0)
        curve = flat_curve(grid, [2.0, 1.5, 1.8])
        plans = cb.build_controls(curve, unit_batch(grid), 1.0, coeffs)
        assert np.allclose(plans.nubar[0], [0.0, 1.0, 1.0, 1.0])

    def test_boundary_from_another_grid_is_refused(self):
        # the same step count on another horizon: unchecked, the curve's nodes
        # were read as the model's and check_foc reported a wrong boundary
        solved_on = cb.TimeGrid.uniform(1.0, 20)
        coeffs = simple_coeffs(cb.TimeGrid.uniform(2.0, 20))
        curve = flat_curve(solved_on, np.ones(20))
        batch = cb.simulate(coeffs, 64, cb.MEASURE_P, seed=1)
        message = "boundary solved on 20 steps to T = 1, model has 20 steps to T = 2"
        with pytest.raises(ValueError, match=message):
            cb.build_controls(curve, batch, 0.5, coeffs)
        with pytest.raises(ValueError, match=message):
            cb.check_foc(curve, [0.5], coeffs, ZERO_PROD, cb.ZeroScrap(), batch)

    def test_never_invest_above_boundary(self):
        grid = cb.TimeGrid.uniform(1.0, 3)
        coeffs = simple_coeffs(grid, sigma=0.0, mu_C=0.0)
        curve = flat_curve(grid, [2.0, 1.5, 1.8])
        plans = cb.build_controls(curve, unit_batch(grid), 5.0, coeffs)
        assert np.all(plans.nubar == 0.0)
        assert np.all(plans.nu == 0.0)

    def test_initial_jump(self):
        grid = cb.TimeGrid.uniform(1.0, 4)
        coeffs = simple_coeffs(grid, sigma=0.0, mu_C=0.0)
        curve = flat_curve(grid, [0.8, 0.7, 0.6, 0.5])
        plans = cb.build_controls(curve, unit_batch(grid), 0.4, coeffs)
        assert plans.nubar[0, 0] == 0.0
        assert plans.nubar[0, 1] == pytest.approx(0.8 - 0.4)

    def test_rejects_nonpositive_start(self):
        grid = cb.TimeGrid.uniform(1.0, 3)
        coeffs = simple_coeffs(grid)
        curve = flat_curve(grid, [1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            cb.build_controls(curve, unit_batch(grid), 0.0, coeffs)

    def test_expenditure_stieltjes(self):
        grid = cb.TimeGrid.uniform(1.0, 3)
        coeffs = simple_coeffs(grid, sigma=0.0, mu_C=0.3, f_C=0.5)
        batch = cb.simulate(coeffs, 2, cb.MEASURE_P, seed=0)
        curve = flat_curve(grid, [0.5, 0.55, 0.6])
        plans = cb.build_controls(curve, batch, 0.4, coeffs)
        nubar = plans.nubar[0]
        path = batch.values[0]
        manual = np.zeros(4)
        for k in range(1, 4):
            manual[k] = sum(path[j] / coeffs.f_C[j] * (nubar[j + 1] - nubar[j])
                            for j in range(k))
        assert np.allclose(plans.nu[0], manual, rtol=1e-13)


class TestControlledCapacity:
    def test_zero_plan(self):
        grid = cb.TimeGrid.uniform(1.0, 5)
        coeffs = simple_coeffs(grid)
        batch = cb.simulate(coeffs, 6, cb.MEASURE_P, seed=1)
        plans = cb.zero_plan(batch, 0.7)
        cap = cb.controlled_capacity(batch.values, plans)
        assert np.allclose(cap, 0.7 * batch.values)

    def test_constant_ledger_is_affine(self):
        grid = cb.TimeGrid.uniform(1.0, 4)
        coeffs = simple_coeffs(grid)
        batch = cb.simulate(coeffs, 4, cb.MEASURE_P, seed=2)
        c = 0.3
        plans = PlanBatch(1.1, np.full(batch.values.shape, c),
                          np.zeros(batch.values.shape))
        cap = cb.controlled_capacity(batch.values, plans)
        assert np.allclose(cap, (1.1 + c) * batch.values)

    def test_affine_in_plan(self):
        grid = cb.TimeGrid.uniform(1.0, 4)
        coeffs = simple_coeffs(grid)
        batch = cb.simulate(coeffs, 4, cb.MEASURE_P, seed=3)
        rng = np.random.default_rng(0)
        n1 = np.cumsum(rng.uniform(0, 1, batch.values.shape), axis=1)
        n2 = np.cumsum(rng.uniform(0, 1, batch.values.shape), axis=1)
        y = 0.9
        cap1 = cb.controlled_capacity(batch.values, PlanBatch(y, n1, n1))
        cap2 = cb.controlled_capacity(batch.values, PlanBatch(y, n2, n2))
        mid = cb.controlled_capacity(batch.values, PlanBatch(y, 0.5 * (n1 + n2), n1))
        assert np.allclose(mid + y * batch.values * 0.0,
                           0.5 * (cap1 + cap2), rtol=1e-13)

    def test_tracking_identity(self):
        grid = cb.TimeGrid.uniform(1.0, 25)
        coeffs = simple_coeffs(grid)
        prod = cb.power_marginal(0.3, 1.0)
        scrap = cb.SaturatingExponential(0.5, 1.0)
        curve = cb.solve_boundary(coeffs, prod, scrap, mc=McConfig(n_paths=2000, seed=4))
        batch = cb.simulate(coeffs, 2000, cb.MEASURE_P, seed=9)
        y = 0.6 * curve.values[0]
        plans = cb.build_controls(curve, batch, y, coeffs)
        cap = cb.controlled_capacity(batch.values, plans)
        inc = np.diff(plans.nubar, axis=1) > 0
        n = grid.n_steps
        # where the ledger increases, the post-action level is the boundary
        post = batch.values[:, :n] * (y + plans.nubar[:, 1:])
        target = np.broadcast_to(curve.values[None, :], post.shape)
        assert np.allclose(post[inc], target[inc], rtol=1e-12)
        # elsewhere capacity sits at or above the boundary
        quiet = ~inc
        assert np.all(cap[:, :n][quiet] >= target[quiet] * (1 - 1e-12))


class TestProfit:
    def test_empty_functional(self):
        grid = cb.TimeGrid.uniform(1.0, 5)
        coeffs = simple_coeffs(grid)
        batch = cb.simulate(coeffs, 8, cb.MEASURE_P, seed=5)
        est = cb.profit(coeffs, ZERO_PROD, cb.ZeroScrap(), batch, cb.zero_plan(batch, 1.0))
        assert cb.mean_and_se(est, batch.antithetic) == (0.0, 0.0)

    def test_requires_physical_measure(self):
        grid = cb.TimeGrid.uniform(1.0, 5)
        coeffs = simple_coeffs(grid)
        batch = cb.simulate(coeffs, 8, cb.MEASURE_Q, seed=5)
        with pytest.raises(ValueError):
            cb.profit(coeffs, ZERO_PROD, cb.ZeroScrap(), batch, cb.zero_plan(batch, 1.0))

    def test_deterministic_quadrature_oracle(self):
        # sigma = 0 and no investment: J is a plain discounted integral of the
        # profit rate along the decaying capacity, computable independently
        from scipy.integrate import quad
        grid = cb.TimeGrid.uniform(1.0, 400)
        mu_c, mu_f, y = 0.2, 0.3, 0.8
        coeffs = simple_coeffs(grid, sigma=0.0, mu_C=mu_c, mu_F=mu_f)
        prod = cb.power_marginal(0.5, 2.0)
        scrap = cb.SaturatingExponential(0.5, 1.0)
        batch = cb.simulate(coeffs, 2, cb.MEASURE_P, seed=0)
        est, _ = cb.mean_and_se(cb.profit(coeffs, prod, scrap, batch, cb.zero_plan(batch, y)),
                                batch.antithetic)

        def rate(t):
            c = y * np.exp(-mu_c * t)
            return np.exp(-mu_f * t) * (0.5 * c ** (-1.0) / (1.0 - 2.0))

        target, _ = quad(rate, 0.0, 1.0, limit=200)
        target += np.exp(-mu_f) * scrap.value(y * np.exp(-mu_c))
        assert est == pytest.approx(target, abs=2e-3 * abs(target))

    def test_exact_when_profit_linear_and_static(self):
        # rc constant in C with no decay: the frozen integrand is exact
        grid = cb.TimeGrid.uniform(1.0, 7)
        coeffs = simple_coeffs(grid, sigma=0.0, mu_C=0.0, mu_F=0.4)
        lin = SyntheticMarginal(power_scale=2.0, power_exponent=0.0)
        batch = cb.simulate(coeffs, 2, cb.MEASURE_P, seed=0)
        est, _ = cb.mean_and_se(cb.profit(coeffs, lin, cb.ZeroScrap(), batch,
                                          cb.zero_plan(batch, 1.5)), batch.antithetic)
        target = 2.0 * 1.5 * (1 - np.exp(-0.4)) / 0.4
        assert est == pytest.approx(target, rel=1e-13)

    def test_policy_dominance(self):
        grid = cb.TimeGrid.uniform(1.0, 25)
        coeffs = simple_coeffs(grid)
        prod = cb.CobbDouglas(0.25, 0.25, 0.25)
        scrap = cb.SaturatingExponential(0.5, 1.0)
        curve = cb.solve_boundary(coeffs, prod, scrap, mc=McConfig(n_paths=3000, seed=6))
        batch = cb.simulate(coeffs, 4000, cb.MEASURE_P, seed=11)
        y = 0.5 * curve.values[0]
        plans = cb.build_controls(curve, batch, y, coeffs)
        j_opt = cb.profit(coeffs, prod, scrap, batch, plans)
        j_zero = cb.profit(coeffs, prod, scrap, batch, cb.zero_plan(batch, y))
        diff = pair_means(j_opt - j_zero, batch.antithetic)
        se = np.std(diff, ddof=1) / np.sqrt(diff.size)
        assert np.mean(diff) > 2 * se

    def test_grid_mismatch_rejected(self):
        grid = cb.TimeGrid.uniform(1.0, 5)
        coeffs = simple_coeffs(grid)
        batch = cb.simulate(coeffs, 8, cb.MEASURE_P, seed=5)
        bad = PlanBatch(1.0, np.zeros((8, 3)), np.zeros((8, 3)))
        with pytest.raises(ValueError):
            cb.profit(coeffs, ZERO_PROD, cb.ZeroScrap(), batch, bad)


class TestContinuityProxy:
    def test_refinement_shrinks_increments(self):
        # same Brownian path on nested grids: the coarse ledger increments
        # pool to a visibly larger upper quantile than the fine ones.  Needs
        # a slowly declining boundary so record-setting stays diffusive.
        n_fine = 120
        grid_f = cb.TimeGrid.uniform(1.0, n_fine)
        grid_c = cb.TimeGrid.uniform(1.0, n_fine // 2)
        coeffs_f = simple_coeffs(grid_f, mu_C=0.1, sigma=0.3,
                                 f_C=lambda t: np.exp(-0.16 * t), mu_F=0.05)
        coeffs_c = simple_coeffs(grid_c, mu_C=0.1, sigma=0.3,
                                 f_C=lambda t: np.exp(-0.16 * t), mu_F=0.05)
        prod = cb.power_marginal(0.15, 1.0)
        scrap = cb.SaturatingExponential(0.5, 1.0)
        curve_f = cb.solve_boundary(coeffs_f, prod, scrap, mc=McConfig(n_paths=3000, seed=12))
        curve_c = cb.solve_boundary(coeffs_c, prod, scrap, mc=McConfig(n_paths=3000, seed=12))
        batch_f = cb.simulate(coeffs_f, 4000, cb.MEASURE_P, seed=13)
        batch_c = cb.PathBatch(batch_f.values[:, ::2], cb.MEASURE_P, antithetic=batch_f.antithetic)
        y = 0.9 * curve_f.values[0]
        inc_f = np.diff(cb.build_controls(curve_f, batch_f, y, coeffs_f).nubar[:, 1:], axis=1)
        inc_c = np.diff(cb.build_controls(curve_c, batch_c, y, coeffs_c).nubar[:, 1:], axis=1)
        q_f = np.quantile(inc_f[inc_f > 0], 0.99)
        q_c = np.quantile(inc_c[inc_c > 0], 0.99)
        assert q_f <= 0.75 * q_c
