import numpy as np
import pytest
from scipy.optimize import brentq

import capexbound as cb
from capexbound import boundary
from capexbound.boundary import BracketError, McConfig
from capexbound.model import SyntheticMarginal


def closed_form_setup(n_steps):
    """Volatility-free instance whose boundary is 1 - exp(-(T - t))."""
    grid = cb.TimeGrid.uniform(1.0, n_steps)
    coeffs = cb.CoefficientSet.build(grid, mu_C=0.0, sigma=0.0, f_C=1.0,
                                     mu_F=1.0, w=1.0, r=1.0)
    return grid, coeffs, cb.power_marginal(1.0, 1.0), cb.ZeroScrap()


def closed_form_truth(grid):
    return 1.0 - np.exp(-(grid.horizon - grid.nodes[:-1]))


class TestResidual:
    def test_closed_form_value_exact(self):
        # constant future equal to the candidate collapses the running sup,
        # and the exact step masses reproduce the continuum integral
        grid, coeffs, prod, scrap = closed_form_setup(40)
        batch = cb.simulate(coeffs, 2, cb.MEASURE_Q, seed=0)
        for i in (0, 13, 31):
            for b in (0.3, 0.8, 2.0):
                future = np.full(grid.n_steps - 1 - i, b)
                val, se = cb.residual(i, b, future, batch, coeffs, prod, scrap)
                expected = (1.0 - np.exp(-(1.0 - grid.nodes[i]))) / b - 1.0
                assert val == pytest.approx(expected, abs=1e-12)
                assert se == pytest.approx(0.0, abs=1e-15)

    def test_small_candidate_positive(self):
        grid, coeffs, prod, scrap = closed_form_setup(20)
        batch = cb.simulate(coeffs, 2, cb.MEASURE_Q, seed=0)
        future = np.full(grid.n_steps - 1, 1e-8)
        val, _ = cb.residual(0, 1e-8, future, batch, coeffs, prod, scrap)
        assert val > 0

    def test_huge_candidate_tends_to_minus_replacement_cost(self):
        grid, coeffs, prod, scrap = closed_form_setup(20)
        batch = cb.simulate(coeffs, 2, cb.MEASURE_Q, seed=0)
        future = np.full(grid.n_steps - 1, 1e9)
        val, _ = cb.residual(0, 1e9, future, batch, coeffs, prod, scrap)
        assert val < 0
        assert val == pytest.approx(-1.0, abs=1e-8)

    def test_rejects_nonpositive_candidate(self):
        grid, coeffs, prod, scrap = closed_form_setup(10)
        batch = cb.simulate(coeffs, 2, cb.MEASURE_Q, seed=0)
        with pytest.raises(ValueError):
            cb.residual(0, 0.0, np.full(9, 0.5), batch, coeffs, prod, scrap)

    def test_monotone_in_candidate(self):
        grid = cb.TimeGrid.uniform(1.0, 25)
        coeffs = cb.CoefficientSet.build(grid, mu_C=0.1, sigma=0.2, f_C=1.0,
                                         mu_F=0.05, w=1.0, r=1.0)
        prod = cb.power_marginal(0.3, 1.0)
        scrap = cb.SaturatingExponential(0.5, 1.0)
        batch = cb.simulate(coeffs, 500, cb.MEASURE_Q, seed=8)
        future = np.linspace(0.4, 0.05, grid.n_steps - 6)
        cands = np.geomspace(0.01, 10.0, 12)
        vals = [cb.residual(5, c, future, batch, coeffs, prod, scrap)[0] for c in cands]
        assert all(v1 > v2 for v1, v2 in zip(vals, vals[1:]))


class TestDeterministicBoundary:
    def test_closed_form_exact_to_tolerance(self):
        grid, coeffs, prod, scrap = closed_form_setup(200)
        curve = cb.deterministic_boundary(coeffs, prod, scrap, allow_zero_scrap=True)
        err = np.abs(curve.values - closed_form_truth(grid))
        assert err.max() <= 1e-8

    def test_rejects_stochastic_instance(self):
        grid = cb.TimeGrid.uniform(1.0, 10)
        coeffs = cb.CoefficientSet.build(grid, mu_C=0.1, sigma=0.2, f_C=1.0,
                                         mu_F=0.05, w=1.0, r=1.0)
        with pytest.raises(ValueError):
            cb.deterministic_boundary(coeffs, cb.power_marginal(1.0, 1.0),
                                      cb.SaturatingExponential(0.5, 1.0))

    def test_last_node_against_independent_root_finder(self):
        # constant coefficients with positive scrap marginal; the one-step
        # equation is scalar and solvable by brentq independently
        grid = cb.TimeGrid.uniform(1.0, 16)
        mu_c, mu_f, fc = 0.2, 0.1, 0.8
        coeffs = cb.CoefficientSet.build(grid, mu_C=mu_c, sigma=0.0, f_C=fc,
                                         mu_F=mu_f, w=1.0, r=1.0)
        prod = cb.power_marginal(0.4, 1.0)
        scrap = cb.SaturatingExponential(0.6, 1.0)
        curve = cb.deterministic_boundary(coeffs, prod, scrap)
        dt = grid.deltas[-1]
        bar = mu_c + mu_f

        def onestep(b):
            mass = (1 - np.exp(-bar * dt)) / bar
            return (0.4 / b) * mass + np.exp(-bar * dt) * scrap.marginal(b * np.exp(-mu_c * dt)) - 1.0 / fc

        root = brentq(onestep, 1e-9, 1e3, xtol=1e-14)
        assert curve.values[-1] == pytest.approx(root, rel=1e-7)

    def test_first_order_convergence_when_sup_is_active(self):
        # decay makes the boundary-to-decay ratio non-monotone, so the
        # frozen-integrand scheme converges at first order
        def solve_at(n):
            grid = cb.TimeGrid.uniform(1.0, n)
            coeffs = cb.CoefficientSet.build(grid, mu_C=0.3, sigma=0.0, f_C=1.0,
                                             mu_F=0.1, w=1.0, r=1.0)
            return cb.deterministic_boundary(coeffs, cb.power_marginal(0.3, 1.0),
                                             cb.SaturatingExponential(0.5, 1.0))

        ref = solve_at(1600)
        errs = []
        for n in (100, 200, 400):
            c = solve_at(n)
            errs.append(np.max(np.abs(c.values - ref.values[::1600 // n])))
        ratios = [errs[1] / errs[0], errs[2] / errs[1]]
        assert all(0.3 < r < 0.7 for r in ratios)

    def test_positivity(self):
        grid, coeffs, prod, scrap = closed_form_setup(60)
        curve = cb.deterministic_boundary(coeffs, prod, scrap, allow_zero_scrap=True)
        assert np.all(curve.values > 0)


class TestSolveBoundary:
    def test_degenerate_mc_path_matches_quadrature(self):
        # sigma = 0 has one decay path, whatever the Monte-Carlo settings say
        _, coeffs, prod, scrap = closed_form_setup(50)
        det = cb.deterministic_boundary(coeffs, prod, scrap, allow_zero_scrap=True)
        mc = cb.solve_boundary(coeffs, prod, scrap, mc=McConfig(n_paths=4, seed=0),
                               allow_zero_scrap=True)
        assert mc.values.tobytes() == det.values.tobytes()

    def test_fresh_seed_residual_audit(self):
        grid = cb.TimeGrid.uniform(1.0, 20)
        coeffs = cb.CoefficientSet.build(grid, mu_C=0.1, sigma=0.2, f_C=1.0,
                                         mu_F=0.05, w=1.0, r=1.0)
        prod = cb.CobbDouglas(0.25, 0.25, 0.25)
        scrap = cb.SaturatingExponential(0.5, 1.0)
        curve = cb.solve_boundary(coeffs, prod, scrap, mc=McConfig(n_paths=4000, seed=3))
        z = np.abs(curve.residual) / np.maximum(curve.combined_se, 1e-300)
        assert np.all(z <= 3.0)
        assert np.all(curve.values > 0)

    def test_zero_scrap_gate(self):
        grid, coeffs, prod, scrap = closed_form_setup(10)
        with pytest.raises(cb.AssumptionError):
            cb.deterministic_boundary(coeffs, prod, scrap)

    def test_hard_assumption_gate(self):
        grid = cb.TimeGrid.uniform(1.0, 10)
        coeffs = cb.CoefficientSet.build(grid, mu_C=0.0, sigma=0.0, f_C=1.0,
                                         mu_F=0.0, w=1.0, r=1.0)
        with pytest.raises(cb.AssumptionError):
            cb.deterministic_boundary(coeffs, cb.power_marginal(1.0, 1.0),
                                      cb.SaturatingExponential(0.5, 1.0))

    def test_bracket_failure_reported(self):
        grid = cb.TimeGrid.uniform(1.0, 6)
        coeffs = cb.CoefficientSet.build(grid, mu_C=0.0, sigma=0.0, f_C=1.0,
                                         mu_F=1.0, w=1.0, r=1.0)
        flat = SyntheticMarginal(power_scale=1e13, power_exponent=0.0)
        # below the assumption gate, which rejects a marginal without Inada
        with pytest.raises(BracketError):
            boundary._solve_backward(coeffs, flat, cb.ZeroScrap(), McConfig(),
                                     boundary.SolverConfig())

    def test_monotone_under_efficiency(self):
        grid = cb.TimeGrid.uniform(1.0, 30)
        coeffs = cb.CoefficientSet.build(grid, mu_C=0.08, sigma=0.2,
                                         f_C=lambda t: np.exp(-0.15 * t),
                                         mu_F=0.05, w=1.0, r=1.0)
        prod = cb.CobbDouglas(0.25, 0.25, 0.25)
        scrap = cb.SaturatingExponential(0.5, 1.0)
        assert cb.validate(coeffs, prod, scrap).efficiency_ok
        curve = cb.solve_boundary(coeffs, prod, scrap, mc=McConfig(n_paths=4000, seed=5))
        # generous per-node slack for Monte-Carlo root noise
        slack = 2.0 * curve.values[:-1] * 1e-3
        assert np.all(np.diff(curve.values) <= slack)

    def test_reproducible(self):
        grid = cb.TimeGrid.uniform(1.0, 12)
        coeffs = cb.CoefficientSet.build(grid, mu_C=0.1, sigma=0.2, f_C=1.0,
                                         mu_F=0.05, w=1.0, r=1.0)
        prod = cb.power_marginal(0.3, 1.0)
        scrap = cb.SaturatingExponential(0.5, 1.0)
        a = cb.solve_boundary(coeffs, prod, scrap, mc=McConfig(n_paths=1000, seed=7))
        b = cb.solve_boundary(coeffs, prod, scrap, mc=McConfig(n_paths=1000, seed=7))
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.residual, b.residual)

    @pytest.mark.parametrize("horizon, mu_F", [(1.0, 1000.0), (5000.0, 0.05)])
    def test_discount_below_normal_floats_solves_dense(self, horizon, mu_F):
        # exp(-int bar_mu) over the horizon is below the smallest normal
        # float, which the record blocks' node-0 weights cannot carry
        grid = cb.TimeGrid.uniform(horizon, 25)
        coeffs = cb.CoefficientSet.build(grid, mu_C=0.1, sigma=0.2, f_C=1.0,
                                         mu_F=mu_F, w=1.0, r=1.0)
        curve = cb.solve_boundary(coeffs, cb.CobbDouglas(0.25, 0.25, 0.25, 1e6, 1e6),
                                  cb.SaturatingExponential(0.5, 1.0),
                                  mc=McConfig(n_paths=400, seed=0))
        assert curve.meta["dense_nodes"] == 25
        assert np.all(np.isfinite(curve.values)) and np.all(curve.values > 0)
