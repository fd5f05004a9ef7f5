import numpy as np
import pytest

import capexbound as cb
from capexbound.boundary import BoundaryCurve, McConfig
from capexbound.model import SyntheticMarginal, cumulative_integral, discount_step_masses
from capexbound.paths import MEASURE_P, MEASURE_Q, log_increment_moments
from capexbound.production import power_marginal_form, reduced_marginal_array
from capexbound.verify import (
    Lattice,
    LatticeRangeError,
    StoppingRule,
    _FocWorkspace,
    check_foc,
    cross_validate,
    dp_stopping_value,
    dp_value,
    shadow_value_gap,
    trinomial_steps,
)

ZERO_PROD = SyntheticMarginal(power_scale=0.0, power_exponent=0.0)


def coeffs_for(grid, **over):
    base = dict(mu_C=0.1, sigma=0.2, f_C=1.0, mu_F=0.05, w=1.0, r=1.0)
    base.update(over)
    return cb.CoefficientSet.build(grid, **base)


def supergradient(curve, y, coeffs, prod, scrap, batch, rule):
    """Supergradient estimate and its standard error at one stopping rule."""
    entry = check_foc(curve, [y], coeffs, prod, scrap, batch, rules=[rule]).entries[0]
    return entry.estimate, entry.se


def closed_form_instance(n):
    grid = cb.TimeGrid.uniform(1.0, n)
    coeffs = coeffs_for(grid, mu_C=0.0, sigma=0.0, mu_F=1.0)
    prod = cb.power_marginal(1.0, 1.0)
    scrap = cb.ZeroScrap()
    curve = cb.deterministic_boundary(coeffs, prod, scrap, allow_zero_scrap=True)
    return grid, coeffs, prod, scrap, curve


class TestTrinomial:
    def test_moment_match_and_simplex(self):
        grid = cb.TimeGrid.uniform(1.0, 9)
        coeffs = coeffs_for(grid, sigma=lambda t: 0.1 + 0.2 * t)
        for measure in (MEASURE_P, MEASURE_Q):
            shifts, probs = trinomial_steps(coeffs, measure)
            mean, var = log_increment_moments(coeffs, measure)
            assert probs.sum() == pytest.approx(1.0)
            assert np.all(probs >= 0)
            assert np.allclose(shifts @ probs, mean, atol=1e-15)
            second = ((shifts - mean[:, None]) ** 2) @ probs
            assert np.allclose(second, var, rtol=1e-12)

    def test_lattice_validation(self):
        with pytest.raises(ValueError):
            Lattice.geometric(1.0, 0.5, 10)
        lat = Lattice.geometric(0.1, 10.0, 7)
        assert lat.y_nodes.size == 7


class TestStoppingDP:
    def test_stop_branch_bound(self):
        grid = cb.TimeGrid.uniform(1.0, 10)
        coeffs = coeffs_for(grid)
        lat = Lattice.geometric(0.01, 10.0, 60)
        sdp = dp_stopping_value(coeffs, cb.power_marginal(0.3, 1.0),
                                cb.SaturatingExponential(0.5, 1.0), lat)
        inv_f = 1.0 / coeffs.f_C[:-1]
        assert np.all(sdp.v[:-1] <= inv_f[:, None] * (1 + 1e-12))

    def test_closed_form_boundary_within_cell(self):
        grid, coeffs, prod, scrap, curve = closed_form_instance(60)
        lat = Lattice.geometric(1e-4, 4.0, 400)
        sdp = dp_stopping_value(coeffs, prod, scrap, lat)
        truth = 1.0 - np.exp(-(1.0 - grid.nodes[:-1]))
        cell = np.log(lat.y_nodes[1] / lat.y_nodes[0])
        # one lattice cell in relative terms, plus the Bermudan step bias
        rel = np.abs(sdp.boundary - truth) / truth
        assert np.max(rel[:-5]) <= 2 * cell + 0.05

    def test_v_non_increasing_in_y(self):
        grid = cb.TimeGrid.uniform(1.0, 12)
        coeffs = coeffs_for(grid)
        lat = Lattice.geometric(0.01, 20.0, 80)
        sdp = dp_stopping_value(coeffs, cb.power_marginal(0.3, 1.0),
                                cb.SaturatingExponential(0.5, 1.0), lat)
        assert np.all(np.diff(sdp.v, axis=1) <= 1e-12)

    def test_v_strictly_decreasing_above_boundary(self):
        grid = cb.TimeGrid.uniform(1.0, 12)
        coeffs = coeffs_for(grid)
        lat = Lattice.geometric(0.01, 20.0, 80)
        sdp = dp_stopping_value(coeffs, cb.power_marginal(0.3, 1.0),
                                cb.SaturatingExponential(0.5, 1.0), lat)
        for i in (0, 5):
            above = lat.y_nodes > sdp.boundary[i] * 1.05
            vi = sdp.v[i][above]
            assert np.all(np.diff(vi) < 0)

    def test_time_monotonicity_under_efficiency(self):
        grid = cb.TimeGrid.uniform(1.0, 15)
        coeffs = coeffs_for(grid, mu_C=0.1, sigma=0.3,
                            f_C=lambda t: np.exp(-0.16 * t), mu_F=0.05)
        rep = cb.validate(coeffs, cb.power_marginal(0.15, 1.0),
                          cb.SaturatingExponential(0.5, 1.0))
        assert rep.efficiency_ok
        lat = Lattice.geometric(0.005, 5.0, 120)
        sdp = dp_stopping_value(coeffs, cb.power_marginal(0.15, 1.0),
                                cb.SaturatingExponential(0.5, 1.0), lat)
        inv_f = 1.0 / coeffs.f_C[:-1]
        gap = sdp.v[:-1] - inv_f[:, None]
        interior = slice(5, -5)
        assert np.all(np.diff(gap[:, interior], axis=0) <= 1e-6)


class TestValueDP:
    def test_no_profit_motive(self):
        grid = cb.TimeGrid.uniform(1.0, 8)
        coeffs = coeffs_for(grid)
        lat = Lattice.geometric(0.1, 10.0, 40)
        vdp = dp_value(coeffs, ZERO_PROD, cb.ZeroScrap(), lat)
        assert np.allclose(vdp.V, 0.0)

    def test_one_period_exhaustive_search(self):
        grid = cb.TimeGrid.uniform(0.5, 1)
        coeffs = coeffs_for(grid, sigma=0.25, mu_C=0.1, mu_F=0.08, f_C=0.7)
        scrap = cb.SaturatingExponential(0.8, 1.2)
        lat = Lattice.geometric(0.05, 8.0, 50)
        vdp = dp_value(coeffs, ZERO_PROD, scrap, lat)
        shifts, probs = trinomial_steps(coeffs, MEASURE_P)
        b = np.exp(-0.5 * (coeffs.mu_F[0] + coeffs.mu_F[1]) * grid.deltas[0])
        y = lat.y_nodes
        logy = np.log(y)
        g_next = np.asarray(scrap.value(y))
        for m in (0, 13, 29, 49):
            best = -np.inf
            for n_idx in range(m, y.size):
                ev = sum(probs[s] * np.interp(logy[n_idx] + shifts[0, s], logy, g_next)
                         for s in range(3))
                cand = -(y[n_idx] - y[m]) / 0.7 + b * ev
                best = max(best, cand)
            assert vdp.V[0, m] == pytest.approx(best, rel=1e-12)

    def test_range_violation(self):
        grid = cb.TimeGrid.uniform(1.0, 3)
        coeffs = coeffs_for(grid)
        lat = Lattice.geometric(0.01, 0.05, 12)
        with pytest.raises(LatticeRangeError):
            dp_value(coeffs, cb.power_marginal(5.0, 1.0),
                     cb.SaturatingExponential(0.5, 1.0), lat)

    def test_marginal_capped_by_replacement_cost(self):
        grid = cb.TimeGrid.uniform(1.0, 10)
        coeffs = coeffs_for(grid)
        lat = Lattice.geometric(0.02, 10.0, 100)
        vdp = dp_value(coeffs, cb.power_marginal(0.3, 1.0),
                       cb.SaturatingExponential(0.5, 1.0), lat)
        inv_f = 1.0 / coeffs.f_C[:-1]
        assert np.all(vdp.dVdy[:-1, 2:-2] <= inv_f[:, None] * (1 + 1e-6))


class TestShadowValue:
    def test_marginal_matches_stopping_value(self):
        grid = cb.TimeGrid.uniform(1.0, 25)
        coeffs = coeffs_for(grid, mu_C=0.05, sigma=0.1, mu_F=0.05)
        prod = cb.power_marginal(0.2, 1.0)
        scrap = cb.SaturatingExponential(0.5, 1.0)
        lat = Lattice.geometric(0.002, 4.0, 200)
        sdp = dp_stopping_value(coeffs, prod, scrap, lat)
        vdp = dp_value(coeffs, prod, scrap, lat)
        gap, _ = shadow_value_gap(vdp, sdp, margin=8)
        assert gap <= 0.05


class TestCrossValidate:
    def test_closed_form_gap_small(self):
        grid, coeffs, prod, scrap, curve = closed_form_instance(40)
        lat = Lattice.geometric(1e-4, 4.0, 300)
        sdp = dp_stopping_value(coeffs, prod, scrap, lat)
        rep = cross_validate(curve, sdp)
        # exclude the very last nodes where the boundary collapses to the cell size
        assert np.max(rep.per_node_rel_gap[:-4]) <= 0.08

    def test_refinement_shrinks_gap(self):
        grid, coeffs, prod, scrap, curve = closed_form_instance(40)
        gaps = []
        for nodes in (60, 240):
            lat = Lattice.geometric(1e-4, 4.0, nodes)
            sdp = dp_stopping_value(coeffs, prod, scrap, lat)
            gaps.append(np.max(cross_validate(curve, sdp).per_node_rel_gap[:-4]))
        assert gaps[1] < gaps[0]

    def test_grid_mismatch_rejected(self):
        grid, coeffs, prod, scrap, curve = closed_form_instance(40)
        other = cb.TimeGrid.uniform(1.0, 20)
        lat = Lattice.geometric(1e-4, 4.0, 50)
        sdp = dp_stopping_value(coeffs_for(other, mu_C=0.0, sigma=0.0, mu_F=1.0),
                                prod, scrap, lat)
        with pytest.raises(ValueError):
            cross_validate(curve, sdp)


class TestSupergradient:
    def test_degenerate_minus_one(self):
        grid = cb.TimeGrid.uniform(1.0, 10)
        coeffs = coeffs_for(grid)
        flat = BoundaryCurve(grid, np.full(10, 1e-12), np.zeros(10), np.zeros(10),
                             np.zeros(10), np.zeros(10, dtype=int), meta={})
        batch = cb.simulate(coeffs, 64, MEASURE_P, seed=0)
        est, se = supergradient(flat, 1.0, coeffs, ZERO_PROD, cb.ZeroScrap(),
                                batch, StoppingRule.at_node(0))
        assert est == pytest.approx(-1.0, abs=1e-14)
        assert se == 0.0

    def test_zero_at_first_investment(self):
        grid = cb.TimeGrid.uniform(1.0, 30)
        coeffs = coeffs_for(grid)
        prod = cb.CobbDouglas(0.25, 0.25, 0.25)
        scrap = cb.SaturatingExponential(0.5, 1.0)
        curve = cb.solve_boundary(coeffs, prod, scrap, mc=McConfig(n_paths=4000, seed=1))
        batch = cb.simulate(coeffs, 8000, MEASURE_P, seed=2)
        est, se = supergradient(curve, 0.5 * curve.values[0], coeffs, prod,
                                scrap, batch, StoppingRule.first_investment())
        assert abs(est) <= 2 * se + 1e-9

    def test_negative_far_above_boundary(self):
        grid = cb.TimeGrid.uniform(1.0, 30)
        coeffs = coeffs_for(grid)
        prod = cb.CobbDouglas(0.25, 0.25, 0.25)
        scrap = cb.SaturatingExponential(0.5, 1.0)
        curve = cb.solve_boundary(coeffs, prod, scrap, mc=McConfig(n_paths=4000, seed=1))
        batch = cb.simulate(coeffs, 8000, MEASURE_P, seed=2)
        est, se = supergradient(curve, 3.0 * curve.values[0], coeffs, prod,
                                scrap, batch, StoppingRule.at_node(0))
        assert est < -2 * se
        assert est < 0

    def test_hitting_rule_is_first_crossing(self):
        grid = cb.TimeGrid.uniform(1.0, 12)
        coeffs = coeffs_for(grid)
        batch = cb.simulate(coeffs, 32, MEASURE_P, seed=3)
        cap = 0.8 * batch.values
        rule = StoppingRule.hitting(0.75, "th")
        idx = rule.indices(cap)
        for p in range(cap.shape[0]):
            crossings = np.flatnonzero(cap[p] <= 0.75)
            expected = crossings[0] if crossings.size else grid.n_steps
            assert idx[p] == expected


class TestCheckFoc:
    def test_closed_form_instance_passes(self):
        grid, coeffs, prod, scrap, curve = closed_form_instance(50)
        batch = cb.simulate(coeffs, 4, MEASURE_P, seed=0)
        rep = check_foc(curve, [0.5 * curve.values[0], 2.0 * curve.values[0]],
                        coeffs, prod, scrap, batch)
        assert rep.passed
        assert len(rep.entries) == 26
        for e in rep.entries:
            assert e.estimate <= 1e-9

    def test_slackness_exactly_zero_without_investment(self):
        grid, coeffs, prod, scrap, curve = closed_form_instance(30)
        batch = cb.simulate(coeffs, 4, MEASURE_P, seed=0)
        rep = check_foc(curve, [5.0 * curve.values[0]], coeffs, prod, scrap, batch)
        slack = rep.slackness[0]
        assert slack.value == 0.0
        assert slack.se == 0.0
        assert rep.passed

    def test_detects_inflated_boundary(self):
        grid = cb.TimeGrid.uniform(1.0, 25)
        coeffs = coeffs_for(grid)
        prod = cb.CobbDouglas(0.25, 0.25, 0.25)
        scrap = cb.SaturatingExponential(0.5, 1.0)
        curve = cb.solve_boundary(coeffs, prod, scrap, mc=McConfig(n_paths=3000, seed=4))
        bad = BoundaryCurve(grid, curve.values * 1.2, curve.residual, curve.residual_se,
                            curve.solver_se, curve.iters, meta={})
        batch = cb.simulate(coeffs, 8000, MEASURE_P, seed=5)
        rep = check_foc(bad, [0.5 * bad.values[0]], coeffs, prod, scrap, batch)
        assert not rep.passed

    def test_two_initial_levels_share_curve(self):
        grid = cb.TimeGrid.uniform(1.0, 25)
        coeffs = coeffs_for(grid)
        prod = cb.CobbDouglas(0.25, 0.25, 0.25)
        scrap = cb.SaturatingExponential(0.5, 1.0)
        curve = cb.solve_boundary(coeffs, prod, scrap, mc=McConfig(n_paths=4000, seed=6))
        batch = cb.simulate(coeffs, 12000, MEASURE_P, seed=7)
        rep = check_foc(curve, [0.5 * curve.values[0], 2.0 * curve.values[0]],
                        coeffs, prod, scrap, batch)
        assert rep.passed


def _dense_integrand(ws, y, coeffs, prod, scrap, batch):
    """The FOC integrand with the post-action marginal taken on every cell,
    where it equals the node marginal except on the cells where the plan acts."""
    grid = coeffs.grid
    n = grid.n_steps
    cum_c = cumulative_integral(grid, coeffs.mu_C)
    mart = batch.values * np.exp(cum_c)[None, :]
    mass0, term0 = discount_step_masses(grid, coeffs.bar_mu, 0)
    marg = reduced_marginal_array(prod, ws.capacity[:, :n], coeffs.w[:n], coeffs.r[:n])
    contrib = np.empty_like(ws.capacity)
    contrib[:, :n] = mart[:, :n] * mass0[None, :] * marg
    contrib[:, n] = mart[:, n] * term0 * np.asarray(scrap.marginal(ws.capacity[:, n]))
    suffix = np.cumsum(contrib[:, ::-1], axis=1)[:, ::-1]
    cap_plus = batch.values[:, :n] * (y + ws.plans.nubar[:, 1:])
    marg_plus = reduced_marginal_array(prod, cap_plus, coeffs.w[:n], coeffs.r[:n])
    own_step = mart[:, :n] * mass0[None, :] * (marg_plus - marg)
    disc_f = np.exp(-cumulative_integral(grid, coeffs.mu_F))
    return (coeffs.f_C[None, :n] * np.exp(cum_c)[None, :n] * (suffix[:, :n] + own_step)
            / mart[:, :n] - disc_f[None, :n])


# sigma = 0.4 makes the plan act at interior nodes.  A box at kappa = 5e4
# puts the first break of the Cobb-Douglas marginal among the capacities:
# some cells where the plan acts lie past it and some do not; at 7e4 none of
# them does while other cells do, so the sparse post-action marginal takes the
# interior line where the dense one took the minimum of all four
@pytest.mark.parametrize("kappa, past", [(1e6, "none"), (5e4, "some"), (7e4, "none")])
def test_post_action_marginal_on_acting_cells_keeps_the_integrand_bytes(kappa, past):
    grid = cb.TimeGrid.uniform(1.0, 20)
    coeffs = coeffs_for(grid, sigma=0.4)
    prod = cb.CobbDouglas(0.25, 0.25, 0.25, kappa, kappa)
    scrap = cb.SaturatingExponential(0.5, 1.0)
    curve = cb.solve_boundary(coeffs, prod, scrap, mc=McConfig(n_paths=1000, seed=0))
    batch = cb.simulate(coeffs, 400, MEASURE_P, seed=1)
    cap = power_marginal_form(prod, coeffs.w[:20], coeffs.r[:20])[2]
    y = 0.5 * curve.values[0]
    ws = _FocWorkspace(curve, y, coeffs, prod, scrap, batch)
    nubar = ws.plans.nubar
    acts = nubar[:, 1:] != nubar[:, :-1]
    assert acts[:, 1:].any()
    beyond = batch.values[:, :20] * (y + nubar[:, 1:]) > cap
    assert (acts & beyond).any() == (past == "some")
    assert (acts & ~beyond).any()
    assert (~acts & beyond).any() == (kappa < 1e6)
    assert ws.integrand.tobytes() == _dense_integrand(ws, y, coeffs, prod, scrap, batch).tobytes()
