import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from capexbound.model import CoefficientSet, TimeGrid, cumulative_integral
from capexbound.paths import (
    MEASURE_P,
    MEASURE_Q,
    mean_and_se,
    pair_means,
    running_sup_matrix,
    simulate,
)


def make_coeffs(grid, sigma=0.2, mu_C=0.1):
    return CoefficientSet.build(grid, mu_C=mu_C, sigma=sigma, f_C=1.0,
                                mu_F=0.05, w=1.0, r=1.0)


GRID = TimeGrid.uniform(1.0, 8)


class TestSimulate:
    def test_deterministic_decay(self):
        coeffs = make_coeffs(GRID, sigma=0.0, mu_C=0.1)
        batch = simulate(coeffs, 16, MEASURE_P, seed=0)
        assert np.allclose(batch.values[:, -1], np.exp(-0.1), rtol=0, atol=1e-12)
        assert np.all(batch.values[:, 0] == 1.0)

    @pytest.mark.parametrize("measure", [MEASURE_P, MEASURE_Q])
    @pytest.mark.parametrize("antithetic", [True, False])
    def test_sigma_zero_is_one_row(self, measure, antithetic):
        # every path is the same: one row, exact estimates, zero standard error
        coeffs = make_coeffs(GRID, sigma=0.0, mu_C=0.1)
        batch = simulate(coeffs, 16, measure, seed=0, antithetic=antithetic)
        assert batch.values.shape == (1, GRID.n_steps + 1)
        cum = cumulative_integral(GRID, coeffs.mu_C)
        assert np.allclose(batch.values[0], np.exp(-cum), rtol=1e-14)
        stat = batch.values[:, -1]
        assert mean_and_se(stat, antithetic) == (stat[0], 0.0)

    def test_martingale_property(self):
        coeffs = make_coeffs(GRID)
        batch = simulate(coeffs, 100000, MEASURE_P, seed=1)
        cum = cumulative_integral(GRID, coeffs.mu_C)
        stat = batch.values[:, -1] * np.exp(cum[-1])
        vals = pair_means(stat, batch.antithetic)
        se = np.std(vals, ddof=1) / np.sqrt(vals.size)
        assert abs(np.mean(vals) - 1.0) <= 3 * se

    def test_changed_measure_mean(self):
        coeffs = make_coeffs(GRID)
        batch = simulate(coeffs, 100000, MEASURE_Q, seed=2)
        target = np.exp((0.2 ** 2 - 0.1) * 1.0)
        vals = pair_means(batch.values[:, -1], batch.antithetic)
        se = np.std(vals, ddof=1) / np.sqrt(vals.size)
        assert abs(np.mean(vals) - target) <= 3 * se

    def test_reproducible(self):
        coeffs = make_coeffs(GRID)
        a = simulate(coeffs, 64, MEASURE_Q, seed=9)
        b = simulate(coeffs, 64, MEASURE_Q, seed=9)
        assert np.array_equal(a.values, b.values)
        c = simulate(coeffs, 64, MEASURE_Q, seed=10)
        assert not np.array_equal(a.values, c.values)

    def test_antithetic_layout(self):
        coeffs = make_coeffs(GRID)
        batch = simulate(coeffs, 10, MEASURE_P, seed=4)
        logs = np.log(batch.values[:, -1])
        mean, var = -0.1 - 0.5 * 0.04, 0.04
        z = (logs - mean) / np.sqrt(var)
        h = batch.n_paths // 2
        assert np.allclose(z[:h], -z[h:], atol=1e-10)

    def test_antithetic_variance_reduction(self):
        # paired means beat independent means on the martingale statistic
        coeffs = make_coeffs(GRID, sigma=0.4)
        cum = cumulative_integral(GRID, coeffs.mu_C)
        wins = 0
        trials = 40
        for seed in range(trials):
            anti = simulate(coeffs, 2000, MEASURE_P, seed=seed, antithetic=True)
            indep = simulate(coeffs, 2000, MEASURE_P, seed=seed + 1000, antithetic=False)
            stat_a = pair_means(anti.values[:, -1] * np.exp(cum[-1]), anti.antithetic)
            stat_i = indep.values[:, -1] * np.exp(cum[-1])
            var_a = np.var(stat_a, ddof=1) / stat_a.size
            var_i = np.var(stat_i, ddof=1) / stat_i.size
            wins += var_a <= var_i
        assert wins >= int(0.95 * trials)

    def test_no_paths_rejected(self):
        coeffs = make_coeffs(GRID)
        with pytest.raises(ValueError):
            simulate(coeffs, 0, MEASURE_P, seed=0)


class TestRunningSup:
    def test_zero_curve(self):
        coeffs = make_coeffs(GRID, sigma=0.0)
        batch = simulate(coeffs, 1, MEASURE_P, seed=0, antithetic=False)
        s = running_sup_matrix(batch.values, np.zeros(GRID.n_steps))[0]
        assert np.all(s == 0.0)

    def test_worked_example(self):
        grid = TimeGrid.uniform(1.0, 3)
        coeffs = make_coeffs(grid, sigma=0.0, mu_C=0.0)
        batch = simulate(coeffs, 1, MEASURE_P, seed=0, antithetic=False)
        s = running_sup_matrix(batch.values, np.array([2.0, 1.5, 1.8]))[0]
        assert np.allclose(s, [2.0, 2.0, 2.0])

    def test_recurrence_and_monotone(self):
        grid = TimeGrid.uniform(1.0, 12)
        coeffs = make_coeffs(grid)
        path = simulate(coeffs, 1, MEASURE_Q, seed=5, antithetic=False).values
        rng = np.random.default_rng(0)
        curve = rng.uniform(0.1, 3.0, grid.n_steps)
        s = running_sup_matrix(path, curve)[0]
        assert np.all(np.diff(s) >= 0)
        for k in range(1, s.size):
            assert s[k] == max(s[k - 1], curve[k] / path[0, k])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 10), st.integers(0, 12345))
    def test_matches_bruteforce(self, n_steps, seed):
        grid = TimeGrid.uniform(1.0, n_steps)
        coeffs = make_coeffs(grid)
        path = simulate(coeffs, 1, MEASURE_Q, seed=seed, antithetic=False).values
        rng = np.random.default_rng(seed)
        curve = rng.uniform(0.01, 5.0, n_steps)
        s = running_sup_matrix(path, curve)[0]
        for k in range(1, n_steps + 1):
            brute = max(curve[i] / path[0, i] for i in range(k))
            assert s[k - 1] == pytest.approx(brute, rel=1e-15)

    def test_matrix_variant_matches(self):
        # each row of the batch result is the running sup of that path alone
        grid = TimeGrid.uniform(1.0, 6)
        coeffs = make_coeffs(grid)
        batch = simulate(coeffs, 8, MEASURE_Q, seed=3)
        curve = np.linspace(1.0, 0.5, grid.n_steps)
        mat = running_sup_matrix(batch.values, curve)
        for p in range(batch.n_paths):
            assert np.allclose(mat[p], running_sup_matrix(batch.values[p:p + 1], curve)[0])
