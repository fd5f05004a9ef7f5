import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from capexbound.model import (
    CobbDouglas,
    CoefficientSet,
    SaturatingExponential,
    SyntheticMarginal,
    TimeGrid,
    ZeroScrap,
    cumulative_integral,
    discount_step_masses,
    power_marginal,
    validate,
)


def make_coeffs(grid, **over):
    base = dict(mu_C=0.1, sigma=0.2, f_C=1.0, mu_F=0.05, w=1.0, r=1.0)
    base.update(over)
    return CoefficientSet.build(grid, **base)


class TestTimeGrid:
    def test_uniform(self):
        g = TimeGrid.uniform(2.0, 4)
        assert g.horizon == 2.0
        assert g.n_steps == 4
        assert np.allclose(g.deltas, 0.5)

    def test_rejects_single_node(self):
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.0]))

    def test_rejects_nonincreasing(self):
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.0, 0.5, 0.5, 1.0]))

    def test_rejects_nonzero_start(self):
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.1, 1.0]))


class TestIntegrateRate:
    """Integrals of a rate between grid nodes, as differences of the one
    antiderivative ``cumulative_integral``."""

    def test_constant(self):
        g = TimeGrid.uniform(1.0, 10)
        cum = cumulative_integral(g, np.full(g.nodes.size, 0.3))
        assert cum[7] - cum[2] == pytest.approx(0.3 * 0.5, abs=1e-15)

    def test_empty_interval(self):
        g = TimeGrid.uniform(1.0, 10)
        assert cumulative_integral(g, np.full(g.nodes.size, 5.0))[0] == 0.0

    def test_linear_exact(self):
        g = TimeGrid.uniform(1.0, 100)
        assert cumulative_integral(g, g.nodes)[-1] == pytest.approx(0.5, abs=1e-15)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0.0, 5.0), min_size=11, max_size=11),
           st.integers(0, 10), st.integers(0, 10), st.integers(0, 10))
    def test_additive(self, vals, k1, k2, k3):
        g = TimeGrid.uniform(1.0, 10)
        a, b, c = sorted((k1, k2, k3))
        cum = cumulative_integral(g, np.array(vals))
        whole = cum[c] - cum[a]
        split = (cum[b] - cum[a]) + (cum[c] - cum[b])
        assert split == pytest.approx(whole, abs=1e-12, rel=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0.0, 5.0), min_size=11, max_size=11),
           st.integers(0, 10), st.integers(0, 10))
    def test_nonnegative(self, vals, k1, k2):
        g = TimeGrid.uniform(1.0, 10)
        a, b = sorted((k1, k2))
        cum = cumulative_integral(g, np.array(vals))
        assert cum[b] - cum[a] >= 0.0


class TestDiscountMasses:
    def test_exact_for_constant_rate(self):
        g = TimeGrid.uniform(1.0, 37)
        rate = np.full(g.nodes.size, 0.8)
        masses, terminal = discount_step_masses(g, rate, 0)
        assert masses.sum() == pytest.approx((1 - np.exp(-0.8)) / 0.8, abs=1e-14)
        assert terminal == pytest.approx(np.exp(-0.8), abs=1e-14)

    def test_zero_rate_limit(self):
        g = TimeGrid.uniform(1.0, 10)
        masses, terminal = discount_step_masses(g, np.zeros(g.nodes.size), 0)
        assert masses.sum() == pytest.approx(1.0, abs=1e-15)
        assert terminal == 1.0

    def test_partial_horizon(self):
        g = TimeGrid.uniform(1.0, 10)
        rate = np.full(g.nodes.size, 1.0)
        masses, _ = discount_step_masses(g, rate, 4)
        assert masses.size == 6
        assert masses.sum() == pytest.approx(1 - np.exp(-0.6), abs=1e-14)


class TestValidate:
    def test_bar_mu_passes_efficiency_fails(self):
        # mu_C 0.1, sigma 0.2, mu_F 0.05: floor holds but with constant f_C
        # the decay condition bar_mu <= -f'/f = 0 cannot hold
        grid = TimeGrid.uniform(1.0, 20)
        coeffs = make_coeffs(grid)
        rep = validate(coeffs, CobbDouglas(0.25, 0.25, 0.25), SaturatingExponential(0.5, 1.0))
        assert rep.check("discount-floor").passed
        assert not rep.efficiency_ok
        assert rep.hard_ok

    def test_scrap_marginal_bound(self):
        # G'(0) = a b = 2 against f_C(T) = 0.4 gives 0.8 <= 1
        grid = TimeGrid.uniform(1.0, 20)
        coeffs = make_coeffs(grid, f_C=0.4)
        rep = validate(coeffs, CobbDouglas(0.25, 0.25, 0.25), SaturatingExponential(1.0, 2.0))
        assert rep.check("scrap").passed

    def test_scrap_marginal_bound_violated(self):
        grid = TimeGrid.uniform(1.0, 20)
        coeffs = make_coeffs(grid, f_C=1.0)
        rep = validate(coeffs, CobbDouglas(0.25, 0.25, 0.25), SaturatingExponential(3.0, 1.0))
        assert not rep.check("scrap").passed

    def test_cobb_douglas_exponent_sum_rejected(self):
        with pytest.raises(ValueError):
            CobbDouglas(0.3, 0.4, 0.4)

    @pytest.mark.parametrize("build", [
        lambda: SyntheticMarginal(power_scale=-1.0, power_exponent=1.0),
        lambda: SyntheticMarginal(power_scale=1.0, power_exponent=-0.5),
        lambda: SyntheticMarginal(power_scale=np.nan, power_exponent=1.0),
        lambda: SyntheticMarginal(power_scale=1.0, power_exponent=np.nan),
        lambda: CobbDouglas(np.nan, 0.25, 0.25),
        lambda: CobbDouglas(0.25, 0.25, 0.25, kappa_L=np.nan),
        lambda: SaturatingExponential(np.nan, 1.0),
    ], ids=["negative-scale", "negative-exponent", "nan-scale", "nan-exponent", "nan-alpha",
            "nan-kappa", "nan-scrap"])
    def test_bad_parameters_rejected(self, build):
        with pytest.raises(ValueError):
            build()

    def test_synthetic_marginal_accepts_zero_exponent(self):
        flat = SyntheticMarginal(power_scale=2.0, power_exponent=0.0)
        np.testing.assert_array_equal(flat.marginal([0.5, 1.0, 4.0]), 2.0)
        np.testing.assert_array_equal(flat.value([0.5, 1.0, 4.0]), [1.0, 2.0, 8.0])

    @pytest.mark.parametrize("exponent", [0.1, 0.2, 1.0, 3.0])
    def test_power_marginal_passes_production_check(self, exponent):
        coeffs = make_coeffs(TimeGrid.uniform(1.0, 4))
        rep = validate(coeffs, power_marginal(0.3, exponent), SaturatingExponential(0.5, 1.0))
        assert rep.check("production").passed

    @pytest.mark.parametrize("scale,exponent", [(0.0, 0.5), (0.3, 0.0), (0.0, 0.0)])
    def test_zero_or_constant_marginal_fails_inada(self, scale, exponent):
        coeffs = make_coeffs(TimeGrid.uniform(1.0, 4))
        prod = SyntheticMarginal(power_scale=scale, power_exponent=exponent)
        chk = validate(coeffs, prod, SaturatingExponential(0.5, 1.0)).check("production")
        assert not chk.passed
        assert "Inada" in chk.detail

    def test_efficiency_holds_with_decaying_conversion(self):
        grid = TimeGrid.uniform(1.0, 20)
        coeffs = make_coeffs(grid, mu_C=0.08, sigma=0.2, mu_F=0.05,
                             f_C=lambda t: np.exp(-0.15 * t))
        rep = validate(coeffs, CobbDouglas(0.25, 0.25, 0.25), SaturatingExponential(0.5, 1.0))
        assert rep.efficiency_ok

    def test_discount_floor_violation_located(self):
        grid = TimeGrid.uniform(1.0, 10)
        mu = np.zeros(grid.nodes.size)
        coeffs = make_coeffs(grid, mu_C=mu, mu_F=mu)
        rep = validate(coeffs, CobbDouglas(0.25, 0.25, 0.25), SaturatingExponential(0.5, 1.0))
        chk = rep.check("discount-floor")
        assert not chk.passed
        assert chk.first_violation == 0

    def test_zero_scrap_flagged_not_hard(self):
        grid = TimeGrid.uniform(1.0, 10)
        coeffs = make_coeffs(grid)
        rep = validate(coeffs, CobbDouglas(0.25, 0.25, 0.25), ZeroScrap())
        assert not rep.check("scrap-strict-decrease").passed

    def test_idempotent_and_side_effect_free(self):
        grid = TimeGrid.uniform(1.0, 10)
        coeffs = make_coeffs(grid)
        prod = power_marginal(1.0, 1.0)
        scrap = SaturatingExponential(0.5, 1.0)
        before = coeffs.f_C.copy()
        r1 = validate(coeffs, prod, scrap)
        r2 = validate(coeffs, prod, scrap)
        assert str(r1) == str(r2)
        assert np.array_equal(coeffs.f_C, before)

    @pytest.mark.parametrize("over", [{"w": 0.0}, {"w": -1.0}, {"r": 0.0}])
    def test_invalid_costs_fail_without_warnings(self, over):
        # the marginal is undefined at a non-positive wage or rate, so the
        # efficiency check must not evaluate it once the cost check failed
        coeffs = make_coeffs(TimeGrid.uniform(1.0, 10), **over)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = validate(coeffs, CobbDouglas(0.25, 0.25, 0.25), SaturatingExponential(0.5, 1.0))
        assert not rep.check("cost-functions").passed
        assert not rep.hard_ok
        assert not rep.efficiency_ok

    def test_nonfinite_rejected(self):
        grid = TimeGrid.uniform(1.0, 4)
        with pytest.raises(ValueError):
            make_coeffs(grid, w=np.array([1.0, 1.0, np.nan, 1.0, 1.0]))


class TestCumulativeIntegral:
    def test_matches_trapz(self):
        g = TimeGrid.uniform(2.0, 13)
        vals = np.sin(g.nodes) + 2
        cum = cumulative_integral(g, vals)
        assert cum[0] == 0.0
        manual = np.sum(0.5 * (vals[:-1] + vals[1:]) * np.diff(g.nodes))
        assert cum[-1] == pytest.approx(manual, rel=1e-14)

    def test_coefficients_frozen(self):
        grid = TimeGrid.uniform(1.0, 4)
        coeffs = make_coeffs(grid)
        with pytest.raises(ValueError):
            coeffs.mu_C[0] = 5.0
