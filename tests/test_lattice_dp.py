"""The lattice DPs and the step-discount formula against the per-node loops
they replaced, bit for bit.

The references below are the earlier implementations, kept as plain
bisection is kept in test_root_replay.py: every node re-integrated the
remaining horizon for its first discount mass and evaluated production on
its own slice.  The recursion now reads all masses and one-step discounts
from one pass and evaluates production once per DP, with the same bytes.
"""

import math

import numpy as np
import pytest

import capexbound as cb
from capexbound.model import discount_step_masses, step_discounts
from capexbound.paths import MEASURE_P, MEASURE_Q
from capexbound.production import reduced_marginal_array, reduced_value_array
from capexbound.verify import (
    Lattice,
    LatticeRangeError,
    _expectation,
    dp_stopping_value,
    dp_value,
    trinomial_steps,
)


def reference_expected_next(values, log_nodes, shifts, probs):
    """E[next(y * xi)] as the DPs computed it before the gather: one
    np.interp per shift, clamped at the edges."""
    out = np.zeros_like(values)
    for s in range(shifts.size):
        out += probs[s] * np.interp(log_nodes + shifts[s], log_nodes, values)
    return out


def reference_step_masses(grid, rate_values, start):
    cum = cb.model.cumulative_integral(grid, rate_values)
    rel = cum[start:] - cum[start]
    disc = np.exp(-rel)
    m = 0.5 * (rate_values[start:-1] + rate_values[start + 1:])
    dt = grid.deltas[start:]
    step_int = m * dt
    with np.errstate(invalid="ignore", divide="ignore"):
        masses = disc[:-1] * np.where(step_int > 0, -np.expm1(-step_int) / np.where(m > 0, m, 1.0), dt)
    masses = np.where(step_int > 0, masses, disc[:-1] * dt)
    return masses, float(disc[-1])


def reference_b(grid, rate, i):
    return float(np.exp(-(0.5 * (rate[i] + rate[i + 1]) * grid.deltas[i])))


def reference_stopping(coeffs, prod, scrap, lattice):
    grid = lattice.grid
    n = grid.n_steps
    y = lattice.y_nodes
    logy = lattice.log_nodes
    shifts, probs = trinomial_steps(coeffs, MEASURE_Q)
    v = np.empty((n + 1, y.size))
    v[n] = np.asarray(scrap.marginal(y), dtype=float)
    boundary = np.zeros(n)
    for i in range(n - 1, -1, -1):
        masses, _ = reference_step_masses(grid, coeffs.bar_mu, i)
        cont = (reduced_marginal_array(prod, y, coeffs.w[i], coeffs.r[i]) * masses[0]
                + reference_b(grid, coeffs.bar_mu, i)
                * reference_expected_next(v[i + 1], logy, shifts[i], probs))
        cap = 1.0 / float(coeffs.f_C[i])
        v[i] = np.minimum(cap, cont)
        contact = np.flatnonzero(v[i] >= cap * (1.0 - 1e-12))
        boundary[i] = y[contact[-1]] if contact.size else 0.0
    return v, boundary


def reference_value(coeffs, prod, scrap, lattice):
    grid = lattice.grid
    n = grid.n_steps
    y = lattice.y_nodes
    logy = lattice.log_nodes
    shifts, probs = trinomial_steps(coeffs, MEASURE_P)
    V = np.empty((n + 1, y.size))
    V[n] = np.asarray(scrap.value(y), dtype=float)
    for i in range(n - 1, -1, -1):
        masses, _ = reference_step_masses(grid, coeffs.mu_F, i)
        inv_f = 1.0 / float(coeffs.f_C[i])
        gain = (reduced_value_array(prod, y, coeffs.w[i], coeffs.r[i]) * masses[0]
                + reference_b(grid, coeffs.mu_F, i)
                * reference_expected_next(V[i + 1], logy, shifts[i], probs))
        score = gain - inv_f * y
        suffix = np.maximum.accumulate(score[::-1])[::-1]
        V[i] = suffix + inv_f * y
        suffix_ex_top = np.maximum.accumulate(score[-2::-1])[::-1]
        tol = 1e-12 * max(1.0, abs(score[-1]))
        if np.any(score[-1] > suffix_ex_top + tol):
            raise LatticeRangeError("optimal install hits the top lattice node; enlarge y_max")
    dVdy = np.empty_like(V)
    dVdy[:, 1:-1] = (V[:, 2:] - V[:, :-2]) / (y[2:] - y[:-2])
    dVdy[:, 0] = (V[:, 1] - V[:, 0]) / (y[1] - y[0])
    dVdy[:, -1] = (V[:, -1] - V[:, -2]) / (y[-1] - y[-2])
    boundary = np.zeros(n)
    for i in range(n):
        cap = 1.0 / float(coeffs.f_C[i])
        contact = np.flatnonzero(dVdy[i] >= cap * (1.0 - 1e-6))
        boundary[i] = y[contact[-1]] if contact.size else 0.0
    return V, dVdy, boundary


def random_rates(rng, kind, size):
    if kind == "constant":
        return np.full(size, rng.uniform(0.01, 3.0))
    if kind == "zero":
        return np.zeros(size)
    rate = rng.uniform(0.0, 2.0, size)
    if kind == "gaps":
        rate[rng.random(size) < 0.3] = 0.0
    return rate


class TestStepDiscounts:
    @pytest.mark.parametrize("kind", ["constant", "varying", "gaps", "zero"])
    def test_discount_step_masses_unchanged(self, kind):
        rng = np.random.default_rng(["constant", "varying", "gaps", "zero"].index(kind))
        for _ in range(40):
            n = int(rng.integers(1, 60))
            grid = cb.TimeGrid(np.concatenate([[0.0], np.cumsum(rng.uniform(0.001, 0.5, n))]))
            rate = random_rates(rng, kind, n + 1)
            for start in sorted({0, n // 2, n - 1}):
                masses, terminal = discount_step_masses(grid, rate, start)
                ref_masses, ref_terminal = reference_step_masses(grid, rate, start)
                assert masses.tobytes() == ref_masses.tobytes()
                assert terminal == ref_terminal

    @pytest.mark.parametrize("kind", ["constant", "varying", "gaps", "zero"])
    def test_first_mass_and_one_step_discount_at_every_node(self, kind):
        rng = np.random.default_rng(10 + ["constant", "varying", "gaps", "zero"].index(kind))
        for _ in range(10):
            n = int(rng.integers(1, 40))
            grid = cb.TimeGrid(np.concatenate([[0.0], np.cumsum(rng.uniform(0.001, 0.5, n))]))
            rate = random_rates(rng, kind, n + 1)
            mass, disc = step_discounts(grid, rate)
            for i in range(n):
                assert mass[i] == discount_step_masses(grid, rate, i)[0][0]
                assert mass[i] == reference_step_masses(grid, rate, i)[0][0]
                assert disc[i] == reference_b(grid, rate, i)

    def test_constant_rate_closed_form(self):
        grid = cb.TimeGrid.uniform(2.0, 8)
        mass, disc = step_discounts(grid, np.full(9, 0.5))
        assert mass == pytest.approx(np.full(8, (1 - np.exp(-0.125)) / 0.5), rel=1e-15)
        assert disc == pytest.approx(np.full(8, np.exp(-0.125)), rel=1e-15)


def _closed_form():
    grid = cb.TimeGrid.uniform(1.0, 200)
    coeffs = cb.CoefficientSet.build(grid, mu_C=0.0, sigma=0.0, f_C=1.0, mu_F=1.0,
                                     w=1.0, r=1.0)
    return coeffs, cb.power_marginal(1.0, 1.0), cb.ZeroScrap(), (6e-4, 2.6, 200)


def _readme():
    grid = cb.TimeGrid.uniform(1.0, 100)
    coeffs = cb.CoefficientSet.build(grid, mu_C=0.1, sigma=0.2, f_C=1.0, mu_F=0.05,
                                     w=1.0, r=1.0)
    return (coeffs, cb.CobbDouglas(0.25, 0.25, 0.25), cb.SaturatingExponential(0.5, 1.0),
            (0.8, 2.4e5, 200))


def _binding_box():
    grid = cb.TimeGrid.uniform(1.0, 8)
    coeffs = cb.CoefficientSet.build(grid, mu_C=0.1, sigma=0.2, f_C=1.0, mu_F=0.05,
                                     w=1.0, r=1.0)
    prod = cb.CobbDouglas(0.25, 0.25, 0.25, kappa_L=100.0, kappa_K=100.0)
    return coeffs, prod, cb.SaturatingExponential(0.5, 1.0), (6.7, 3.3e3, 200)


def _time_varying():
    # w and r move the box's first break from slice to slice, so the lattice
    # crosses it on some slices only
    grid = cb.TimeGrid.uniform(1.0, 50)
    coeffs = cb.CoefficientSet.build(
        grid, mu_C=lambda t: 0.08 + 0.06 * t, sigma=lambda t: 0.15 + 0.10 * t,
        f_C=lambda t: 0.9 - 0.2 * t, mu_F=lambda t: 0.04 + 0.03 * (1.0 - t),
        w=lambda t: 1.0 + 3.0 * t, r=lambda t: 1.2 - 0.3 * t)
    prod = cb.CobbDouglas(0.3, 0.3, 0.2, kappa_L=3e5, kappa_K=3e5)
    return coeffs, prod, cb.SaturatingExponential(0.4, 0.8), (0.5, 6e5, 150)


def _zero_rate_steps():
    grid = cb.TimeGrid.uniform(1.0, 30)
    mu_F = np.where(np.arange(31) % 7 < 3, 0.0, 0.2)
    coeffs = cb.CoefficientSet.build(grid, mu_C=0.0, sigma=0.25, f_C=1.0, mu_F=mu_F,
                                     w=1.0, r=1.0)
    return (coeffs, cb.power_marginal(0.3, 0.7), cb.SaturatingExponential(0.5, 1.0),
            (1e-3, 50.0, 120))


INSTANCES = {"closed_form": _closed_form, "readme": _readme, "binding_box": _binding_box,
             "time_varying": _time_varying, "zero_rate_steps": _zero_rate_steps}


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_dps_match_per_node_reference_bit_for_bit(name):
    coeffs, prod, scrap, (y_min, y_max, nodes) = INSTANCES[name]()
    lattice = Lattice.geometric(coeffs.grid, y_min, y_max, nodes)
    sdp = dp_stopping_value(coeffs, prod, scrap, lattice)
    v, boundary = reference_stopping(coeffs, prod, scrap, lattice)
    assert sdp.v.tobytes() == v.tobytes()
    assert sdp.boundary.tobytes() == boundary.tobytes()
    assert np.any(boundary > 0)
    vdp = dp_value(coeffs, prod, scrap, lattice)
    V, dVdy, vboundary = reference_value(coeffs, prod, scrap, lattice)
    assert vdp.V.tobytes() == V.tobytes()
    assert vdp.dVdy.tobytes() == dVdy.tobytes()
    assert vdp.boundary.tobytes() == vboundary.tobytes()


def test_time_varying_box_binds_on_some_slices_only():
    coeffs, prod, _, (y_min, y_max, nodes) = _time_varying()
    n = coeffs.grid.n_steps
    lines = cb.production._cd_lines(prod, coeffs.w[:n, None], coeffs.r[:n, None])
    past = np.log(np.geomspace(y_min, y_max, nodes)) > cb.production._first_break(lines)
    assert 0 < np.count_nonzero(past.any(axis=1)) < n


def test_truncation_raised_as_by_reference():
    coeffs, _, scrap, _ = _closed_form()
    prod = cb.power_marginal(5.0, 1.0)
    lattice = Lattice.geometric(coeffs.grid, 0.01, 0.05, 12)
    with pytest.raises(LatticeRangeError):
        reference_value(coeffs, prod, scrap, lattice)
    with pytest.raises(LatticeRangeError):
        dp_value(coeffs, prod, scrap, lattice)


def test_truncation_edge_matches_reference():
    """Bisect the lattice top to where the reference's truncation test
    flips; the recursion must flip at the same place."""
    coeffs, prod, scrap, _ = _zero_rate_steps()

    def raises(dp, y_max):
        try:
            dp(coeffs, prod, scrap, Lattice.geometric(coeffs.grid, 1e-3, y_max, 40))
        except LatticeRangeError:
            return True
        return False

    lo, hi = 3e-3, 5e-2
    assert raises(reference_value, lo) and not raises(reference_value, hi)
    for _ in range(45):
        mid = math.sqrt(lo * hi)
        if raises(reference_value, mid):
            lo = mid
        else:
            hi = mid
    assert raises(dp_value, lo) and not raises(dp_value, hi)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gathered_expectation_is_np_interp_bit_for_bit(seed):
    # exact hits (a zero shift, a node spacing), interior points and clamped
    # ends on both sides, on a geometric lattice and on an uneven one
    rng = np.random.default_rng(seed)
    geometric = np.linspace(-3.0, 4.0, 41)
    uneven = np.sort(rng.uniform(-5.0, 5.0, 57))
    probs = np.array([1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0])
    for logy in (geometric, uneven):
        values = rng.standard_normal(logy.size) * 10.0 ** rng.integers(-8, 8, logy.size)
        h = logy[1] - logy[0]
        for shifts in ([h, 0.0, -h], [0.3, 0.01, -0.27], [50.0, -50.0, 0.0], rng.normal(0, 2, 3)):
            shifts = np.asarray(shifts, dtype=float)
            got = _expectation(logy, shifts, probs)(values)
            np.testing.assert_array_equal(got, reference_expected_next(values, logy, shifts, probs))
