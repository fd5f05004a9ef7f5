"""The record-block residual evaluator against the dense one.

The solver evaluates power-form marginals from the records of the running
supremum, stepping one monotone stack per path backward through the nodes;
the dense evaluator recomputes every future argument and is the reference.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import capexbound as cb
from capexbound import boundary
from capexbound.boundary import McConfig, _BatchResidual, _NodeResidual
from capexbound.paths import MEASURE_Q, sample_decay


def _instance(n, sigma, mu_C, w_slope, r_slope, prod):
    grid = cb.TimeGrid.uniform(1.0, n)
    coeffs = cb.CoefficientSet.build(
        grid, mu_C=mu_C, sigma=sigma, f_C=1.0, mu_F=0.05,
        w=lambda t: 1.0 + w_slope * t, r=lambda t: 1.0 + r_slope * t)
    return coeffs, prod, cb.SaturatingExponential(0.5, 1.0)


def _walk(coeffs, prod, scrap, cp, curve, antithetic, rel_candidates):
    """Step the block evaluator backward and compare it with a dense
    evaluator built at every node; returns the block evaluator."""
    # the evaluator takes the batch node-major, as the solve draws it
    ev = _BatchResidual(coeffs, prod, scrap, np.ascontiguousarray(cp.T), antithetic)
    n = coeffs.grid.n_steps
    # the box room by its definition: row i is the suffix minimum over steps
    # j >= i of cap_j / cp_j, with an unbounded row past the last step
    cap = boundary.power_marginal_form(prod, coeffs.w[:n], coeffs.r[:n])[2]
    room = np.full((n + 1, cp.shape[0]), np.inf)
    np.divide(cap[:, None], cp.T[:n], out=room[:n])
    np.minimum.accumulate(room[::-1], axis=0, out=room[::-1])
    blocks_on = ev.blocks_on
    for i in range(n - 1, -1, -1):
        future = curve[i + 1:]
        ev.at(i, future)
        # a record whose supremum reaches the box from node i+2 on ends the
        # blocks for good; b_safe is the smallest candidate that reaches it
        if future.size and np.any(future[0] / cp[:, i + 1] > room[i + 2]):
            blocks_on = False
        assert ev.blocks_on == blocks_on
        if blocks_on:
            assert ev.b_safe == float(np.min(cp[:, i] * room[i]))
        dense = _NodeResidual(coeffs, prod, scrap, i, cp, future, antithetic)
        candidates = [f * curve[i] for f in rel_candidates]
        if ev.blocks_on and np.isfinite(ev.b_safe):
            candidates += [ev.b_safe * (1.0 - 1e-9), ev.b_safe, 2.0 * ev.b_safe]
        # ascending, so the dense evaluator exists exactly from the first
        # candidate that needs it on
        for c in sorted(candidates):
            on_blocks = ev.blocks_on and c < ev.b_safe
            got = ev.per_path(c)
            assert (ev.dense is None) == on_blocks
            np.testing.assert_allclose(got, dense.per_path(c), rtol=1e-12, atol=0.0)
            # the residual subtracts the replacement cost and the standard
            # error can vanish, so both are held to the per-path scale
            scale = 1e-12 * float(np.max(np.abs(got)))
            block_res, block_se = ev(c)
            dense_res, dense_se = dense(c)
            assert abs(block_res - dense_res) <= scale
            assert abs(block_se - dense_se) <= scale
    return ev


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    n=st.integers(2, 12),
    n_paths=st.integers(1, 9),
    antithetic=st.booleans(),
    seed=st.integers(0, 10_000),
    sigma=st.sampled_from([0.0, 0.05, 0.3, 0.8]),
    mu_C=st.sampled_from([0.0, 0.1, -0.2]),
    w_slope=st.floats(-0.5, 0.5),
    r_slope=st.floats(-0.5, 0.5),
    kappa=st.sampled_from([1e6, 10.0, 1.0, 0.3]),
    power=st.booleans(),
    levels=st.lists(st.sampled_from([0.2, 0.5, 0.9, 1.0, 1.7, 4.0]), min_size=12, max_size=12),
    along_decay=st.booleans(),
    rel=st.lists(st.floats(0.05, 20.0), min_size=1, max_size=3),
)
def test_block_matches_dense_on_random_batches(n, n_paths, antithetic, seed, sigma, mu_C,
                                               w_slope, r_slope, kappa, power, levels,
                                               along_decay, rel):
    # repeated levels and, at sigma = 0, a curve proportional to the decay
    # path give tied records; caps from slack to tight put b_safe below and
    # above the candidates and trip the box test at some nodes
    prod = cb.power_marginal(1.3, 0.7) if power else cb.CobbDouglas(0.25, 0.25, 0.25, kappa, kappa)
    coeffs, prod, scrap = _instance(n, sigma, mu_C, w_slope, r_slope, prod)
    cp = sample_decay(coeffs, n_paths, MEASURE_Q, seed, "solve", antithetic)
    curve = np.array(levels[:n])
    if along_decay and sigma == 0.0:
        curve = levels[0] * cp[0, :n]
    _walk(coeffs, prod, scrap, cp, curve, antithetic, rel)


def test_deep_stacks_ties_and_box_fallback():
    # an increasing curve makes every later node a record, so the stack
    # depth grows past the initial allocation; a tight box then trips the
    # dense fallback part way back
    n = 24
    coeffs, prod, scrap = _instance(n, 0.3, 0.1, 0.2, -0.2, cb.CobbDouglas(0.25, 0.25, 0.25))
    cp = sample_decay(coeffs, 40, MEASURE_Q, 3, "solve", True)
    curve = np.exp(np.linspace(0.0, 3.0, n))
    ev = _walk(coeffs, prod, scrap, cp, curve, True, (0.3, 1.0, 3.0))
    assert ev.blocks_on and ev.stack_q.shape[0] > 3

    coeffs, prod, scrap = _instance(n, 0.0, 0.0, 0.0, 0.0, cb.power_marginal(1.0, 0.5))
    cp = sample_decay(coeffs, 1, MEASURE_Q, 0, "solve", True)
    tied = np.repeat([2.0, 1.0, 3.0], n // 3)
    ev = _walk(coeffs, prod, scrap, cp, tied, True, (0.5, 1.0, 2.0))
    assert ev.blocks_on and max(d[1] for d in ev.depths) == 2

    boxed = cb.CobbDouglas(0.25, 0.25, 0.25, 5.0, 5.0)
    coeffs, prod, scrap = _instance(n, 0.3, 0.1, 0.0, 0.0, boxed)
    cp = sample_decay(coeffs, 40, MEASURE_Q, 3, "solve", True)
    ev = _walk(coeffs, prod, scrap, cp, curve, True, (0.3, 1.0, 3.0))
    assert not ev.blocks_on and ev.dense_nodes > 0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_solve_matches_dense_power_marginal(seed, monkeypatch):
    # the same marginal with its power form hidden runs every node densely
    grid = cb.TimeGrid.uniform(1.0, 20)
    coeffs = cb.CoefficientSet.build(grid, mu_C=0.1, sigma=0.2, f_C=1.0, mu_F=0.05,
                                     w=1.0, r=1.0)
    scrap = cb.SaturatingExponential(0.5, 1.0)
    power = cb.power_marginal(1.0, 0.5)
    mc = McConfig(n_paths=4000, seed=seed)
    fast = cb.solve_boundary(coeffs, power, scrap, mc=mc)
    monkeypatch.setattr(boundary, "power_marginal_form", lambda prod, w, r: (None, 0.0, None))
    slow = cb.solve_boundary(coeffs, power, scrap, mc=mc)
    assert fast.meta["block_nodes"] == 20 and fast.meta["dense_nodes"] == 0
    assert slow.meta["block_nodes"] == 0 and slow.meta["dense_nodes"] == 20
    np.testing.assert_array_equal(fast.iters, slow.iters)
    np.testing.assert_allclose(fast.values, slow.values, rtol=1e-12, atol=0.0)
    assert fast.meta["residual_evals"] == slow.meta["residual_evals"]


def test_evaluator_holds_no_second_decay_sized_matrix():
    # the weights W_j are kept for three nodes at a time, and the batch is
    # taken as given, node-major: no other (N+1) x P array is ever alive
    n, n_paths = 30, 64
    coeffs, prod, scrap = _instance(n, 0.3, 0.1, 0.2, -0.2, cb.CobbDouglas(0.25, 0.25, 0.25))
    cp = sample_decay(coeffs, n_paths, MEASURE_Q, 3, "solve", True, by_node=True)
    ev = _BatchResidual(coeffs, prod, scrap, cp, True)
    assert ev.cp is cp
    curve = np.linspace(2.0, 1.0, n)
    rows = 0
    for i in range(n - 1, -1, -1):
        ev.at(i, curve[i + 1:])
        ev(curve[i])
        assert ev.blocks_on and ev.dense is None
        rows = max(rows, len(ev.levels))
        assert all(a is cp or a.size < cp.size for a in _held_arrays(vars(ev).values()))
    # the per-row path lists were among the arrays inspected
    assert rows >= 2


def _held_arrays(values):
    """Every array among ``values``, also inside tuples and lists, nested."""
    for val in values:
        if isinstance(val, (tuple, list)):
            yield from _held_arrays(val)
        elif isinstance(val, np.ndarray):
            yield val


def _padded_per_path(ev, candidate):
    """The evaluation over every stack row, zero-weight padding included, as
    one einsum: the record-block sum before the rows were listed per path."""
    rows = ev.top + 1
    block_w = ev.stack_w[:rows] * float(ev.growth[ev.node])
    cand_q = ev.cand_q * candidate ** ev.q
    running = np.einsum("dp,dp->p", block_w, np.minimum(ev.stack_q[:rows], cand_q))
    tail = ev.scrap.marginal(np.maximum(ev.tail_floor, ev.tail_slope * candidate))
    return running + ev.tail_mass * np.asarray(tail, dtype=float)


@pytest.mark.parametrize("n_paths", [64, 1])
def test_listed_rows_sum_as_the_padded_stack(n_paths):
    # an increasing curve makes every later node a record, so most paths
    # hold stacks of different depths and the padding is most of the array;
    # a lone path, as at sigma = 0, holds every row and einsum sums its
    # single column in an order of its own
    n = 40
    coeffs, prod, scrap = _instance(n, 0.3, 0.1, 0.2, -0.2, cb.CobbDouglas(0.25, 0.25, 0.25))
    cp = sample_decay(coeffs, 64, MEASURE_Q, 5, "solve", True, by_node=True)[:, :n_paths].copy()
    ev = _BatchResidual(coeffs, prod, scrap, cp, True)
    curve = np.exp(np.linspace(0.0, 3.0, n))
    for i in range(n - 1, -1, -1):
        ev.at(i, curve[i + 1:])
        assert ev.blocks_on and not ev.tail_off
        for c in curve[i] * np.array([0.01, 0.3, 1.0, 3.0, 100.0]):
            np.testing.assert_array_equal(ev.per_path(c), _padded_per_path(ev, c))
    depths = np.array([d[1] for d in ev.depths])
    assert depths.max() >= 8 and (ev.below.min() < ev.top - 1 or n_paths == 1)


def test_vanished_tail_is_skipped_bit_for_bit():
    # the README model on a curve falling from 2000 to 1: near the horizon
    # the floors are small and the scrap tail is live, further back
    # exp(-b * floor) underflows to 0.0 on every path and is skipped
    n = 30
    grid = cb.TimeGrid.uniform(1.0, n)
    coeffs = cb.CoefficientSet.build(grid, mu_C=0.1, sigma=0.2, f_C=1.0, mu_F=0.05, w=1.0, r=1.0)
    prod, scrap = cb.CobbDouglas(0.25, 0.25, 0.25, 1e6, 1e6), cb.SaturatingExponential(0.5, 1.0)
    cp = sample_decay(coeffs, 500, MEASURE_Q, 7, "solve", True, by_node=True)
    ev = _BatchResidual(coeffs, prod, scrap, cp, True)
    curve = np.geomspace(2000.0, 1.0, n)
    mixed = False
    for i in range(n - 1, -1, -1):
        ev.at(i, curve[i + 1:])
        skip = ev.tail_off
        # the tail is skipped exactly when it is 0.0 at every path's floor
        zero = np.asarray(scrap.marginal(ev.tail_floor)) == 0.0
        assert skip == bool(zero.all())
        mixed |= bool(zero.any() and not zero.all())
        for c in curve[i] * np.array([1e-3, 0.5, 1.0, 2.0]):
            got = ev.per_path(c)
            ev.tail_off = False
            np.testing.assert_array_equal(got, ev.per_path(c))
            np.testing.assert_array_equal(got, _padded_per_path(ev, c))
            ev.tail_off = skip
    skipped = [d[2] for d in ev.depths]
    assert any(skipped) and not all(skipped) and mixed


def test_solve_counts_the_nodes_that_skip_the_tail():
    grid = cb.TimeGrid.uniform(1.0, 20)
    coeffs = cb.CoefficientSet.build(grid, mu_C=0.1, sigma=0.2, f_C=1.0, mu_F=0.05, w=1.0, r=1.0)
    prod = cb.CobbDouglas(0.25, 0.25, 0.25, 1e6, 1e6)
    curve = cb.solve_boundary(coeffs, prod, cb.SaturatingExponential(0.5, 1.0),
                              mc=McConfig(n_paths=2000, seed=0))
    # exp(-C) underflows to 0.0 once every floor is above ~745: at all but
    # the last three nodes, where the curve falls to 647, 162 and no record
    assert curve.meta["block_nodes"] == 20 and curve.meta["tail_skip_nodes"] == 17
