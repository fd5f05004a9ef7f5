"""The probed bisection against plain bisection.

``_bisect_node`` walks plain bisection once per node and settles most of its
signs from a few probes instead of evaluating each one.  On a residual that
is non-increasing in the candidate it must return what plain bisection
returns, bit for bit, and raise what it raises; ``plain_bisect`` below is
that reference.  A NaN residual raises ``ConvergenceError`` instead.
"""

import json
import logging
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import capexbound as cb
from capexbound import boundary, cli
from capexbound.artifacts import read_boundary_csv
from capexbound.boundary import BracketError, ConvergenceError, McConfig


def plain_bisect(ev, guess, tol_rel, node):
    """Plain bisection: every bracket end and midpoint evaluated."""
    lo = 0.5 * guess
    hi = 2.0 * guess
    while lo > 0.0:
        res_lo, _ = ev(lo)
        if not res_lo <= 0.0:
            break
        lo *= 0.5
    else:
        raise BracketError(f"node {node}: no sign change down to the smallest float")
    while hi < np.inf:
        res_hi, _ = ev(hi)
        if not res_hi >= 0.0:
            break
        hi *= 2.0
    else:
        raise BracketError(f"node {node}: no sign change up to the largest float")
    if not res_lo > res_hi:
        raise ConvergenceError(f"node {node}: residual not decreasing across the bracket")
    iters = 0
    mid = 0.5 * lo + 0.5 * hi
    while hi - lo > tol_rel * mid:
        iters += 1
        if mid == lo or mid == hi:
            raise ConvergenceError(f"node {node}: tolerance {tol_rel:g} is below the "
                                   f"float resolution at {mid:g}")
        res_mid, _ = ev(mid)
        if res_mid > 0.0:
            lo, res_lo = mid, res_mid
        else:
            hi, res_hi = mid, res_mid
        mid = 0.5 * lo + 0.5 * hi
    res_root, se_root = ev(mid)
    slope = (res_lo - res_hi) / max(hi - lo, 1e-300)
    root_unc = np.hypot(se_root, 0.5 * slope * (hi - lo))
    value_unc = np.hypot(0.5 * (hi - lo), se_root / max(slope, 1e-300))
    return mid, iters, res_root, se_root, float(root_unc), float(value_unc), slope


def bits(values):
    return tuple(float(v).hex() for v in values)


def outcome(fn, *args):
    """Bits of the result, or the type and message of the error raised."""
    try:
        return bits(fn(*args))
    except (BracketError, ConvergenceError) as exc:
        return type(exc).__name__, str(exc)


class Counted:
    """Synthetic residual with a standard error, counting evaluations."""

    def __init__(self, fn, se=0.0):
        self.fn = fn
        self.se = se
        self.evals = 0

    def __call__(self, x):
        self.evals += 1
        return float(self.fn(x)), self.se


# ---------------------------------------------------------------------------
# every node of real solves


def checked_solve(monkeypatch, coeffs, prod, scrap, mc=McConfig(), **kw):
    """Solve with every node's replay compared to plain bisection on the
    same frozen batch; returns the curve and the replay's evaluations per
    node, latest node first."""
    replayed = boundary._bisect_node
    evals = []

    def both(ev, guess, tol_rel, node, *hint):
        before = ev.evals
        got = replayed(ev, guess, tol_rel, node, *hint)
        evals.append(ev.evals - before)
        assert bits(got) == bits(plain_bisect(ev, guess, tol_rel, node)), node
        return got

    monkeypatch.setattr(boundary, "_bisect_node", both)
    curve = cb.solve_boundary(coeffs, prod, scrap, mc=mc, **kw)
    assert len(evals) == coeffs.grid.n_steps
    return curve, np.array(evals)


def readme_instance(n_steps, kappa=1e6):
    grid = cb.TimeGrid.uniform(1.0, n_steps)
    coeffs = cb.CoefficientSet.build(grid, mu_C=0.1, sigma=0.2, f_C=1.0, mu_F=0.05,
                                     w=1.0, r=1.0)
    prod = cb.CobbDouglas(0.25, 0.25, 0.25, kappa, kappa)
    return coeffs, prod, cb.SaturatingExponential(0.5, 1.0)


def closed_form_instance(n_steps):
    grid = cb.TimeGrid.uniform(1.0, n_steps)
    coeffs = cb.CoefficientSet.build(grid, mu_C=0.0, sigma=0.0, f_C=1.0, mu_F=1.0,
                                     w=1.0, r=1.0)
    return coeffs, cb.power_marginal(1.0, 1.0), cb.ZeroScrap()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cobb_douglas_nodes_match_plain_bisection(monkeypatch, seed):
    _, evals = checked_solve(monkeypatch, *readme_instance(20), McConfig(n_paths=4000, seed=seed))
    # plain bisection takes about 18 evaluations per node here
    assert evals.mean() <= 8.0
    assert evals[1:].max() <= 12


def test_closed_form_nodes_match_plain_bisection(monkeypatch):
    _, evals = checked_solve(monkeypatch, *closed_form_instance(200), allow_zero_scrap=True)
    # about 35 per node for plain bisection at the deterministic tolerance;
    # the first node solved has no slope from a later one to step by
    assert evals.mean() <= 7.0
    assert evals[1:].max() <= 8


def test_binding_box_nodes_match_plain_bisection(monkeypatch):
    curve, _ = checked_solve(monkeypatch, *readme_instance(8, kappa=100.0),
                             McConfig(n_paths=500, seed=0))
    assert curve.meta["dense_nodes"] == 8


def test_time_varying_nodes_match_plain_bisection(monkeypatch):
    grid = cb.TimeGrid.uniform(1.0, 20)
    coeffs = cb.CoefficientSet.build(
        grid, mu_C=lambda t: 0.08 + 0.06 * t, sigma=lambda t: 0.15 + 0.10 * t,
        f_C=lambda t: 0.9 - 0.2 * t, mu_F=lambda t: 0.04 + 0.03 * (1.0 - t),
        w=lambda t: 1.0 + 0.3 * t, r=lambda t: 1.2 - 0.3 * t)
    checked_solve(monkeypatch, coeffs, cb.CobbDouglas(0.3, 0.3, 0.2),
                  cb.SaturatingExponential(0.4, 0.8), McConfig(n_paths=2000, seed=4))


# residual evaluations, solve and audit together, with each node's aim
# extrapolated from the three later roots; the walk takes no more
EVALS_BEFORE = {"closed_form": 952, "cobb_douglas": (123, 122, 123)}


def counted_walks(monkeypatch):
    """The node of every ``_walk`` call from here on."""
    nodes = []
    walk = boundary._walk
    monkeypatch.setattr(boundary, "_walk", lambda *args: (nodes.append(args[-1]), walk(*args))[1])
    return nodes


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cobb_douglas_walks_once_per_node(monkeypatch, seed):
    nodes = counted_walks(monkeypatch)
    curve = cb.solve_boundary(*readme_instance(20), mc=McConfig(n_paths=4000, seed=seed))
    assert nodes == list(range(19, -1, -1))
    assert curve.meta["residual_evals"] <= EVALS_BEFORE["cobb_douglas"][seed]


def test_closed_form_walks_once_per_node(monkeypatch):
    nodes = counted_walks(monkeypatch)
    curve = cb.solve_boundary(*closed_form_instance(200), allow_zero_scrap=True)
    assert nodes == list(range(199, -1, -1))
    assert curve.meta["residual_evals"] <= EVALS_BEFORE["closed_form"]


def test_solve_records_bisection_steps():
    coeffs, prod, scrap = closed_form_instance(50)
    curve = cb.solve_boundary(coeffs, prod, scrap, allow_zero_scrap=True)
    # each node's midpoints are mostly settled without an evaluation
    assert curve.meta["residual_evals"] < curve.iters.sum() / 3


def test_solve_log_reports_evaluations_against_bisection_steps(tmp_path, caplog):
    config = {
        "grid": {"T": 1.0, "N": 25},
        "coefficients": {"mu_C": 0.05, "sigma": 0.1, "f_C": 1.0, "mu_F": 0.05,
                         "w": 1.0, "r": 1.0},
        "production": {"variant": "power_marginal", "scale": 0.2, "exponent": 1.0},
        "scrap": {"variant": "saturating_exponential", "a": 0.5, "b": 1.0},
        "mc": {"paths": 3000, "seed": 5},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    with caplog.at_level(logging.INFO, logger="capexbound"):
        assert cli.main(["solve", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    line = next(r.getMessage() for r in caplog.records if r.name == "capexbound")
    evals, steps = map(int, re.search(r"(\d+) residual evaluations for (\d+) bisection steps",
                                      line).groups())
    iters = read_boundary_csv(str(tmp_path / "o" / "boundary.csv")).iters
    assert steps == int(iters.sum())
    # solve and audit evaluations together, against the solve's steps
    assert evals < steps / 2


# ---------------------------------------------------------------------------
# synthetic monotone residuals


SHAPES = ("kinked", "plateau", "dyadic_zero", "infinite_tails", "positive", "negative",
          "zero", "nan", "nan_band")


def residual_shape(shape, root, left, right, band):
    """A residual non-increasing in the candidate, or one with NaN."""
    def kinked(x):
        # slope ``left`` below the root and ``right`` above it
        return left * (root - x) if x < root else right * (root - x)

    if shape in ("kinked", "dyadic_zero"):
        return kinked
    if shape == "plateau":
        # zero on [root, root * (1 + band)], so the first zero is the root
        return lambda x: left * (root - x) if x < root else min(
            0.0, right * (root * (1.0 + band) - x))
    if shape == "infinite_tails":
        return lambda x: (np.inf if x < root / (1.0 + band)
                          else -np.inf if x > root * (1.0 + band) else kinked(x))
    if shape == "positive":
        return lambda x: 1.0 + 1.0 / x
    if shape == "negative":
        return lambda x: -x
    if shape == "zero":
        return lambda x: 0.0
    if shape == "nan":
        return lambda x: np.nan
    # NaN on a band around the root that is wider than the final bracket
    return lambda x: np.nan if abs(x / root - 1.0) <= band else kinked(x)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    shape=st.sampled_from(SHAPES),
    guess=st.floats(1e-3, 1e3),
    root_octaves=st.floats(-12.0, 12.0),
    left=st.floats(-6.0, 6.0),
    right=st.floats(-6.0, 6.0),
    band=st.floats(0.01, 0.5),
    # the last tolerance is below the resolution of floats near any root
    tol_rel=st.sampled_from([1e-2, 1e-4, 1e-9, 1e-17]),
    se=st.sampled_from([0.0, 1e-3]),
    # octaves of the root, or none at all
    aim=st.one_of(st.none(), st.floats(-10.0, 10.0), st.sampled_from([np.inf, -np.inf, np.nan])),
    slope=st.one_of(st.none(), st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e),
                    st.sampled_from([0.0, -1.0, np.inf, np.nan])),
    pick=st.integers(0, 200),
)
def test_replay_matches_plain_bisection(shape, guess, root_octaves, left, right, band,
                                        tol_rel, se, aim, slope, pick):
    root = guess * 2.0 ** root_octaves
    left, right = 10.0 ** left, 10.0 ** right
    if shape == "dyadic_zero":
        # move the root onto a candidate plain bisection visits, where the
        # residual is then exactly zero
        seen = []
        probe = Counted(residual_shape("kinked", root, left, right, band))
        record = lambda x: (seen.append(x), probe(x))[1]
        outcome(plain_bisect, record, guess, tol_rel, 0)
        root = seen[pick % len(seen)]
    if aim is not None:
        aim = root * 2.0 ** aim
    fn = residual_shape(shape, root, left, right, band)
    plain, replayed = Counted(fn, se), Counted(fn, se)
    want = outcome(plain_bisect, plain, guess, tol_rel, 7)
    got = outcome(boundary._bisect_node, replayed, guess, tol_rel, 7, aim, slope)
    if shape in ("nan", "nan_band"):
        # the root lies in the NaN band, so some sign the walk needs is NaN
        assert got[0] == "ConvergenceError"
        return
    assert got == want
    # the probes stay within _LEAD evaluations of plain bisection's count
    # before the root's; the final bracket ends and the root may still need
    # one each
    assert replayed.evals <= plain.evals + boundary._LEAD + 2


def test_zero_residual_does_not_settle_upper_bracket_end():
    # r = 0 on [1, 3] and the guess 1 puts the upper end 2 on the zero
    # plateau: plain bisection needs r < 0 there, so it doubles to 4
    fn = lambda x: min(1.0 - x, 0.0) if x <= 3.0 else 3.0 - x
    want = outcome(plain_bisect, Counted(fn), 1.0, 1e-4, 0)
    for aim in (1.0, 1.5, 2.5, 3.5):
        assert outcome(boundary._bisect_node, Counted(fn), 1.0, 1e-4, 0, aim, 1.0) == want


def test_predicted_upper_end_above_a_zero_is_probed():
    # r = 0 on [1.9999, 3]: the upper end 2.0 lies on the zero, where
    # r < 0 fails, so plain bisection doubles it to 4 and takes 19
    # evaluations; the probes near the aim 2.0 settle the node in 6
    fn = lambda x: 1.9999 - x if x < 1.9999 else min(0.0, 3.0 - x)
    seen = []
    ev = lambda x: (seen.append(x), (fn(x), 0.0))[1]
    want = outcome(plain_bisect, Counted(fn), 1.0, 1e-4, 0)
    assert outcome(boundary._bisect_node, ev, 1.0, 1e-4, 0, 2.0, 1.0) == want
    assert len(seen) <= 6


def test_nan_residual_raises_naming_the_node():
    # NaN everywhere: the first evaluation, a probe near the guess, stops
    # the solve with the node and the candidate
    ev = Counted(lambda x: np.nan)
    with pytest.raises(ConvergenceError, match=r"^node 3: residual is NaN at candidate 0\.99"):
        boundary._bisect_node(ev, 1.0, 1e-4, 3)
    assert ev.evals == 1


@pytest.mark.parametrize("root", [1e-300, 5e-13, 1e300])
@pytest.mark.parametrize("hint", [(), (1.0, 1.0), ("root", 1.0)], ids=["none", "guess", "root"])
def test_far_root_matches_plain_bisection(root, hint):
    # the bracket expands about 40 to 1000 times from the guess 1.0; the aim
    # is the guess, the root itself, or nothing
    hint = tuple(root if h == "root" else h for h in hint)
    fn = residual_shape("kinked", root, 1.0, 1.0, 0.1)
    plain, replayed = Counted(fn), Counted(fn)
    want = outcome(plain_bisect, plain, 1.0, 1e-9, 0)
    assert outcome(boundary._bisect_node, replayed, 1.0, 1e-9, 0, *hint) == want
    assert replayed.evals <= plain.evals + boundary._LEAD + 2


@pytest.mark.parametrize("root, left, right, guess, tol_rel, aim, slope", [
    (4.1273409416761766e-221, 2.130908435330217, 1.0416920618723037e-4,
     0.11655668431641442, 1e-9, 2.0636704708380883e-221, 0.0),
    (3.425724314973946e-192, 0.00856817762450675, 699192.264969991,
     250.07462015060963, 1e-4, 2.1410776968587163e-193, None),
], ids=["zero-slope", "no-slope"])
def test_illinois_weights_underflowing_to_equal_values(root, left, right, guess, tol_rel,
                                                       aim, slope):
    # a probe lands on r == 0 and the halved weight of the other bracket end
    # underflows to 0 too, so regula falsi has no secant to follow
    fn = residual_shape("kinked", root, left, right, 0.1)
    plain, replayed = Counted(fn), Counted(fn)
    want = outcome(plain_bisect, plain, guess, tol_rel, 0)
    assert outcome(boundary._bisect_node, replayed, guess, tol_rel, 0, aim, slope) == want
    assert replayed.evals <= plain.evals + boundary._LEAD + 2
