"""Investment exercise boundary from the capacity problem's integral equation.

The boundary value at each node is the root, in the candidate level, of a
discounted expectation of future marginal profits evaluated along the running
supremum of boundary-to-decay ratios, minus the replacement cost of capital.
Solving proceeds backward in time.  At each node one walk of plain bisection
(``_walk``) brackets the root by geometric expansion around the previous
node's solution, over the whole range of positive floats, and bisects it; a
few probes near the predicted root settle most of its signs
(``_bisect_node``).

Discretization conventions, shared with the policy and verification modules:

* the integrand is frozen at the left node of each step, with the candidate
  standing in for the boundary value on the first step (the window of the
  running supremum is open on the right);
* the discount carried by each step is integrated exactly for a per-step
  constant rate, so instances with constant coefficients incur no quadrature
  error in the discount factor;
* expectations are Monte-Carlo averages over a batch frozen per node, which
  makes the residual monotone in the candidate path by path and guarantees
  bisection convergence; the reported residual is re-estimated on a fresh
  batch.

Two evaluators compute the same residual: a dense one for any marginal, whose
set-up at a node costs O(paths x remaining nodes) (``_NodeResidual``), and one
for a marginal that is a negative power of capacity, which sums blocks between
the records of each path's running supremum, so a solve grows linearly in the
number of nodes (``_BatchResidual``).
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import asdict, dataclass, field

import numpy as np

from .model import (
    AssumptionError,
    CoefficientSet,
    ProductionSpec,
    ScrapSpec,
    TimeGrid,
    _freeze,
    cumulative_integral,
    discount_step_masses,
    validate,
)
from .paths import MEASURE_Q, PathBatch, mean_and_se, running_sup_matrix, sample_decay
from .production import power_marginal_form, reduced_marginal_array


class BracketError(AssumptionError):
    """The residual does not change sign anywhere on the positive floats."""


class ConvergenceError(RuntimeError):
    """The solve stopped short of a root: a residual was NaN, the decay paths
    left the doubles, or the tolerance is finer than the floats near the
    root can resolve."""


@dataclass(frozen=True)
class McConfig:
    n_paths: int = 20000
    seed: int = 0
    antithetic: bool = True


@dataclass(frozen=True)
class SolverConfig:
    tol_rel: float = 1e-4
    tol_rel_det: float = 1e-9


@dataclass(frozen=True)
class BoundaryCurve:
    """Solved boundary with per-node residual diagnostics.

    ``residual`` and ``residual_se`` come from the fresh-batch audit;
    ``solver_se`` is the residual-scale uncertainty carried by the solved
    root (frozen-batch noise plus bisection width) and ``value_se`` the same
    uncertainty expressed in boundary units.
    """

    grid: TimeGrid
    values: np.ndarray
    residual: np.ndarray
    residual_se: np.ndarray
    solver_se: np.ndarray
    iters: np.ndarray
    value_se: np.ndarray = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.value_se is None:
            object.__setattr__(self, "value_se", np.zeros_like(np.asarray(self.values)))
        for name in ("values", "residual", "residual_se", "solver_se", "value_se"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))
        it = np.asarray(self.iters, dtype=int)
        it.setflags(write=False)
        object.__setattr__(self, "iters", it)

    @property
    def combined_se(self) -> np.ndarray:
        return np.sqrt(self.residual_se ** 2 + self.solver_se ** 2)


class _NodeResidual:
    """Dense residual evaluator at one node on a frozen set of decay paths.

    ``paths`` runs from t = 0 to the horizon; the sub-paths from the node are
    its column slice rescaled to start at one.  Every evaluation computes the
    reduced marginal at each path's argument on every remaining step, so it
    serves any production spec and any input box.  The solver falls back to
    it where the record-block evaluator does not apply, and ``residual`` uses
    it directly as the reference evaluator.
    """

    def __init__(self, coeffs: CoefficientSet, prod: ProductionSpec, scrap: ScrapSpec,
                 node: int, paths: np.ndarray, future: np.ndarray, antithetic: bool):
        grid = coeffs.grid
        n = grid.n_steps
        m = n - node
        if paths.ndim != 2 or paths.shape[1] != n + 1:
            raise ValueError("path matrix shape does not match the grid")
        if future.size != n - 1 - node:
            raise ValueError("future boundary values have the wrong length")
        self.prod = prod
        self.scrap = scrap
        self.antithetic = antithetic
        self.decay = decay = np.divide(paths[:, node:], paths[:, node:node + 1], order="C")
        self.m = m
        self.masses, self.terminal = discount_step_masses(grid, coeffs.bar_mu, node)
        self.w_row = coeffs.w[node:n]
        self.r_row = coeffs.r[node:n]
        self.inv_fc = 1.0 / float(coeffs.f_C[node])
        # running sup of future boundary over decay, open window: column k
        # holds the max over nodes strictly before node+k, the first two
        # columns see only the candidate itself
        sup = np.full_like(decay, -np.inf)
        if future.size:
            sup[:, 2:] = running_sup_matrix(decay[:, 1:], future)
        self.future_sup = sup

    def per_path(self, candidate: float) -> np.ndarray:
        sup = np.maximum(self.future_sup, candidate)
        args = self.decay * sup
        marg = reduced_marginal_array(self.prod, args[:, : self.m], self.w_row[: self.m], self.r_row[: self.m])
        tail = self.terminal * np.asarray(self.scrap.marginal(args[:, self.m]), dtype=float)
        return np.einsum("pn,n->p", marg, self.masses) + tail

    def __call__(self, candidate: float) -> tuple[float, float]:
        if candidate <= 0:
            raise ValueError("candidate boundary level must be positive")
        mean, se = mean_and_se(self.per_path(candidate), self.antithetic)
        return mean - self.inv_fc, se


class _BatchResidual:
    """Residual evaluator for one frozen batch, stepped backward node by node.

    ``cp`` holds the batch's decay paths from node 0 to the horizon, one row
    per node, so that every per-node read is a contiguous row.  ``at`` moves
    the evaluator to a node once the boundary after it is known; calls then
    evaluate the residual there.

    With a marginal scale_j * C^q, q < 0, the term of step j on one path is
    scale_j * (cp_j * max(M_j, c / cp_i))^q * mass_j, where M_j is the
    supremum of yhat_l / cp_l over i < l < j and the masses carry the discount
    from node i.  That mass is e^{cum_i} times the step's mass from node 0,
    so W_j = scale_j * cp_j^q * mass_j does not depend on i and the term is
    e^{cum_i} * W_j * min(M_j^q, (c / cp_i)^q).  W_j is computed once, when
    node j is visited, and only the rows of nodes i, i+1 and i+2 are kept.
    M is constant between two records of yhat_l / cp_l; each path keeps its
    records on a monotone stack together with the summed weight of the block
    each record governs.
    Row ``top`` of a padded array holds every path's top, the latest and
    smallest record, so that a push compares and replaces one contiguous row;
    the records beneath it fill rows 1..below, largest at row 1.  Row 0 holds
    the two steps whose window is still empty, where only the candidate
    counts.  An evaluation costs the paths plus the records held below their
    tops.  The scrap term is a non-increasing marginal at no less than cp_T
    times the top record, skipped once it is 0.0 at the lowest of these floors.

    The power form is only the interior marginal.  Once some path's supremum
    reaches the input box on a remaining step the batch keeps the dense
    evaluator for this and every earlier node, since the supremum only grows
    going backward; a candidate at or above ``b_safe``, the smallest level at
    which the candidate itself could reach the box, is evaluated densely too.
    So is every node of a horizon whose discount from node 0, which the
    weights W_j carry, falls below the normal floats.
    """

    def __init__(self, coeffs: CoefficientSet, prod: ProductionSpec, scrap: ScrapSpec,
                 cp: np.ndarray, antithetic: bool):
        grid = coeffs.grid
        n = grid.n_steps
        n_paths = cp.shape[1]
        self.coeffs = coeffs
        self.prod = prod
        self.scrap = scrap
        self.antithetic = antithetic
        self.n = n
        self.cp = cp
        # a path at 0 or inf would rescale its sub-paths to 0/0 or inf/inf
        low, high = self.cp.min(axis=1), self.cp.max(axis=1)
        bad = np.flatnonzero(~((low > 0.0) & (high < np.inf)))
        if bad.size:
            kind = "underflow to 0" if low[bad[0]] == 0.0 else "overflow"
            raise ConvergenceError(f"node {bad[0]}: decay paths {kind} in double precision")
        self.node = n
        self.future = None
        self.dense = None
        self.blocks_on = False
        self.evals = 0
        self.dense_nodes = 0
        # (mean, max) stack depth and tail skip of every node that ran on blocks alone
        self.depths = []
        form = power_marginal_form(prod, coeffs.w[:n], coeffs.r[:n])
        if form[1] >= 0:
            return
        masses, self.terminal0 = discount_step_masses(grid, coeffs.bar_mu, 0)
        if not self.terminal0 >= np.finfo(float).tiny:
            return
        scale, self.q, cap = form
        self.growth = np.exp(cumulative_integral(grid, coeffs.bar_mu))
        self.scale_mass = scale * masses
        # W at the last node visited and the one after it, zero past the last step
        self.weights = (np.zeros(n_paths),) * 2
        # room at node i: min over steps j >= i of cap_j / cp_j, the largest
        # supremum a path carries from i on inside the box, kept at i and i+1
        self.cap = None if np.all(np.isinf(cap)) else cap
        self.room = (np.full(n_paths, np.inf),) * 2
        # records under each path's top; no top before the first push
        self.below = np.zeros(n_paths, dtype=int)
        self.stack_q = np.zeros((2, n_paths))
        self.stack_q[0] = np.inf
        self.stack_w = np.zeros((2, n_paths))
        self.top_record = np.full(n_paths, -np.inf)
        self.top = 0
        self.blocks_on = True

    def at(self, node: int, future: np.ndarray) -> None:
        """Move to ``node``, one before the last node visited, as the stack and
        the room carry over; ``future`` is the solved boundary after it."""
        self.node = node
        self.future = future
        self.dense = None
        self.inv_fc = 1.0 / float(self.coeffs.f_C[node])
        if self.blocks_on and future.size:
            record = future[0] / self.cp[node + 1]
            # the new record governs steps node+2 onward; elsewhere the
            # supremum either equals it or is unchanged since the later node,
            # where it was checked already
            if self.cap is not None and np.any(record > self.room[1]):
                self.blocks_on = False
            else:
                self._push(record, node)
        if not self.blocks_on:
            return
        cp_i = self.cp[node]
        growth = float(self.growth[node])
        weight = self.scale_mass[node] * cp_i ** self.q
        self.stack_w[0] = weight + self.weights[0]
        self.weights = (weight, self.weights[0])
        self.w0 = self.stack_w[0] * growth
        # (paths, weights, records) of rows 1..top-1 on the paths that hold them, then the top row
        self.levels, idx = [], np.flatnonzero(self.below)
        for d in range(1, self.top + 1):
            held = idx if d < self.top else slice(None)
            self.levels.append((held, self.stack_w[d, held] * growth, self.stack_q[d, held]))
            idx = idx[self.below[idx] > d]
        # a lone path holds every row, and einsum sums its one column in an order of its own
        rows = slice(self.top + 1)
        self.block = (self.stack_w[rows] * growth, self.stack_q[rows]) if cp_i.size == 1 else None
        self.cand_q = cp_i ** -self.q
        cp_T = self.cp[self.n]
        self.tail_floor = cp_T * self.top_record
        self.tail_slope = cp_T / cp_i
        self.tail_mass = growth * self.terminal0
        self.tail_off = bool(self.scrap.marginal(self.tail_floor.min()) == 0.0)
        if self.cap is not None:
            self.room = (np.minimum(self.cap[node] / cp_i, self.room[0]), self.room[0])
        self.b_safe = np.inf if self.cap is None else float(np.min(cp_i * self.room[0]))
        depth = self.below + 1 if self.top else self.below
        self.depths.append((float(depth.mean()), self.top, self.tail_off))

    def _push(self, record: np.ndarray, node: int) -> None:
        rec_q = record ** self.q
        acc = self.weights[1].copy()
        top, below = self.top, self.below
        stack_q, stack_w = self.stack_q, self.stack_w
        if top:
            # pop every block whose record the new one dominates: the tops
            # first, then below the popped tops, where only the paths that
            # popped can pop again
            pop = stack_q[top] >= rec_q
            np.add(acc, stack_w[top], out=acc, where=pop)
            idx = np.flatnonzero(pop & (below > 0))
            while idx.size:
                d = below[idx]
                hit = stack_q[d, idx] >= rec_q[idx]
                idx, d = idx[hit], d[hit]
                acc[idx] += stack_w[d, idx]
                stack_w[d, idx] = 0.0
                below[idx] = d - 1
                idx = idx[d > 1]
            # a top that stays goes one row deeper, under the new one
            keep = np.flatnonzero(~pop)
            kept_q, kept_w = stack_q[top, keep], stack_w[top, keep]
            below[keep] += 1
            stack_w[top] = 0.0
        self.top = int(below.max()) + 1
        if self.top >= stack_q.shape[0]:
            grow = np.zeros_like(stack_q)
            self.stack_q = stack_q = np.concatenate([stack_q, grow])
            self.stack_w = stack_w = np.concatenate([stack_w, grow])
        if top:
            stack_q[below[keep], keep] = kept_q
            stack_w[below[keep], keep] = kept_w
        stack_q[self.top] = rec_q
        stack_w[self.top] = acc
        np.maximum(self.top_record, record, out=self.top_record)

    def _dense(self) -> _NodeResidual:
        if self.dense is None:
            self.dense = _NodeResidual(self.coeffs, self.prod, self.scrap, self.node, self.cp.T,
                                       self.future, self.antithetic)
            self.dense_nodes += 1
            if self.blocks_on:
                self.depths.pop()
        return self.dense

    def per_path(self, candidate: float) -> np.ndarray:
        if not (self.blocks_on and candidate < self.b_safe):
            return self._dense().per_path(candidate)
        cand_q = self.cand_q * candidate ** self.q
        if self.block is None:
            running = self.w0 * cand_q
            for idx, w, q in self.levels:
                running[idx] += w * np.minimum(q, cand_q[idx])
        else:
            running = np.einsum("dp,dp->p", self.block[0], np.minimum(self.block[1], cand_q))
        if not self.tail_off:
            arg = np.maximum(self.tail_floor, self.tail_slope * candidate)
            running += self.tail_mass * np.asarray(self.scrap.marginal(arg), dtype=float)
        return running

    def __call__(self, candidate: float) -> tuple[float, float]:
        if candidate <= 0:
            raise ValueError("candidate boundary level must be positive")
        self.evals += 1
        mean, se = mean_and_se(self.per_path(candidate), self.antithetic)
        return mean - self.inv_fc, se


def residual(node: int, candidate: float, future: np.ndarray, batch: PathBatch,
             coeffs: CoefficientSet, prod: ProductionSpec, scrap: ScrapSpec) -> tuple[float, float]:
    """Monte-Carlo residual of the boundary equation at one node.

    ``batch`` is simulated from t = 0 under the changed measure; its paths
    from the node on, rescaled to start at one, enter the expectation.
    Returns the estimate and its standard error.
    """
    if batch.measure != MEASURE_Q:
        raise ValueError("residual expects paths under the changed measure")
    future = np.asarray(future, dtype=float)
    if future.size and np.any(future <= 0):
        raise ValueError("future boundary values must be positive")
    ev = _NodeResidual(coeffs, prod, scrap, node, batch.values, future, batch.antithetic)
    return ev(candidate)


# evaluations the probes near the aim may run ahead of plain bisection's path
_LEAD = 4


def _walk(sign, lo: float, hi: float, tol_rel: float, node: int) -> tuple[float, float, int]:
    """Plain bisection's control flow, with each sign test's outcome from ``sign``.

    ``sign(x, upper, lo, hi)`` tells whether the residual r at ``x`` is
    negative (``upper``) or positive, [lo, hi] being the bracket it tests
    ``x`` for.  The bracket expands geometrically, the lower end halving
    until r > 0 there and the upper end doubling until r < 0; it then
    bisects to relative width ``tol_rel``, a midpoint becoming the lower end
    if r > 0.  Returns the final bracket and the step count.
    """
    # the bracket may reach any positive float, but never 0 or inf
    while lo > 0.0 and not sign(lo, False, lo, hi):
        lo *= 0.5
    if lo == 0.0:
        raise BracketError(f"node {node}: no sign change down to the smallest float")
    while hi < np.inf and not sign(hi, True, lo, hi):
        hi *= 2.0
    if hi == np.inf:
        raise BracketError(f"node {node}: no sign change up to the largest float")
    iters = 0
    # halving before adding keeps a midpoint near the largest float finite,
    # with the bits of 0.5 * (lo + hi) elsewhere
    mid = 0.5 * lo + 0.5 * hi
    while hi - lo > tol_rel * mid:
        iters += 1
        if mid == lo or mid == hi:
            raise ConvergenceError(f"node {node}: tolerance {tol_rel:g} is below the "
                                   f"float resolution at {mid:g}")
        if sign(mid, False, lo, hi):
            lo = mid
        else:
            hi = mid
        mid = 0.5 * lo + 0.5 * hi
    return lo, hi, iters


# one node's solve on its frozen batch: the root, plain bisection's steps, the
# residual and its standard error at the root, the root's uncertainty in
# residual and in boundary units, and the residual's drop across the bracket
_NodeRecord = namedtuple("_NodeRecord",
                         "root iters residual residual_se solver_se value_se slope")


def _bisect_node(ev, guess: float, tol_rel: float, node: int, aim: float | None = None,
                 slope: float | None = None) -> _NodeRecord:
    """Root of one node's residual, bit for bit the one plain bisection finds.

    Plain bisection brackets the root by halving ``guess/2`` and doubling
    ``2 guess`` and bisects to ``tol_rel``; ``_walk`` runs it once.  On a
    non-increasing residual an evaluation settles signs around it: r > 0
    holds below, r <= 0 and r < 0 above, r >= 0 below.  An open sign is
    settled by probes: from the walk's bracket, plain bisection's cells are
    followed toward ``aim`` where no sign settles them, and the open end of
    the last cell nearest ``aim`` is evaluated.
    The candidate itself is evaluated instead when the probes are ``_LEAD``
    evaluations ahead of plain bisection's path, when ``aim`` cannot move,
    or at an expanded bracket end, which the aim did not foresee: a node
    then costs at most ``_LEAD + 2`` evaluations over plain bisection.

    ``aim`` starts at the caller's prediction (``guess`` by default) and moves
    by residual over ``slope`` (the previous node's bracket slope), then by
    the secant through the last two probes, doubling the step where that
    secant does not fall, and once the root is bracketed by Illinois regula
    falsi.  A NaN residual raises ``ConvergenceError``; an infinite one is a
    sign like any other.  Returns the node's record, whose slope places the
    next node's evaluations.
    """
    seen = {}
    lo0, hi0 = 0.5 * guess, 2.0 * guess
    # largest candidate with r > 0, smallest with r <= 0, smallest with r < 0
    # and largest with r >= 0
    pos, nonpos, neg, nonneg = -np.inf, np.inf, np.inf, -np.inf
    aim = aim if aim is not None and 0.0 < aim < np.inf else guess
    slope = slope if slope is not None and 0.0 < slope < np.inf else None
    # before a sign change: the last probe and the step taken from it
    last, step = None, 0.0
    # Illinois state: residuals weighting pos and nonpos, and whether pos
    # moved last once both are known
    f_pos = f_nonpos = 0.0
    moved = None
    tests = 0

    def value(x):
        if x not in seen:
            seen[x] = ev(x)
            if math.isnan(seen[x][0]):
                raise ConvergenceError(f"node {node}: residual is NaN at candidate {x:g}")
        return seen[x]

    def probe(x):
        nonlocal pos, nonpos, neg, nonneg, aim, last, step, f_pos, f_nonpos, moved
        r = value(x)[0]
        # a probe lies above pos, and below nonpos unless it was an upper
        # bracket end at or above a zero of the residual
        if r > 0.0:
            pos, f_pos = x, r
        elif x < nonpos:
            nonpos, f_nonpos = x, r
        if r < 0.0:
            neg = min(neg, x)
        else:
            nonneg = max(nonneg, x)
        if pos > -np.inf and nonpos < np.inf:
            if moved == (r > 0.0):
                if moved:
                    f_nonpos *= 0.5
                else:
                    f_pos *= 0.5
            moved = r > 0.0
            # a halved weight underflowing to the other's 0 leaves the midpoint
            aim = (pos + f_pos * (nonpos - pos) / (f_pos - f_nonpos) if f_pos != f_nonpos
                   else 0.5 * pos + 0.5 * nonpos)
        elif slope is not None:
            new_step = r / slope
            if last is not None:
                last_x, last_r = last
                secant = (last_r - r) / (x - last_x)
                new_step = r / secant if secant > 0.0 else math.copysign(2.0 * abs(step), new_step)
            last, step = (x, r), new_step
            aim = x + step if x + step > 0.0 else 0.5 * x

    def nearest(x, lo, hi):
        """The open end nearest ``aim`` of the last cell on the way to it
        from [lo, hi], or else ``x``."""
        mid = 0.5 * lo + 0.5 * hi
        while hi - lo > tol_rel * mid and lo < mid < hi:
            if mid <= pos or mid < nonpos and mid < aim:
                lo = mid
            else:
                hi = mid
            mid = 0.5 * lo + 0.5 * hi
        return min((e for e in (lo, hi) if pos < e < nonpos), key=lambda e: abs(e - aim),
                   default=x)

    def sign(x, upper, lo, hi):
        nonlocal tests
        tests += 1
        # an evaluated candidate settles both its tests, so every probe is new
        while not (x >= neg or x <= nonneg if upper else x <= pos or x >= nonpos):
            # tests - 1 signs came before this one on plain bisection's path
            ahead = len(seen) - tests + 1 >= _LEAD
            # without a slope the aim stays put until bracketed, after one probe
            stuck =slope is None and seen and (pos == -np.inf or nonpos == np.inf)
            expanded = x in (lo, hi) and x not in (lo0, hi0)
            probe(x if ahead or stuck or expanded else nearest(x, lo, hi))
        return x >= neg if upper else x <= pos

    lo, hi, iters = _walk(sign, lo0, hi0, tol_rel, node)
    res_lo, res_hi = value(lo)[0], value(hi)[0]
    root = 0.5 * lo + 0.5 * hi
    res_root, se_root = value(root)
    # residual uncertainty carried by the root: Monte-Carlo noise of the frozen
    # batch plus the final bracket width times the local slope; the same two
    # pieces expressed in boundary units give the root's own standard error
    fall = (res_lo - res_hi) / max(hi - lo, 1e-300)
    root_unc = np.hypot(se_root, 0.5 * fall * (hi - lo))
    value_unc = np.hypot(0.5 * (hi - lo), se_root / max(fall, 1e-300))
    return _NodeRecord(root, iters, res_root, se_root, float(root_unc), float(value_unc), fall)


def solve_boundary(coeffs: CoefficientSet, prod: ProductionSpec, scrap: ScrapSpec,
                   mc: McConfig = McConfig(), solver: SolverConfig = SolverConfig(),
                   allow_zero_scrap: bool = False) -> BoundaryCurve:
    """Solve the exercise boundary by backward induction with per-node bisection.

    Each node freezes one batch of changed-measure paths, brackets the root
    geometrically around the previous node's solution (1.0 at the last node)
    and bisects to relative tolerance.  Most of the bisection's signs are
    settled by a few probes near the root extrapolated from the three later
    nodes, and the result is plain bisection's on the frozen batch; a NaN
    residual raises ``ConvergenceError``.  The residual at the returned
    value is then re-estimated on a fresh batch and reported with its
    standard error.

    A volatility-free instance has a single decay path: it is solved on that
    one row, whatever ``mc`` says, to the deterministic tolerance, and its
    residual is evaluated on the same row.
    """
    report = validate(coeffs, prod, scrap)
    failures = [c.name for c in report.failures() if c.name != "scrap-strict-decrease"]
    if failures:
        raise AssumptionError("assumption violations: " + ", ".join(failures))
    if not scrap.strictly_decreasing_marginal and not allow_zero_scrap:
        raise AssumptionError(
            "scrap marginal is not strictly decreasing; pass allow_zero_scrap "
            "to solve in the zero-scrap limit")
    return _solve_backward(coeffs, prod, scrap, mc, solver, report)


def deterministic_boundary(coeffs: CoefficientSet, prod: ProductionSpec, scrap: ScrapSpec,
                           solver: SolverConfig = SolverConfig(),
                           allow_zero_scrap: bool = False) -> BoundaryCurve:
    """Boundary for a volatility-free instance: single deterministic path."""
    if not coeffs.is_sigma_zero():
        raise ValueError("deterministic boundary requires sigma identically zero")
    return solve_boundary(coeffs, prod, scrap, solver=solver, allow_zero_scrap=allow_zero_scrap)


def _solve_backward(coeffs, prod, scrap, mc: McConfig, solver: SolverConfig,
                    report) -> BoundaryCurve:
    """Backward induction over node-major decay matrices of ``sample_decay``."""
    grid = coeffs.grid
    n = grid.n_steps
    deterministic = coeffs.is_sigma_zero()
    tol_rel = solver.tol_rel_det if deterministic else solver.tol_rel
    antithetic = mc.antithetic
    # one Gaussian matrix per purpose drives every node: the sub-path from
    # node i is the column slice rescaled to start at one, so neighbouring
    # nodes share noise and the solved curve varies smoothly in time
    def evaluator(purpose):
        # _BatchResidual reports a path that overflows, so exp need not warn
        with np.errstate(over="ignore"):
            cp = sample_decay(coeffs, mc.n_paths, MEASURE_Q, mc.seed, purpose, antithetic,
                              by_node=True)
        return _BatchResidual(coeffs, prod, scrap, cp, antithetic)

    ev = evaluator("solve")
    yhat = np.empty(n)
    nodes = [None] * n
    guess = aim = 1.0
    slope = None
    for i in range(n - 1, -1, -1):
        ev.at(i, yhat[i + 1:])
        nodes[i] = node = _bisect_node(ev, guess, tol_rel, i, aim, slope)
        yhat[i] = guess = node.root
        # the next node's root, extrapolated from the last three, or two
        aim = (3.0 * guess - 3.0 * yhat[i + 1] + yhat[i + 2] if i + 2 < n
               else 2.0 * guess - yhat[i + 1] if i + 1 < n else guess)
        slope = node.slope
    _, iters, res, res_se, solver_se, value_se, _ = map(np.array, zip(*nodes))

    meta = {
        "tol_rel": tol_rel,
        "deterministic": deterministic,
        "mc": None if deterministic else asdict(mc),
        "efficiency_ok": None if report is None else report.efficiency_ok,
        "residual_evals": ev.evals,
        # midpoints plain bisection would have evaluated, most of them
        # settled without an evaluation
        "bisect_steps": int(iters.sum()),
        # evaluator use on the solve batch: a dense node built the dense
        # evaluator for at least one candidate, a block node never did
        "block_nodes": len(ev.depths),
        "dense_nodes": ev.dense_nodes,
        "block_depth_mean": float(np.mean([d[0] for d in ev.depths])) if ev.depths else 0.0,
        "block_depth_max": max((d[1] for d in ev.depths), default=0),
        "tail_skip_nodes": sum(d[2] for d in ev.depths),
    }
    # a fresh audit batch, drawn once the solve batch is released; none at sigma = 0
    del ev
    if not deterministic:
        audit = evaluator("audit")
        for i in range(n - 1, -1, -1):
            audit.at(i, yhat[i + 1:])
            res[i], res_se[i] = audit(yhat[i])
        meta["residual_evals"] += audit.evals
    return BoundaryCurve(grid, yhat, res, res_se, solver_se, iters, value_se, meta)
