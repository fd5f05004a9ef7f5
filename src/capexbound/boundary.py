"""Investment exercise boundary from the capacity problem's integral equation.

The boundary value at each node is the root, in the candidate level, of a
discounted expectation of future marginal profits evaluated along the running
supremum of boundary-to-decay ratios, minus the replacement cost of capital.
Solving proceeds backward in time; at each node the root is bracketed by
geometric expansion around the previous node's solution and then bisected.

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

Two evaluators compute the same residual.  The dense one evaluates the
marginal at every future argument of every path, so setting it up at a node
costs O(paths x remaining nodes).  When the marginal is a negative power of
capacity, the record-block evaluator gets the same sum from the records of
the running supremum instead: along one full-horizon decay path cp, the
supremum seen from node i is a step function of the later node whose steps are
the records of yhat_l / cp_l, and a power marginal turns each block between
two records into one precomputed weight.  Moving from node i+1 to node i
pushes one record onto a per-path monotone stack, so a node's set-up and each
of its evaluations cost O(paths x stack depth), and a solve grows linearly in
the number of nodes instead of quadratically.
The dense evaluator still runs where the power form does not hold: for other
marginals, once an argument can reach the input box, and for candidates at or
above the level where one could.
"""

from __future__ import annotations

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
    """The residual does not change sign on the admissible bracket."""


class ConvergenceError(RuntimeError):
    """Bisection failed to reach the requested tolerance."""


@dataclass(frozen=True)
class McConfig:
    n_paths: int = 20000
    seed: int = 0
    antithetic: bool = True


@dataclass(frozen=True)
class SolverConfig:
    tol_rel: float = 1e-4
    tol_rel_det: float = 1e-9
    max_iter: int = 200
    bracket_floor: float = 1e-12
    bracket_ceil: float = 1e12


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

    Every evaluation computes the reduced marginal at each path's argument on
    every remaining step, so it serves any production spec and any input box.
    The solver falls back to it where the record-block evaluator does not
    apply, and ``residual`` uses it directly as the reference evaluator.
    """

    def __init__(self, coeffs: CoefficientSet, prod: ProductionSpec, scrap: ScrapSpec,
                 node: int, decay: np.ndarray, future: np.ndarray, antithetic: bool):
        grid = coeffs.grid
        n = grid.n_steps
        m = n - node
        if decay.ndim != 2 or decay.shape[1] != m + 1:
            raise ValueError("decay matrix shape does not match the node")
        if future.size != n - 1 - node:
            raise ValueError("future boundary values have the wrong length")
        self.prod = prod
        self.scrap = scrap
        self.antithetic = antithetic
        self.decay = decay
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
        return marg @ self.masses + tail

    def __call__(self, candidate: float) -> tuple[float, float]:
        if candidate <= 0:
            raise ValueError("candidate boundary level must be positive")
        mean, se = mean_and_se(self.per_path(candidate), self.antithetic)
        return mean - self.inv_fc, se


class _BatchResidual:
    """Residual evaluator for one frozen batch, stepped backward node by node.

    ``cp`` holds the batch's decay paths from node 0 to the horizon.  ``at``
    moves the evaluator to a node once the boundary after it is known; calls
    then evaluate the residual there.

    With a marginal scale_j * C^q, q < 0, the term of step j on one path is
    scale_j * (cp_j * max(M_j, c / cp_i))^q * mass_j, where M_j is the
    supremum of yhat_l / cp_l over i < l < j and the masses carry the discount
    from node i.  That mass is e^{cum_i} times the step's mass from node 0,
    so W_j = scale_j * cp_j^q * mass_j is fixed for the whole solve and the
    term is e^{cum_i} * W_j * min(M_j^q, (c / cp_i)^q).  M is constant between
    two records of yhat_l / cp_l; each path keeps its records on a monotone
    stack (rows 1..depth of a padded array, the latest and largest record at
    the bottom) together with the summed weight of the block each record
    governs.  Row 0 holds the two steps whose window is still empty, where
    only the candidate counts.  An evaluation is then one minimum and one
    weighted sum over the stack rows plus the scrap term at the horizon.

    The power form is only the interior marginal.  Once some path's supremum
    reaches the input box on a remaining step the batch keeps the dense
    evaluator for this and every earlier node, since the supremum only grows
    going backward; a candidate at or above ``b_safe``, the smallest level at
    which the candidate itself could reach the box, is evaluated densely too.
    """

    def __init__(self, coeffs: CoefficientSet, prod: ProductionSpec, scrap: ScrapSpec,
                 cp: np.ndarray, antithetic: bool):
        grid = coeffs.grid
        n = grid.n_steps
        n_paths = cp.shape[0]
        self.coeffs = coeffs
        self.prod = prod
        self.scrap = scrap
        self.antithetic = antithetic
        self.n = n
        # node-major, so every per-node row read is contiguous
        self.cp = np.ascontiguousarray(cp.T)
        self.node = n
        self.future = None
        self.dense = None
        self.blocks_on = False
        self.evals = 0
        self.dense_nodes = 0
        # (mean, max) stack depth of every node that ran on blocks alone
        self.depths = []
        form = power_marginal_form(prod, coeffs.w[:n], coeffs.r[:n])
        if form is None or form[1] >= 0:
            return
        scale, self.q, cap = form
        masses, self.terminal0 = discount_step_masses(grid, coeffs.bar_mu, 0)
        self.growth = np.exp(cumulative_integral(grid, coeffs.bar_mu))
        # one zero row past the last step keeps every block sum in range
        self.weight = np.zeros((n + 1, n_paths))
        np.multiply((scale * masses)[:, None], self.cp[:n] ** self.q, out=self.weight[:n])
        # suffix minimum over steps j >= i of cap_j / cp_j: the largest
        # supremum a path can carry from node i on without reaching the box
        self.box_room = None
        if not np.all(np.isinf(cap)):
            room = np.full((n + 1, n_paths), np.inf)
            np.divide(cap[:, None], self.cp[:n], out=room[:n])
            np.minimum.accumulate(room[::-1], axis=0, out=room[::-1])
            self.box_room = room
        self.depth = np.zeros(n_paths, dtype=int)
        self.rows = np.arange(n_paths)
        self.stack_q = np.zeros((2, n_paths))
        self.stack_q[0] = np.inf
        self.stack_w = np.zeros((2, n_paths))
        self.top_record = np.full(n_paths, -np.inf)
        self.top = 0
        self.blocks_on = True

    def at(self, node: int, future: np.ndarray) -> None:
        """Move to ``node``; ``future`` is the solved boundary after it."""
        self.node = node
        self.future = future
        self.dense = None
        self.inv_fc = 1.0 / float(self.coeffs.f_C[node])
        if self.blocks_on and future.size:
            record = future[0] / self.cp[node + 1]
            # the new record governs steps node+2 onward; elsewhere the
            # supremum either equals it or is unchanged since the later node,
            # where it was checked already
            if self.box_room is not None and np.any(record > self.box_room[node + 2]):
                self.blocks_on = False
            else:
                self._push(record, node)
        if not self.blocks_on:
            return
        cp_i = self.cp[node]
        growth = float(self.growth[node])
        self.stack_w[0] = self.weight[node] + self.weight[node + 1]
        self.block_w = self.stack_w[: self.top + 1] * growth
        self.block_q = self.stack_q[: self.top + 1]
        self.cand_q = cp_i ** -self.q
        cp_T = self.cp[self.n]
        self.tail_floor = cp_T * self.top_record
        self.tail_slope = cp_T / cp_i
        self.tail_mass = growth * self.terminal0
        self.b_safe = np.inf if self.box_room is None else float(np.min(cp_i * self.box_room[node]))
        self.depths.append((float(self.depth.mean()), self.top))

    def _push(self, record: np.ndarray, node: int) -> None:
        rec_q = record ** self.q
        acc = self.weight[node + 2].copy()
        depth, stack_q, stack_w = self.depth, self.stack_q, self.stack_w
        # pop every block whose record the new one dominates; after the
        # first pass only the paths that popped can pop again
        idx = self.rows
        d = depth
        while idx.size:
            pop = (stack_q[d, idx] >= rec_q[idx]) & (d > 0)
            idx = idx[pop]
            d = d[pop]
            acc[idx] += stack_w[d, idx]
            stack_w[d, idx] = 0.0
            d -= 1
            depth[idx] = d
        depth += 1
        self.top = int(depth.max())
        if self.top >= stack_q.shape[0]:
            grow = np.zeros_like(stack_q)
            self.stack_q = stack_q = np.concatenate([stack_q, grow])
            self.stack_w = stack_w = np.concatenate([stack_w, grow])
        stack_q[depth, self.rows] = rec_q
        stack_w[depth, self.rows] = acc
        np.maximum(self.top_record, record, out=self.top_record)

    def _dense(self) -> _NodeResidual:
        if self.dense is None:
            i = self.node
            decay = np.divide(self.cp[i:].T, self.cp[i][:, None], order="C")
            self.dense = _NodeResidual(self.coeffs, self.prod, self.scrap, i, decay,
                                       self.future, self.antithetic)
            self.dense_nodes += 1
            if self.blocks_on:
                self.depths.pop()
        return self.dense

    def per_path(self, candidate: float) -> np.ndarray:
        if not (self.blocks_on and candidate < self.b_safe):
            return self._dense().per_path(candidate)
        cand_q = self.cand_q * candidate ** self.q
        running = np.einsum("dp,dp->p", self.block_w, np.minimum(self.block_q, cand_q))
        tail = np.asarray(self.scrap.marginal(np.maximum(self.tail_floor, self.tail_slope * candidate)),
                          dtype=float)
        return running + self.tail_mass * tail

    def __call__(self, candidate: float) -> tuple[float, float]:
        if candidate <= 0:
            raise ValueError("candidate boundary level must be positive")
        self.evals += 1
        mean, se = mean_and_se(self.per_path(candidate), self.antithetic)
        return mean - self.inv_fc, se


def residual(node: int, candidate: float, future: np.ndarray, batch: PathBatch,
             coeffs: CoefficientSet, prod: ProductionSpec, scrap: ScrapSpec) -> tuple[float, float]:
    """Monte-Carlo residual of the boundary equation at one node.

    ``batch`` must start at the node and be simulated under the changed
    measure.  Returns the estimate and its standard error.
    """
    if batch.s_idx != node:
        raise ValueError("batch must start at the evaluated node")
    if batch.measure != MEASURE_Q:
        raise ValueError("residual expects paths under the changed measure")
    future = np.asarray(future, dtype=float)
    if future.size and np.any(future <= 0):
        raise ValueError("future boundary values must be positive")
    ev = _NodeResidual(coeffs, prod, scrap, node, batch.values, future, batch.antithetic)
    return ev(candidate)


def _gate_assumptions(coeffs, prod, scrap, allow_zero_scrap, run_validation):
    if not run_validation:
        return None
    report = validate(coeffs, prod, scrap)
    failures = [c.name for c in report.failures() if c.name != "scrap-strict-decrease"]
    if failures:
        raise AssumptionError("assumption violations: " + ", ".join(failures))
    if not scrap.strictly_decreasing_marginal and not allow_zero_scrap:
        raise AssumptionError(
            "scrap marginal is not strictly decreasing; pass allow_zero_scrap "
            "to solve in the zero-scrap limit")
    return report


def _bisect_node(ev: _NodeResidual, guess: float, tol_rel: float, cfg: SolverConfig,
                 node: int) -> tuple[float, int, float]:
    lo = 0.5 * guess
    hi = 2.0 * guess
    res_lo, _ = ev(lo)
    while res_lo <= 0.0:
        lo *= 0.5
        if lo < cfg.bracket_floor:
            raise BracketError(f"node {node}: no sign change down to {cfg.bracket_floor:g}")
        res_lo, _ = ev(lo)
    res_hi, _ = ev(hi)
    while res_hi >= 0.0:
        hi *= 2.0
        if hi > cfg.bracket_ceil:
            raise BracketError(f"node {node}: no sign change up to {cfg.bracket_ceil:g}")
        res_hi, _ = ev(hi)
    if not res_lo > res_hi:
        raise ConvergenceError(f"node {node}: residual not decreasing across the bracket")
    iters = 0
    while hi - lo > tol_rel * 0.5 * (hi + lo):
        iters += 1
        if iters > cfg.max_iter:
            raise ConvergenceError(f"node {node}: tolerance {tol_rel:g} not reached "
                                   f"after {cfg.max_iter} bisection steps")
        mid = 0.5 * (lo + hi)
        res_mid, _ = ev(mid)
        if res_mid > 0.0:
            lo, res_lo = mid, res_mid
        else:
            hi, res_hi = mid, res_mid
    root = 0.5 * (lo + hi)
    _, se_at_root = ev(root)
    # residual uncertainty carried by the root: Monte-Carlo noise of the frozen
    # batch plus the final bracket width times the local slope; the same two
    # pieces expressed in boundary units give the root's own standard error
    slope = (res_lo - res_hi) / max(hi - lo, 1e-300)
    root_unc = np.hypot(se_at_root, 0.5 * slope * (hi - lo))
    value_unc = np.hypot(0.5 * (hi - lo), se_at_root / max(slope, 1e-300))
    return root, iters, float(root_unc), float(value_unc)


def solve_boundary(coeffs: CoefficientSet, prod: ProductionSpec, scrap: ScrapSpec,
                   mc: McConfig = McConfig(), solver: SolverConfig = SolverConfig(),
                   allow_zero_scrap: bool = False, run_validation: bool = True) -> BoundaryCurve:
    """Solve the exercise boundary by backward induction with per-node bisection.

    Each node freezes one batch of changed-measure paths, brackets the root
    geometrically around the previous node's solution (1.0 at the last node)
    and bisects to relative tolerance.  The residual at the returned value is
    then re-estimated on a fresh batch and reported with its standard error.

    A volatility-free instance has a single decay path: it is solved on that
    one row, whatever ``mc`` says, to the deterministic tolerance, and its
    residual is evaluated on the same row.
    """
    report = _gate_assumptions(coeffs, prod, scrap, allow_zero_scrap, run_validation)
    return _solve_backward(coeffs, prod, scrap, mc, solver, report)


def deterministic_boundary(coeffs: CoefficientSet, prod: ProductionSpec, scrap: ScrapSpec,
                           solver: SolverConfig = SolverConfig(),
                           allow_zero_scrap: bool = False,
                           run_validation: bool = True) -> BoundaryCurve:
    """Boundary for a volatility-free instance: single deterministic path."""
    if not coeffs.is_sigma_zero():
        raise ValueError("deterministic boundary requires sigma identically zero")
    return solve_boundary(coeffs, prod, scrap, solver=solver,
                          allow_zero_scrap=allow_zero_scrap, run_validation=run_validation)


def _solve_backward(coeffs, prod, scrap, mc: McConfig, solver: SolverConfig,
                    report) -> BoundaryCurve:
    """Backward induction over the decay matrices of ``sample_decay``."""
    grid = coeffs.grid
    n = grid.n_steps
    deterministic = coeffs.is_sigma_zero()
    tol_rel = solver.tol_rel_det if deterministic else solver.tol_rel
    antithetic = mc.antithetic
    # one Gaussian matrix per purpose drives every node: the sub-path from
    # node i is the column slice rescaled to start at one, so neighbouring
    # nodes share noise and the solved curve varies smoothly in time
    ev = _BatchResidual(coeffs, prod, scrap, sample_decay(
        coeffs, 0, mc.n_paths, MEASURE_Q, mc.seed, "solve", antithetic), antithetic)
    # a fresh batch at sigma = 0 would be the same single row again
    ev_audit = None if deterministic else _BatchResidual(coeffs, prod, scrap, sample_decay(
        coeffs, 0, mc.n_paths, MEASURE_Q, mc.seed, "audit", antithetic), antithetic)

    yhat = np.empty(n)
    res = np.empty(n)
    res_se = np.empty(n)
    solver_se = np.empty(n)
    value_se = np.empty(n)
    iters = np.empty(n, dtype=int)

    guess = 1.0
    for i in range(n - 1, -1, -1):
        ev.at(i, yhat[i + 1:])
        root, its, se_frozen, val_unc = _bisect_node(ev, guess, tol_rel, solver, i)
        yhat[i] = root
        iters[i] = its
        solver_se[i] = se_frozen
        value_se[i] = val_unc
        if deterministic:
            res[i], res_se[i] = ev(root)
        else:
            ev_audit.at(i, yhat[i + 1:])
            res[i], res_se[i] = ev_audit(root)
        guess = root

    meta = {
        "tol_rel": tol_rel,
        "deterministic": deterministic,
        "mc": None if deterministic else asdict(mc),
        "efficiency_ok": None if report is None else report.efficiency_ok,
        "residual_evals": ev.evals + (0 if ev_audit is None else ev_audit.evals),
        # evaluator use on the solve batch: a dense node built the dense
        # evaluator for at least one candidate, a block node never did
        "block_nodes": len(ev.depths),
        "dense_nodes": ev.dense_nodes,
        "block_depth_mean": float(np.mean([d[0] for d in ev.depths])) if ev.depths else 0.0,
        "block_depth_max": max((d[1] for d in ev.depths), default=0),
    }
    return BoundaryCurve(grid, yhat, res, res_se, solver_se, iters, value_se, meta)
