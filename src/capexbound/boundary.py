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
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .model import (
    AssumptionError,
    CoefficientSet,
    ProductionSpec,
    ScrapSpec,
    TimeGrid,
    _freeze,
    discount_step_masses,
    validate,
)
from .paths import MEASURE_Q, PathBatch, mean_and_se, running_sup_matrix, sample_decay
from .production import reduced_marginal_array


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
    """Residual evaluator at one node on a frozen set of decay paths.

    When the production marginal is a pure power of capacity, the running
    supremum lets every bisection iterate reuse the frozen paths' powered
    ratios: max(F, b)^q = min(F^q, b^q) for q < 0, so iterates cost a few
    elementwise passes and no transcendentals.
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
        self._fast = self._build_fast_path()

    def _build_fast_path(self):
        from .production import power_marginal_form
        form = power_marginal_form(self.prod, self.w_row[: self.m], self.r_row[: self.m])
        if form is None:
            return None
        scale, q, cap = form
        if q >= 0:
            return None
        F = self.future_sup[:, : self.m]
        body = self.decay[:, : self.m]
        # empty-window columns carry -inf; their powered value must stay +inf
        # so that min(Fq, b^q) falls back to the candidate there
        finite = np.isfinite(F)
        Fq = np.where(finite, F, 1.0) ** q
        Fq[~finite] = np.inf
        weighted = (scale[None, :] * body ** q) * self.masses[None, :]
        # the power form is only the interior marginal: find the largest
        # candidate for which no argument can reach the binding region
        with np.errstate(divide="ignore"):
            safe_ratio = cap[None, :] / body
        if np.any(F > safe_ratio):
            return None
        b_safe = float(np.min(safe_ratio))
        return {"Fq": Fq, "weighted": weighted, "q": q, "b_safe": b_safe}

    def per_path(self, candidate: float) -> np.ndarray:
        fast = self._fast
        if fast is not None and candidate < fast["b_safe"]:
            sq = np.minimum(fast["Fq"], candidate ** fast["q"])
            running = np.einsum("ij,ij->i", sq, fast["weighted"])
            sup_T = np.maximum(self.future_sup[:, self.m], candidate)
            tail = self.terminal * np.asarray(
                self.scrap.marginal(self.decay[:, self.m] * sup_T), dtype=float)
            return running + tail
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
                   allow_zero_scrap: bool = False, run_validation: bool = True,
                   force_mc: bool = False) -> BoundaryCurve:
    """Solve the exercise boundary by backward induction with per-node bisection.

    Each node freezes one batch of changed-measure paths, brackets the root
    geometrically around the previous node's solution (1.0 at the last node)
    and bisects to relative tolerance.  The residual at the returned value is
    then re-estimated on a fresh batch and reported with its standard error.

    Volatility-free instances dispatch to the deterministic quadrature;
    ``force_mc`` keeps them on the Monte-Carlo code path (diagnostic use).
    """
    report = _gate_assumptions(coeffs, prod, scrap, allow_zero_scrap, run_validation)
    if coeffs.is_sigma_zero() and not force_mc:
        mc = None
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


def _solve_backward(coeffs, prod, scrap, mc: Optional[McConfig], solver: SolverConfig,
                    report) -> BoundaryCurve:
    """Backward induction; ``mc`` None selects the single deterministic path."""
    grid = coeffs.grid
    n = grid.n_steps
    deterministic = mc is None
    tol_rel = solver.tol_rel_det if deterministic else solver.tol_rel
    if deterministic:
        # sigma = 0: the decay factor is the plain exponential of -int mu_C
        log_cp = np.concatenate([[0.0], np.cumsum(-coeffs.drift_steps(0))])
        cp_solve = np.exp(log_cp)[None, :]
        cp_audit = cp_solve
        antithetic = False
    else:
        # one Gaussian matrix per purpose drives every node: the sub-path from
        # node i is the column slice rescaled to start at one, so neighbouring
        # nodes share noise and the solved curve varies smoothly in time
        cp_solve = sample_decay(coeffs, 0, mc.n_paths, MEASURE_Q, mc.seed, "solve", mc.antithetic)
        cp_audit = sample_decay(coeffs, 0, mc.n_paths, MEASURE_Q, mc.seed, "audit", mc.antithetic)
        antithetic = mc.antithetic

    yhat = np.empty(n)
    res = np.empty(n)
    res_se = np.empty(n)
    solver_se = np.empty(n)
    value_se = np.empty(n)
    iters = np.empty(n, dtype=int)

    guess = 1.0
    for i in range(n - 1, -1, -1):
        decay = cp_solve[:, i:] / cp_solve[:, i:i + 1]
        ev = _NodeResidual(coeffs, prod, scrap, i, decay, yhat[i + 1:], antithetic)
        root, its, se_frozen, val_unc = _bisect_node(ev, guess, tol_rel, solver, i)
        yhat[i] = root
        iters[i] = its
        solver_se[i] = se_frozen
        value_se[i] = val_unc
        if deterministic:
            res[i], res_se[i] = ev(root)
        else:
            decay_a = cp_audit[:, i:] / cp_audit[:, i:i + 1]
            ev_a = _NodeResidual(coeffs, prod, scrap, i, decay_a, yhat[i + 1:], antithetic)
            res[i], res_se[i] = ev_a(root)
        guess = root

    meta = {
        "tol_rel": tol_rel,
        "deterministic": deterministic,
        "mc": None if deterministic else asdict(mc),
        "efficiency_ok": None if report is None else report.efficiency_ok,
    }
    return BoundaryCurve(grid, yhat, res, res_se, solver_se, iters, value_se, meta)
