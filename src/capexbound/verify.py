"""Independent optimality checks for a solved boundary.

Three routes that never share code with the boundary solver's root finding:

* first-order conditions: Monte-Carlo supergradient estimates of the profit
  functional at a family of stopping rules, plus the complementary-slackness
  integral against the policy's increments;
* a lattice dynamic program for the control value and its capacity marginal;
* a lattice dynamic program for the stopping value, whose contact set yields
  a second, independent boundary to compare against.

The lattice is geometric in capacity because the state is multiplicative;
one-step shocks are trinomial in the log, matching the mean and variance of
the exact log-increment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .boundary import BoundaryCurve
from .model import (
    CoefficientSet,
    ProductionSpec,
    ScrapSpec,
    TimeGrid,
    _central_differences,
    _freeze,
    cumulative_integral,
    discount_step_masses,
    step_discounts,
)
from .paths import (MEASURE_P, MEASURE_Q, PathBatch, log_increment_moments, mean_and_se,
                    row_blocks)
from .policy import build_controls, controlled_capacity
from .production import reduced_marginal_array, reduced_value_array


class LatticeRangeError(RuntimeError):
    """The optimal install hits the top of the capacity lattice."""


# ---------------------------------------------------------------------------
# lattice machinery


@dataclass(frozen=True)
class Lattice:
    """Geometric capacity nodes shared across all time slices."""

    grid: TimeGrid
    y_nodes: np.ndarray

    def __post_init__(self):
        y = _freeze(self.y_nodes)
        object.__setattr__(self, "y_nodes", y)
        if y.size < 3 or np.any(y <= 0) or np.any(np.diff(np.log(y)) <= 0):
            raise ValueError("lattice needs at least 3 increasing positive nodes")

    @classmethod
    def geometric(cls, grid: TimeGrid, y_min: float, y_max: float, n_nodes: int) -> "Lattice":
        if not 0 < y_min < y_max:
            raise ValueError("lattice bounds must satisfy 0 < y_min < y_max")
        return cls(grid, np.geomspace(y_min, y_max, n_nodes))

    @property
    def log_nodes(self) -> np.ndarray:
        return np.log(self.y_nodes)


def trinomial_steps(coeffs: CoefficientSet, measure: str):
    """Per-step log shifts (N, 3) and probabilities (3,) of the shock.

    The middle branch carries the exact log-increment mean, the outer
    branches sit at +/- sqrt(3) standard deviations with weight 1/6 each,
    so mean and variance match the exact transition identically.
    """
    mean, var = log_increment_moments(coeffs, measure)
    h = np.sqrt(3.0 * var)
    shifts = np.stack([mean + h, mean, mean - h], axis=1)
    probs = np.array([1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0])
    return shifts, probs


def _expectation(log_nodes: np.ndarray, shifts: np.ndarray, probs: np.ndarray):
    """slice -> E[slice(y * xi)] by linear interpolation in log y, clamped at the edges:
    np.interp's own formula on nodes j, j1 found once, j1 = j at clamped ends and hits."""
    x = log_nodes + shifts[:, None]
    j = np.clip(np.searchsorted(log_nodes, x, side="right") - 1, 0, log_nodes.size - 1)
    inner = (log_nodes[0] < x) & (x < log_nodes[-1]) & (log_nodes[j] != x)
    j1, t, dx = j + inner, (x - log_nodes[j]) * inner, log_nodes[j + inner] - log_nodes[j] + ~inner
    return lambda v: sum(probs[:, None] * ((v[j1] - (vj := v[j])) / dx * t + vj))


def _backward(coeffs: CoefficientSet, lattice: Lattice, measure: str, rate: np.ndarray,
              flow_fn, prod: ProductionSpec, terminal: np.ndarray, slice_rule) -> np.ndarray:
    """One backward recursion on the lattice: slice i is ``slice_rule(i,
    f_i a_i + b_i E[slice i+1])`` with the flow f_i = ``flow_fn`` on slice i
    and the step mass a_i and one-step discount b_i of ``rate``."""
    n = lattice.grid.n_steps
    logy = lattice.log_nodes
    # one production call for all slices; a synthetic marginal ignores w and
    # r and returns a single row
    flow = np.broadcast_to(flow_fn(prod, lattice.y_nodes, coeffs.w[:n, None],
                                   coeffs.r[:n, None]), (n, logy.size))
    a, b = step_discounts(lattice.grid, rate)
    shifts, probs = trinomial_steps(coeffs, measure)
    # one expectation per distinct shift triple, shared by the slices that draw it
    triples, which = np.unique(shifts, axis=0, return_inverse=True)
    expect = [_expectation(logy, triple, probs) for triple in triples]
    out = np.empty((n + 1, logy.size))
    out[n] = terminal
    for i in range(n - 1, -1, -1):
        cont = flow[i] * a[i] + b[i] * expect[which[i]](out[i + 1])
        out[i] = slice_rule(i, cont)
    return out


def _contact_boundary(y: np.ndarray, values: np.ndarray, cap: np.ndarray,
                      rel_tol: float) -> np.ndarray:
    """Per row, the largest lattice node where ``values`` reaches ``cap``
    within ``rel_tol``, or 0 when no node does."""
    contact = values >= cap[:, None] * (1.0 - rel_tol)
    last = y.size - 1 - np.argmax(contact[:, ::-1], axis=1)
    return np.where(contact.any(axis=1), y[last], 0.0)


@dataclass(frozen=True)
class StoppingDP:
    """Stopping value on the lattice and the boundary its contact set implies."""

    lattice: Lattice
    v: np.ndarray
    boundary: np.ndarray


def dp_stopping_value(coeffs: CoefficientSet, prod: ProductionSpec, scrap: ScrapSpec,
                      lattice: Lattice) -> StoppingDP:
    """Backward recursion for the marginal (shadow) value of capital.

    Terminal slice is the scrap marginal; earlier slices take the minimum of
    the replacement cost and one step of accrued marginal profit plus the
    discounted expectation over the changed-measure shock.  The boundary at
    each slice is the largest lattice node still in contact with the
    replacement cost.
    """
    n = lattice.grid.n_steps
    cap = 1.0 / coeffs.f_C[:n]
    v = _backward(coeffs, lattice, MEASURE_Q, coeffs.bar_mu, reduced_marginal_array, prod,
                  np.asarray(scrap.marginal(lattice.y_nodes), dtype=float),
                  lambda i, cont: np.minimum(cap[i], cont))
    return StoppingDP(lattice, v, _contact_boundary(lattice.y_nodes, v[:n], cap, 1e-12))


@dataclass(frozen=True)
class ValueDP:
    """Control value on the lattice, its capacity marginal, and the boundary
    implied by where the marginal touches the replacement cost."""

    lattice: Lattice
    V: np.ndarray
    dVdy: np.ndarray
    boundary: np.ndarray


def dp_value(coeffs: CoefficientSet, prod: ProductionSpec, scrap: ScrapSpec,
             lattice: Lattice) -> ValueDP:
    """Backward recursion for the capacity-expansion value with installs
    restricted to lattice nodes.

    Raises LatticeRangeError when the optimal install reaches the top node,
    which means the lattice truncates the decision.
    """
    n = lattice.grid.n_steps
    y = lattice.y_nodes
    inv_f = 1.0 / coeffs.f_C[:n]

    def install(i, gain):
        score = gain - inv_f[i] * y
        # truncation: some state strictly prefers the top node to everything
        # else it can reach, so the lattice cuts the decision off; this holds
        # exactly when the state just below the top prefers it
        if score[-1] > score[-2] + 1e-12 * max(1.0, abs(score[-1])):
            raise LatticeRangeError("optimal install hits the top lattice node; enlarge y_max")
        # install up to the best lattice node at or above the current one
        return np.maximum.accumulate(score[::-1])[::-1] + inv_f[i] * y

    V = _backward(coeffs, lattice, MEASURE_P, coeffs.mu_F, reduced_value_array, prod,
                  np.asarray(scrap.value(y), dtype=float), install)
    dVdy = _central_differences(y, V)
    return ValueDP(lattice, V, dVdy, _contact_boundary(y, dVdy[:n], inv_f, 1e-6))


def shadow_value_gap(value_dp: ValueDP, stopping_dp: StoppingDP, margin: int = 5):
    """Relative gap between the value marginal and the stopping value on
    interior lattice nodes, maximized over nodes and time slices."""
    v = stopping_dp.v
    dv = value_dp.dVdy
    if v.shape[1] <= 2 * margin:
        raise LatticeRangeError(f"the shadow-value gap needs at least {2 * margin + 1} "
                                f"lattice nodes, got {v.shape[1]}")
    sl = slice(margin, v.shape[1] - margin)
    denom = np.maximum(np.abs(v[:, sl]), 1e-12)
    rel = np.abs(dv[:, sl] - v[:, sl]) / denom
    return float(np.max(rel)), rel


# ---------------------------------------------------------------------------
# boundary cross-validation


@dataclass(frozen=True)
class CrossReport:
    sup_rel_gap: float
    per_node_rel_gap: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "per_node_rel_gap", _freeze(self.per_node_rel_gap))


def cross_validate(curve: BoundaryCurve, stopping_dp: StoppingDP) -> CrossReport:
    """Per-node and sup-norm relative gaps between the integral-equation
    boundary and the dynamic-programming boundary."""
    ie = curve.values
    dp = stopping_dp.boundary
    if ie.size != dp.size:
        raise ValueError("boundaries live on different time grids")
    rel = np.abs(ie - dp) / np.maximum(np.abs(ie), 1e-300)
    return CrossReport(float(np.max(rel)), rel)


# ---------------------------------------------------------------------------
# first-order conditions


@dataclass(frozen=True)
class StoppingRule:
    """Grid stopping rule evaluated causally on the controlled capacity.

    ``fixed`` stops at one node for every path.  ``hit`` stops at the first
    node where capacity reaches the threshold from its starting side, with
    the horizon as fallback.
    """

    name: str
    kind: str
    node: int = 0
    threshold: float = 0.0

    @classmethod
    def at_node(cls, node: int) -> "StoppingRule":
        return cls(name=f"fixed@{node}", kind="fixed", node=node)

    @classmethod
    def hitting(cls, threshold: float, label: str) -> "StoppingRule":
        return cls(name=f"hit@{label}", kind="hit", threshold=threshold)

    @classmethod
    def first_investment(cls) -> "StoppingRule":
        return cls(name="first-investment", kind="invest")

    def indices(self, capacity: np.ndarray, nubar: Optional[np.ndarray] = None) -> np.ndarray:
        n = capacity.shape[1] - 1
        if self.kind == "fixed":
            if not 0 <= self.node <= n:
                raise ValueError("fixed stopping node outside the grid")
            return np.full(capacity.shape[0], self.node, dtype=int)
        if self.kind == "hit":
            start = capacity[:, 0]
            up = start <= self.threshold
            crossed = np.where(up[:, None], capacity >= self.threshold,
                               capacity <= self.threshold)
            first = np.argmax(crossed, axis=1)
            none = ~crossed.any(axis=1)
            first[none] = n
            return first
        if self.kind == "invest":
            if nubar is None:
                raise ValueError("first-investment rule needs the plan ledger")
            inc = np.diff(nubar, axis=1) > 0
            first = np.argmax(inc, axis=1)
            first[~inc.any(axis=1)] = n
            return first
        raise ValueError(f"unknown rule kind {self.kind!r}")


class _FocWorkspace:
    """Per-path supergradient integrand at every node, for one initial level
    and one row block of paths.

    The tail sums reuse the boundary solver's step masses through an exact
    change-of-measure identity, so a path sitting on the boundary at a node
    has conditional integrand equal to the solver's own residual there.
    """

    def __init__(self, curve: BoundaryCurve, y: float, coeffs: CoefficientSet,
                 prod: ProductionSpec, scrap: ScrapSpec, batch: PathBatch):
        if batch.measure != MEASURE_P:
            raise ValueError("first-order conditions are evaluated under the physical measure")
        grid = batch.grid
        n = grid.n_steps
        self.plans = build_controls(curve, batch, y, coeffs)
        self.capacity = controlled_capacity(batch.values, self.plans)
        cum_c = cumulative_integral(grid, coeffs.mu_C)
        cum_f = cumulative_integral(grid, coeffs.mu_F)
        mart = batch.values * np.exp(cum_c)[None, :]
        mass0, term0 = discount_step_masses(grid, coeffs.bar_mu, 0)
        marg = reduced_marginal_array(prod, self.capacity[:, :n], coeffs.w[:n], coeffs.r[:n])
        contrib = np.empty_like(self.capacity)
        contrib[:, :n] = mart[:, :n] * mass0[None, :] * marg
        contrib[:, n] = mart[:, n] * term0 * np.asarray(
            scrap.marginal(self.capacity[:, n]), dtype=float)
        suffix = np.cumsum(contrib[:, ::-1], axis=1)[:, ::-1]
        # on the step straight after the stopping node the plan's action at
        # that node is already in force, so the frozen integrand there uses
        # the post-action capacity; later steps keep the node values.  The
        # two capacities differ only where the plan acts, so the change in
        # the step's marginal is added to the suffix sums on those cells alone
        nubar = self.plans.nubar
        rows, cols = np.nonzero(nubar[:, 1:] != nubar[:, :n])
        cap_plus = batch.values[rows, cols] * (y + nubar[rows, cols + 1])
        marg_plus = reduced_marginal_array(prod, cap_plus, coeffs.w[cols], coeffs.r[cols])
        suffix[rows, cols] += mart[rows, cols] * mass0[cols] * (marg_plus - marg[rows, cols])
        disc_f = np.exp(-cum_f)
        with np.errstate(over="ignore"):
            self.integrand = (coeffs.f_C[None, :n] * np.exp(cum_c)[None, :n]
                              * suffix[:, :n] / mart[:, :n] - disc_f[None, :n])

    def rule_values(self, rule: StoppingRule) -> np.ndarray:
        """Per path, the integrand at the rule's stopping node (0 at the horizon)."""
        idx = rule.indices(self.capacity, self.plans.nubar)
        n = self.capacity.shape[1] - 1
        rows = np.arange(idx.size)
        return np.where(idx < n, self.integrand[rows, np.minimum(idx, n - 1)], 0.0)

    def slackness_values(self) -> np.ndarray:
        """Per path, the integrand summed against the plan's spending increments."""
        return np.sum(self.integrand * np.diff(self.plans.nu, axis=1), axis=1)


@dataclass(frozen=True)
class FOCEntry:
    y: float
    rule: str
    estimate: float
    se: float


@dataclass(frozen=True)
class SlackEntry:
    y: float
    value: float
    se: float


@dataclass(frozen=True)
class FOCReport:
    entries: tuple
    slackness: tuple
    tol_se: float = 2.0
    atol: float = 1e-9

    def _violations(self) -> list:
        """(violation, se) per check: FOC estimates one-sided, slackness two-sided."""
        return ([(e.estimate, e.se) for e in self.entries]
                + [(abs(s.value), s.se) for s in self.slackness])

    @property
    def passed(self) -> bool:
        return not any(v > self.tol_se * se + self.atol for v, se in self._violations())

    @property
    def worst_violation_se(self) -> float:
        worst = -np.inf
        for v, se in self._violations():
            if se > 0:
                worst = max(worst, v / se)
            elif v > self.atol:
                worst = np.inf
        # no entry with a standard error and none beyond atol: nothing is
        # violated, and the report must stay finite JSON
        return 0.0 if worst == -np.inf else float(worst)

    def __str__(self) -> str:
        lines = []
        for e in self.entries:
            lines.append(f"y={e.y:g} {e.rule}: estimate {e.estimate:.6g} (se {e.se:.3g})")
        for s in self.slackness:
            lines.append(f"y={s.y:g} slackness: {s.value:.6g} (se {s.se:.3g})")
        lines.append(f"worst violation: {self.worst_violation_se:.3g} se units; "
                     f"{'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def default_rule_family(curve: BoundaryCurve, n_fixed: int = 10) -> list:
    """Ten fixed nodes spanning the horizon plus three threshold hitters."""
    n = curve.grid.n_steps
    nodes = np.unique(np.linspace(0, n - 1, n_fixed).round().astype(int))
    rules = [StoppingRule.at_node(int(k)) for k in nodes]
    y0 = float(curve.values[0])
    for mult, label in ((0.5, "0.5x"), (1.0, "1x"), (2.0, "2x")):
        rules.append(StoppingRule.hitting(mult * y0, label))
    return rules


def check_foc(curve: BoundaryCurve, y_list: Sequence[float], coeffs: CoefficientSet,
              prod: ProductionSpec, scrap: ScrapSpec, batch: PathBatch,
              rules: Optional[list] = None) -> FOCReport:
    """Evaluate the first-order conditions over a rule family and initial levels.

    Every estimate must sit below +2 standard errors and the slackness
    integral within 2 standard errors of zero for the report to pass.
    """
    rules = default_rule_family(curve) if rules is None else rules
    levels = [float(y) for y in y_list]
    # per level, the per-path values of each rule and then of the slackness,
    # one vector per row block; blocks are joined before any mean is taken
    parts = [[[] for _ in range(len(rules) + 1)] for _ in levels]
    for block in row_blocks(batch):
        for y, columns in zip(levels, parts):
            ws = _FocWorkspace(curve, y, coeffs, prod, scrap, block)
            for rule, column in zip(rules, columns):
                column.append(ws.rule_values(rule))
            columns[-1].append(ws.slackness_values())
            # released before the next level's workspace is built
            del ws
    entries = []
    slack = []
    for y, columns in zip(levels, parts):
        stats = [mean_and_se(np.concatenate(column), batch.antithetic) for column in columns]
        entries += [FOCEntry(y, rule.name, *stat) for rule, stat in zip(rules, stats)]
        slack.append(SlackEntry(y, *stats[-1]))
    return FOCReport(tuple(entries), tuple(slack))
