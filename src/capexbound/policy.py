"""Investment policy construction and profit evaluation.

The optimal policy tracks the boundary: cumulative capacity additions equal
the positive excess of the running supremum of boundary-to-decay ratios over
the initial level.  Expenditure converts additions through the conversion
factor at the left node of each step, matching the left-continuous control
convention, so an initial jump is booked at the first step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .boundary import BoundaryCurve
from .model import CoefficientSet, ProductionSpec, ScrapSpec, _freeze, discount_step_masses
from .paths import MEASURE_P, PathBatch, mean_and_se, running_sup_matrix
from .production import reduced_value_array


def _expenditure_from_additions(coeffs: CoefficientSet, s_idx: int,
                                decay: np.ndarray, nubar: np.ndarray) -> np.ndarray:
    """Left-endpoint Stieltjes sum of decay / f_C against nubar increments."""
    weights = decay[..., :-1] / coeffs.f_C[s_idx:-1][None, :]
    increments = np.diff(nubar, axis=-1)
    nu = np.zeros_like(nubar)
    np.cumsum(weights * increments, axis=-1, out=nu[..., 1:])
    return nu


@dataclass(frozen=True)
class PlanBatch:
    """Per-path plans stored densely: rows are paths, columns grid nodes.

    ``nubar`` ledgers capacity additions (zero at the start node) and ``nu``
    the cumulative investment expenditure funding them.
    """

    s_idx: int
    y: float
    nubar: np.ndarray
    nu: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "nubar", _freeze(self.nubar))
        object.__setattr__(self, "nu", _freeze(self.nu))


def build_controls(curve: BoundaryCurve, batch: PathBatch, y: float,
                   coeffs: CoefficientSet) -> PlanBatch:
    """Vectorized tracking policy over a batch of paths."""
    if y <= 0:
        raise ValueError("initial capacity must be positive")
    s = batch.s_idx
    sup = running_sup_matrix(batch.values, curve.values[s:])
    nubar = np.concatenate([np.zeros((batch.values.shape[0], 1)),
                            np.maximum(sup - y, 0.0)], axis=1)
    np.maximum.accumulate(nubar, axis=1, out=nubar)
    nu = _expenditure_from_additions(coeffs, s, batch.values, nubar)
    return PlanBatch(s, y, nubar, nu)


def controlled_capacity(path_values: np.ndarray, plan) -> np.ndarray:
    """Capacity along the path under the plan: decay times (y + additions)."""
    return path_values * (plan.y + plan.nubar)


@dataclass(frozen=True)
class ProfitEstimate:
    mean: float
    se: float
    per_path: np.ndarray = field(repr=False, default=None)


def profit(coeffs: CoefficientSet, prod: ProductionSpec, scrap: ScrapSpec,
           batch: PathBatch, plans: PlanBatch) -> ProfitEstimate:
    """Expected discounted profit plus scrap, net of investment.

    Per-path value: discounted running profit at the controlled capacity
    accumulated with left-frozen integrands and exact per-step discount
    masses, plus discounted scrap at the horizon, minus the discounted
    expenditure increments.
    """
    if batch.measure != MEASURE_P:
        raise ValueError("profit expects paths under the physical measure")
    if plans.s_idx != batch.s_idx:
        raise ValueError("plan and path batch start at different nodes")
    if plans.nubar.shape != batch.values.shape:
        raise ValueError("plan and path batch have mismatched shapes")
    s = batch.s_idx
    grid = batch.grid
    n = grid.n_steps
    cap = controlled_capacity(batch.values, plans)
    masses, terminal = discount_step_masses(grid, coeffs.mu_F, s)
    # the capacity prevailing on each open step interval includes the action
    # booked at its left node, hence the shifted ledger column
    cap_step = batch.values[:, :-1] * (plans.y + plans.nubar[:, 1:])
    vals = reduced_value_array(prod, cap_step, coeffs.w[s:n], coeffs.r[s:n])
    running = vals @ masses
    scrap_term = terminal * np.asarray(scrap.value(cap[:, -1]), dtype=float)
    from .model import cumulative_integral
    cum_f = cumulative_integral(grid, coeffs.mu_F)
    disc_nodes = np.exp(-(cum_f[s:n] - cum_f[s]))
    spend = np.diff(plans.nu, axis=1) @ disc_nodes
    per_path = running + scrap_term - spend
    mean, se = mean_and_se(per_path, batch.antithetic)
    return ProfitEstimate(mean, se, per_path)


def zero_plan(batch, y: float) -> PlanBatch:
    shape = batch.values.shape
    return PlanBatch(batch.s_idx, y, np.zeros(shape), np.zeros(shape))


def constant_rate_plan(coeffs: CoefficientSet, batch, y: float, rate: float) -> PlanBatch:
    """Benchmark policy spending at a constant rate: nu(t) = rate * (t - t_s)."""
    s = batch.s_idx
    t = batch.grid.nodes[s:]
    nu = np.broadcast_to(rate * (t - t[0]), batch.values.shape).copy()
    # capacity additions funded by each spending increment at the left node
    weights = coeffs.f_C[s:-1][None, :] / batch.values[:, :-1]
    nubar = np.zeros_like(nu)
    np.cumsum(weights * np.diff(nu, axis=1), axis=1, out=nubar[:, 1:])
    return PlanBatch(s, y, nubar, nu)
