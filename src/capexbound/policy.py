"""Investment policy construction and profit evaluation.

The optimal policy tracks the boundary: cumulative capacity additions equal
the positive excess of the running supremum of boundary-to-decay ratios over
the initial level.  Expenditure converts additions through the conversion
factor at the left node of each step, matching the left-continuous control
convention, so an initial jump is booked at the first step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundary import BoundaryCurve
from .model import (CoefficientSet, ProductionSpec, ScrapSpec, _freeze, cumulative_integral,
                    discount_step_masses)
from .paths import MEASURE_P, PathBatch, running_sup_matrix
from .production import reduced_value_array


def _left_sum(weights: np.ndarray, ledger: np.ndarray) -> np.ndarray:
    """Left-endpoint Stieltjes sum of per-step ``weights`` against the
    increments of ``ledger``, zero at t = 0."""
    out = np.zeros_like(ledger)
    np.cumsum(weights * np.diff(ledger, axis=-1), axis=-1, out=out[..., 1:])
    return out


class CapacityRangeError(ValueError):
    """An initial capacity that is not positive or overflows the controlled capacity."""


@dataclass(frozen=True)
class PlanBatch:
    """Per-path plans stored densely: rows are paths, columns grid nodes.

    ``nubar`` ledgers capacity additions (zero at t = 0) and ``nu`` the
    cumulative investment expenditure funding them.
    """

    y: float
    nubar: np.ndarray
    nu: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "nubar", _freeze(self.nubar))
        object.__setattr__(self, "nu", _freeze(self.nu))


def build_controls(curve: BoundaryCurve, batch: PathBatch, y: float,
                   coeffs: CoefficientSet) -> PlanBatch:
    """Vectorized tracking policy over a batch of paths."""
    # capacity >= y * decay, and decay starts at one, so an empty batch checks y
    # alone; a product of Python floats overflows without a warning
    if not 0.0 < float(y) * float(np.max(batch.values, initial=1.0)) < np.inf:
        raise CapacityRangeError(f"initial capacity {y:g} is not positive or overflows "
                                 "the controlled capacity")
    sup = running_sup_matrix(batch.values, curve.values)
    # sup is a running maximum, so the ledger is already non-decreasing
    nubar = np.concatenate([np.zeros((batch.values.shape[0], 1)),
                            np.maximum(sup - y, 0.0)], axis=1)
    # expenditure: each addition at the conversion factor decay / f_C of its left node
    nu = _left_sum(batch.values[:, :-1] / coeffs.f_C[:-1][None, :], nubar)
    return PlanBatch(y, nubar, nu)


def controlled_capacity(path_values: np.ndarray, plan) -> np.ndarray:
    """Capacity along the path under the plan: decay times (y + additions)."""
    return path_values * (plan.y + plan.nubar)


def profit(coeffs: CoefficientSet, prod: ProductionSpec, scrap: ScrapSpec,
           batch: PathBatch, plans: PlanBatch) -> np.ndarray:
    """Per-path discounted profit plus scrap, net of investment.

    Each path's value is its discounted running profit at the controlled
    capacity, accumulated with left-frozen integrands and exact per-step
    discount masses, plus discounted scrap at the horizon, minus the
    discounted expenditure increments.  ``paths.mean_and_se`` over the
    batch's values gives the expected profit and its standard error.
    """
    if batch.measure != MEASURE_P:
        raise ValueError("profit expects paths under the physical measure")
    if plans.nubar.shape != batch.values.shape:
        raise ValueError("plan and path batch have mismatched shapes")
    grid = batch.grid
    n = grid.n_steps
    masses, terminal = discount_step_masses(grid, coeffs.mu_F, 0)
    # the capacity prevailing on each open step interval includes the action
    # booked at its left node, hence the shifted ledger column
    cap_step = batch.values[:, :-1] * (plans.y + plans.nubar[:, 1:])
    vals = reduced_value_array(prod, cap_step, coeffs.w[:n], coeffs.r[:n])
    running = np.einsum("pn,n->p", vals, masses)
    cap_end = batch.values[:, -1] * (plans.y + plans.nubar[:, -1])
    scrap_term = terminal * np.asarray(scrap.value(cap_end), dtype=float)
    cum_f = cumulative_integral(grid, coeffs.mu_F)
    disc_nodes = np.exp(-cum_f[:n])
    spend = np.einsum("pn,n->p", np.diff(plans.nu, axis=1), disc_nodes)
    return running + scrap_term - spend


def zero_plan(batch, y: float) -> PlanBatch:
    shape = batch.values.shape
    return PlanBatch(y, np.zeros(shape), np.zeros(shape))


def constant_rate_plan(coeffs: CoefficientSet, batch, y: float, rate: float) -> PlanBatch:
    """Benchmark policy spending at a constant rate: nu(t) = rate * t."""
    nu = np.broadcast_to(rate * batch.grid.nodes, batch.values.shape).copy()
    # capacity additions funded by each spending increment at the left node
    return PlanBatch(y, _left_sum(coeffs.f_C[:-1][None, :] / batch.values[:, :-1], nu), nu)
