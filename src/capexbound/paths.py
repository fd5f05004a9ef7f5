"""Exact simulation of the uncontrolled capacity decay factor and running
supremum utilities.

Transitions are sampled from the exact lognormal step law, so there is no
Euler bias: under the physical measure the log increment over a step has mean
-int mu_C - 0.5 int sigma^2 and variance int sigma^2; under the changed
measure used by the boundary equation the mean is int (sigma^2 - mu_C)
- 0.5 int sigma^2.

Randomness comes from counter-based Philox streams keyed by (seed, purpose,
node), with one matrix row per path, so results are reproducible and
independent of how work is split across workers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import CoefficientSet, TimeGrid, _freeze

MEASURE_P = "P"
MEASURE_Q = "Q"

_PURPOSE_TAGS = {"simulate": 1, "solve": 2, "audit": 3}


def log_increment_moments(coeffs: CoefficientSet, measure: str, start: int = 0):
    """Per-step (mean, variance) of the log decay factor from node ``start``."""
    var = coeffs.variance_steps(start)
    drift = coeffs.drift_steps(start)
    if measure == MEASURE_P:
        mean = -drift - 0.5 * var
    elif measure == MEASURE_Q:
        mean = var - drift - 0.5 * var
    else:
        raise ValueError(f"unknown measure {measure!r}")
    return mean, var


def gaussian_matrix(seed: int, purpose: str, node: int, shape: tuple) -> np.ndarray:
    """Standard normals from a Philox stream keyed by (seed, purpose, node)."""
    tag = _PURPOSE_TAGS.get(purpose)
    if tag is None:
        raise ValueError(f"unknown purpose {purpose!r}")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(tag, int(node)))
    gen = np.random.Generator(np.random.Philox(ss))
    return gen.standard_normal(shape)


@dataclass(frozen=True)
class PathBatch:
    """Paths sharing grid, start node, measure and generator stream.

    ``values`` has one row per path and one column per node from ``s_idx``
    to the horizon.  With ``antithetic`` the second half of the rows mirrors
    the Gaussian draws of the first half.  A volatility-free batch has a
    single row that stands for every path.
    """

    grid: TimeGrid
    s_idx: int
    values: np.ndarray
    measure: str
    seed: int
    antithetic: bool = True

    def __post_init__(self):
        object.__setattr__(self, "values", _freeze(self.values))

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]


def pair_means(per_path: np.ndarray, antithetic: bool) -> np.ndarray:
    """Average the two halves of an antithetic batch; identity otherwise.

    A single row is its own pair: it is the one row of a volatility-free
    batch, where a draw and its mirror give the same path.
    """
    if not antithetic or len(per_path) == 1:
        return per_path
    h = len(per_path) // 2
    return 0.5 * (per_path[:h] + per_path[h:])


def mean_and_se(per_path: np.ndarray, antithetic: bool) -> tuple[float, float]:
    """Mean of a per-path statistic and its standard error over pair means."""
    vals = pair_means(per_path, antithetic)
    n = vals.size
    if n < 2:
        return float(np.mean(vals)), 0.0
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / np.sqrt(n))


def values_from_normals(coeffs: CoefficientSet, s_idx: int, normals: np.ndarray,
                        measure: str) -> np.ndarray:
    """Decay-factor matrix from standard normal step draws (exact stepping)."""
    mean, var = log_increment_moments(coeffs, measure, s_idx)
    log_steps = mean[None, :] + np.sqrt(var)[None, :] * normals
    logs = np.concatenate([np.zeros((normals.shape[0], 1)), np.cumsum(log_steps, axis=1)], axis=1)
    return np.exp(logs)


def sample_decay(coeffs: CoefficientSet, s_idx: int, n: int, measure: str, seed: int,
                 purpose: str, antithetic: bool) -> np.ndarray:
    """Decay-factor matrix from node ``s_idx`` on the stream keyed by ``purpose``.

    With ``antithetic`` the count is rounded up to an even number and the
    second half of the rows mirrors the Gaussian draws of the first half.
    When sigma is identically zero every path is the same, so the matrix is
    one row built from zero normals, with no draw, whatever ``n`` is.
    """
    m = coeffs.grid.n_steps - s_idx
    if coeffs.is_sigma_zero():
        normals = np.zeros((1, m))
    elif antithetic:
        z = gaussian_matrix(seed, purpose, s_idx, ((n + 1) // 2, m))
        normals = np.concatenate([z, -z], axis=0)
    else:
        normals = gaussian_matrix(seed, purpose, s_idx, (n, m))
    return values_from_normals(coeffs, s_idx, normals, measure)


def simulate(coeffs: CoefficientSet, grid: TimeGrid, s_idx: int, n: int,
             measure: str = MEASURE_P, seed: int = 0, antithetic: bool = True) -> PathBatch:
    """Simulate ``n`` decay-factor paths from node ``s_idx``.

    With ``antithetic`` the count is rounded up to an even number and draws
    come in +/- pairs.  A fixed seed reproduces the batch bit for bit.  A
    volatility-free instance returns its one deterministic row, so estimates
    over the batch are exact and their standard errors zero.
    """
    if n < 1:
        raise ValueError("need at least one path")
    if not 0 <= s_idx < grid.n_steps:
        raise ValueError("start node must lie strictly before the horizon")
    if grid.nodes.shape != coeffs.grid.nodes.shape or np.any(grid.nodes != coeffs.grid.nodes):
        raise ValueError("grid mismatch between coefficients and request")
    vals = sample_decay(coeffs, s_idx, n, measure, seed, "simulate", antithetic)
    return PathBatch(grid, s_idx, vals, measure, seed, antithetic)


def running_sup_matrix(values: np.ndarray, curve_tail: np.ndarray) -> np.ndarray:
    """Batch running supremum: row-wise cummax of curve_tail / values.

    ``values`` holds decay factors at nodes j..N (columns), ``curve_tail`` the
    boundary at nodes j..N-1.  Output column k is the supremum over nodes
    strictly before node j+1+k, one column per k = 0..N-j-1.
    """
    ratios = curve_tail[None, :] / values[:, :curve_tail.size]
    # ratios is a fresh temporary, so the cummax can overwrite it
    return np.maximum.accumulate(ratios, axis=1, out=ratios)
