"""Exact simulation of the uncontrolled capacity decay factor and running
supremum utilities.

Transitions are sampled from the exact lognormal step law, so there is no
Euler bias: under the physical measure the log increment over a step has mean
-int mu_C - 0.5 int sigma^2 and variance int sigma^2; under the changed
measure used by the boundary equation the mean is int (sigma^2 - mu_C)
- 0.5 int sigma^2.

Randomness comes from counter-based Philox streams keyed by (seed, purpose),
with one matrix row per path, so results are reproducible and independent of
how work is split across workers.  Every batch starts at t = 0; the paths from
a later node are the column slice from that node, rescaled to start at one.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .model import CoefficientSet, TimeGrid, _freeze

MEASURE_P = "P"
MEASURE_Q = "Q"

_PURPOSE_TAGS = {"simulate": 1, "solve": 2, "audit": 3}

# rows per block of the per-path work after a batch is drawn (controls,
# profits, first-order conditions), so its temporaries do not grow with the
# path count
BLOCK_ROWS = 1024


def log_increment_moments(coeffs: CoefficientSet, measure: str):
    """Per-step (mean, variance) of the log decay factor."""
    var = coeffs.variance_steps()
    drift = coeffs.drift_steps()
    if measure == MEASURE_P:
        mean = -drift - 0.5 * var
    elif measure == MEASURE_Q:
        mean = var - drift - 0.5 * var
    else:
        raise ValueError(f"unknown measure {measure!r}")
    return mean, var


def gaussian_matrix(seed: int, purpose: str, shape: tuple) -> np.ndarray:
    """Standard normals from a Philox stream keyed by (seed, purpose)."""
    tag = _PURPOSE_TAGS.get(purpose)
    if tag is None:
        raise ValueError(f"unknown purpose {purpose!r}")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(tag, 0))
    gen = np.random.Generator(np.random.Philox(ss))
    return gen.standard_normal(shape)


@dataclass(frozen=True)
class PathBatch:
    """Paths sharing grid, measure and generator stream.

    ``values`` has one row per path and one column per node from t = 0 to
    the horizon.  With ``antithetic`` the second half of the rows mirrors
    the Gaussian draws of the first half.  A volatility-free batch has a
    single row that stands for every path.
    """

    grid: TimeGrid
    values: np.ndarray
    measure: str
    antithetic: bool = True

    def __post_init__(self):
        object.__setattr__(self, "values", _freeze(self.values))

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]


def row_blocks(batch: PathBatch):
    """Row-slice views of ``batch``, in order, with BLOCK_ROWS rows each but
    the last.

    A block is no batch of its own: with ``antithetic`` row k pairs with row
    k + P/2, so estimates come from its per-path values once concatenated.
    """
    for lo in range(0, batch.n_paths, BLOCK_ROWS):
        yield dataclasses.replace(batch, values=batch.values[lo:lo + BLOCK_ROWS])


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
        # a mean over one element is that element, exactly
        return float(vals[0]), 0.0
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / np.sqrt(n))


def values_from_normals(coeffs: CoefficientSet, paths: np.ndarray, measure: str) -> np.ndarray:
    """Decay-factor matrix, stepped in place and returned: ``paths`` has one
    row per path, zero at node 0 and standard normal step draws after it;
    the draws take the steps, their running sums and then, with node 0, the
    exponential.  A transposed view steps a node-major buffer."""
    mean, var = log_increment_moments(coeffs, measure)
    steps = paths[:, 1:]
    np.multiply(np.sqrt(var), steps, out=steps)
    np.add(mean, steps, out=steps)
    np.cumsum(steps, axis=1, out=steps)
    return np.exp(paths, out=paths)


def sample_decay(coeffs: CoefficientSet, n: int, measure: str, seed: int, purpose: str,
                 antithetic: bool, by_node: bool = False) -> np.ndarray:
    """Decay-factor matrix from t = 0 on the stream keyed by ``purpose``, one
    row per path, or with ``by_node`` its transpose, drawn as such.

    With ``antithetic`` the count is rounded up to an even number and the
    second half of the rows mirrors the Gaussian draws of the first half.
    When sigma is identically zero every path is the same, so the matrix is
    one row built from zero normals, with no draw, whatever ``n`` is.  Only
    the output is full-size; the draw is half that when antithetic.
    """
    m = coeffs.grid.n_steps
    sigma_zero = coeffs.is_sigma_zero()
    h = (n + 1) // 2 if antithetic else n
    rows = 1 if sigma_zero else 2 * h if antithetic else n
    buf = np.zeros((m + 1, rows) if by_node else (rows, m + 1))
    paths = buf.T if by_node else buf
    # the draw goes straight into the step columns, and the first half of an
    # antithetic batch is negated into the second
    if not sigma_zero:
        paths[:h, 1:] = gaussian_matrix(seed, purpose, (h, m))
        if antithetic:
            np.negative(paths[:h, 1:], out=paths[h:, 1:])
    values_from_normals(coeffs, paths, measure)
    return buf


def simulate(coeffs: CoefficientSet, n: int, measure: str = MEASURE_P, seed: int = 0,
             antithetic: bool = True) -> PathBatch:
    """Simulate ``n`` decay-factor paths from t = 0 on the coefficients' grid.

    With ``antithetic`` the count is rounded up to an even number and draws
    come in +/- pairs.  A fixed seed reproduces the batch bit for bit.  A
    volatility-free instance returns its one deterministic row, so estimates
    over the batch are exact and their standard errors zero.
    """
    if n < 1:
        raise ValueError("need at least one path")
    vals = sample_decay(coeffs, n, measure, seed, "simulate", antithetic)
    return PathBatch(coeffs.grid, vals, measure, antithetic)


def running_sup_matrix(values: np.ndarray, curve_tail: np.ndarray) -> np.ndarray:
    """Batch running supremum: row-wise cummax of curve_tail / values.

    ``values`` holds decay factors at nodes j..N (columns), ``curve_tail`` the
    boundary at nodes j..N-1.  Output column k is the supremum over nodes
    strictly before node j+1+k, one column per k = 0..N-j-1.
    """
    ratios = curve_tail[None, :] / values[:, :curve_tail.size]
    # ratios is a fresh temporary, so the cummax can overwrite it
    return np.maximum.accumulate(ratios, axis=1, out=ratios)
