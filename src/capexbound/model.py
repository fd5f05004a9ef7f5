"""Problem data: time grid, coefficient functions, production and scrap
specifications, standing-assumption validation, and grid integration utilities.

Coefficients are deterministic functions of time represented by samples at the
grid nodes with linear interpolation in between.  Every downstream quantity
(discount factors, log-increment moments, quadrature masses) is derived from
these samples, so the grid is the single source of truth for time resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

# the standing assumptions' eps_o: mu_C + mu_F must stay at or above it
DISCOUNT_FLOOR = 1e-6

# Marginal-value sentinel used in bracketing comparisons when the Inada
# condition makes the true value unbounded.  Never fed into products with
# possibly-zero weights.
INADA_SENTINEL = 1e300


class AssumptionError(ValueError):
    """A standing assumption fails hard enough that solving is unsound."""


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.asarray(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing nodes t_0 = 0 < t_1 < ... < t_N = T."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = _freeze(self.nodes)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("grid needs at least 2 nodes")
        if not np.all(np.isfinite(nodes)):
            raise ValueError("grid nodes must be finite")
        if nodes[0] != 0.0:
            raise ValueError("grid must start at t = 0")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("grid nodes must be strictly increasing")

    @classmethod
    def uniform(cls, horizon: float, n_steps: int) -> "TimeGrid":
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        if n_steps < 1:
            raise ValueError("need at least one step")
        return cls(np.linspace(0.0, float(horizon), n_steps + 1))

    @property
    def horizon(self) -> float:
        return float(self.nodes[-1])

    @property
    def n_steps(self) -> int:
        return self.nodes.size - 1

    @property
    def deltas(self) -> np.ndarray:
        return np.diff(self.nodes)


FunctionLike = Union[float, int, Callable[[np.ndarray], np.ndarray], Sequence[float], np.ndarray]


def sample_on_grid(grid: TimeGrid, spec: FunctionLike) -> np.ndarray:
    """Turn a scalar, callable or node array into samples at the grid nodes."""
    if callable(spec):
        vals = np.asarray(spec(grid.nodes), dtype=float)
        if vals.shape == ():
            vals = np.full(grid.nodes.shape, float(vals))
    elif np.isscalar(spec):
        vals = np.full(grid.nodes.shape, float(spec))
    else:
        vals = np.asarray(spec, dtype=float)
    if vals.shape != grid.nodes.shape:
        raise ValueError(f"expected {grid.nodes.size} node values, got shape {vals.shape}")
    return vals


def cumulative_integral(grid: TimeGrid, values: np.ndarray) -> np.ndarray:
    """Cumulative integral of the piecewise-linear interpolant, node by node.

    Exact for functions that are linear between nodes; this is the common
    antiderivative backing every discount factor in the package.
    """
    steps = 0.5 * (values[:-1] + values[1:]) * grid.deltas
    out = np.empty(grid.nodes.size)
    out[0] = 0.0
    np.cumsum(steps, out=out[1:])
    return out


def step_discounts(grid: TimeGrid, rate_values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per step i: the mass int_{t_i}^{t_i+1} exp(-int_{t_i}^u rate) du and
    the one-step discount exp(-int_{t_i}^{t_i+1} rate).

    The rate is treated as constant on each step at its trapezoid average m,
    so the mass is -expm1(-m dt)/m, exact whenever the rate is constant and
    second-order accurate otherwise.
    """
    m = 0.5 * (rate_values[:-1] + rate_values[1:])
    dt = grid.deltas
    step_int = m * dt
    # -expm1(-x)/x is stable for small x; patch the exact zero-rate limit.
    with np.errstate(invalid="ignore", divide="ignore"):
        mass = np.where(step_int > 0, -np.expm1(-step_int) / np.where(m > 0, m, 1.0), dt)
    return mass, np.exp(-step_int)


def discount_step_masses(grid: TimeGrid, rate_values: np.ndarray, start: int) -> tuple[np.ndarray, float]:
    """Per-step integrals of exp(-int_{t_start}^u rate) for steps start..N-1:
    the step masses of ``step_discounts`` discounted back to t_start.

    Returns (masses, terminal_factor) with
    terminal_factor = exp(-int_{t_start}^{T} rate).
    """
    cum = cumulative_integral(grid, rate_values)
    disc = np.exp(-(cum[start:] - cum[start]))
    mass, _ = step_discounts(grid, rate_values)
    return disc[:-1] * mass[start:], float(disc[-1])


# ---------------------------------------------------------------------------
# coefficient bundle


@dataclass(frozen=True)
class CoefficientSet:
    """Deterministic model coefficients sampled at the grid nodes.

    ``sigma`` is the scalar volatility magnitude; a vector volatility enters
    the dynamics only through its norm, so nothing is lost by collapsing it.
    """

    grid: TimeGrid
    mu_C: np.ndarray
    sigma: np.ndarray
    f_C: np.ndarray
    mu_F: np.ndarray
    w: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        for name in ("mu_C", "sigma", "f_C", "mu_F", "w", "r"):
            vals = _freeze(getattr(self, name))
            if not np.all(np.isfinite(vals)):
                raise ValueError(f"non-finite values in coefficient '{name}'")
            object.__setattr__(self, name, vals)

    @classmethod
    def build(cls, grid: TimeGrid, *, mu_C: FunctionLike, sigma: FunctionLike,
              f_C: FunctionLike, mu_F: FunctionLike, w: FunctionLike,
              r: FunctionLike) -> "CoefficientSet":
        arrs = {name: sample_on_grid(grid, spec)
                for name, spec in (("mu_C", mu_C), ("sigma", sigma), ("f_C", f_C),
                                   ("mu_F", mu_F), ("w", w), ("r", r))}
        return cls(grid=grid, **arrs)

    @property
    def bar_mu(self) -> np.ndarray:
        return self.mu_C + self.mu_F

    @property
    def sigma_sq(self) -> np.ndarray:
        return self.sigma ** 2

    def variance_steps(self) -> np.ndarray:
        """Exact per-step integral of sigma^2 under linear interpolation of sigma."""
        s0 = self.sigma[:-1]
        s1 = self.sigma[1:]
        return self.grid.deltas * (s0 * s0 + s0 * s1 + s1 * s1) / 3.0

    def drift_steps(self) -> np.ndarray:
        """Per-step integral of mu_C (trapezoid, exact for linear mu_C)."""
        return np.diff(cumulative_integral(self.grid, self.mu_C))

    def is_sigma_zero(self) -> bool:
        return bool(np.all(self.sigma == 0.0))


def _central_differences(t: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Derivative of f along its last axis at the points t: central inside,
    one-sided at the two ends."""
    d = np.empty_like(f)
    d[..., 1:-1] = (f[..., 2:] - f[..., :-2]) / (t[2:] - t[:-2])
    d[..., 0] = (f[..., 1] - f[..., 0]) / (t[1] - t[0])
    d[..., -1] = (f[..., -1] - f[..., -2]) / (t[-1] - t[-2])
    return d


# ---------------------------------------------------------------------------
# production and scrap specifications


@dataclass(frozen=True)
class CobbDouglas:
    """R(C, L, K) = C^alpha L^beta K^gamma / (alpha beta gamma) on a box."""

    alpha: float
    beta: float
    gamma: float
    kappa_L: float = 1e6
    kappa_K: float = 1e6

    def __post_init__(self):
        # written so that NaN fails every test
        if not all(x > 0 for x in (self.alpha, self.beta, self.gamma)):
            raise ValueError("Cobb-Douglas exponents must be positive")
        if not self.alpha + self.beta + self.gamma < 1:
            raise ValueError("Cobb-Douglas exponents must sum below one")
        if not (self.kappa_L > 0 and self.kappa_K > 0):
            raise ValueError("input box bounds must be positive")

    def raw(self, C, L, K):
        scale = 1.0 / (self.alpha * self.beta * self.gamma)
        return scale * np.asarray(C) ** self.alpha * np.asarray(L) ** self.beta * np.asarray(K) ** self.gamma


@dataclass(frozen=True)
class SyntheticMarginal:
    """Directly specified marginal profit rate scale * C^(-exponent),
    bypassing the input layer.

    The boundary equation is well posed for a positive scale and exponent,
    the only ones ``power_marginal`` builds; a zero scale or exponent gives
    the degenerate zero or constant marginal.  ``value`` fixes the profit
    level; consumers only ever need one consistent antiderivative.
    """

    power_scale: float
    power_exponent: float

    def __post_init__(self):
        if not (self.power_scale >= 0 and self.power_exponent >= 0):
            raise ValueError("synthetic marginal needs scale >= 0 and exponent >= 0")

    def marginal(self, C):
        return self.power_scale * np.asarray(C, dtype=float) ** (-self.power_exponent)

    def value(self, C):
        scale, exponent = self.power_scale, self.power_exponent
        if exponent == 1.0:
            return scale * np.log(C)
        return scale * np.asarray(C) ** (1.0 - exponent) / (1.0 - exponent)


def power_marginal(scale: float, exponent: float) -> SyntheticMarginal:
    """The ``power_marginal`` config variant: marginal scale * C^(-exponent)
    with a positive scale and exponent."""
    if scale <= 0 or exponent <= 0:
        raise ValueError("power marginal needs positive scale and exponent")
    return SyntheticMarginal(power_scale=scale, power_exponent=exponent)


ProductionSpec = Union[CobbDouglas, SyntheticMarginal]


@dataclass(frozen=True)
class SaturatingExponential:
    """Scrap value G(C) = a (1 - exp(-b C)); marginal a b exp(-b C)."""

    a: float
    b: float

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0):
            raise ValueError("saturating-exponential scrap needs positive a, b")

    def value(self, C):
        return self.a * -np.expm1(-self.b * np.asarray(C, dtype=float))

    def marginal(self, C):
        return self.a * self.b * np.exp(-self.b * np.asarray(C, dtype=float))

    @property
    def strictly_decreasing_marginal(self) -> bool:
        return True


@dataclass(frozen=True)
class ZeroScrap:
    """No terminal payoff.  Violates the strict-decrease requirement on the
    scrap marginal; the boundary solver accepts it only behind an override."""

    def value(self, C):
        return np.zeros_like(np.asarray(C, dtype=float))

    def marginal(self, C):
        return np.zeros_like(np.asarray(C, dtype=float))

    @property
    def strictly_decreasing_marginal(self) -> bool:
        return False


ScrapSpec = Union[SaturatingExponential, ZeroScrap]


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""
    first_violation: Optional[int] = None
    hard: bool = True


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple

    def check(self, name: str) -> CheckResult:
        return {c.name: c for c in self.checks}[name]

    @property
    def hard_ok(self) -> bool:
        return all(c.passed for c in self.checks if c.hard)

    @property
    def efficiency_ok(self) -> bool:
        return self.check("efficiency").passed

    def failures(self) -> list:
        return [c for c in self.checks if c.hard and not c.passed]

    def __str__(self) -> str:
        lines = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            kind = "" if c.hard else " (advisory)"
            loc = "" if c.first_violation is None else f" [first violation at node {c.first_violation}]"
            det = f": {c.detail}" if c.detail else ""
            lines.append(f"{c.name}{kind}: {status}{det}{loc}")
        return "\n".join(lines)


def _first_bad(mask: np.ndarray) -> Optional[int]:
    idx = np.flatnonzero(~mask)
    return int(idx[0]) if idx.size else None


def validate(coeffs: CoefficientSet, prod: ProductionSpec, scrap: ScrapSpec) -> ValidationReport:
    """Check the standing assumptions node by node.

    Hard checks gate solvability; the efficiency check only gates the
    monotonicity claims on the boundary and is reported separately.
    Every outcome lands in the report: a ``CoefficientSet`` holds finite
    samples only.  Side-effect free and idempotent.
    """
    from . import production as production_mod

    checks = []

    ok = (coeffs.f_C > 0) & (coeffs.mu_C >= 0) & (coeffs.sigma >= 0)
    checks.append(CheckResult("coefficient-bounds", bool(ok.all()),
                              "f_C positive, mu_C and sigma nonnegative", _first_bad(ok)))

    ok = (coeffs.w > 0) & (coeffs.r > 0)
    costs_ok = bool(ok.all())
    checks.append(CheckResult("cost-functions", costs_ok, "wage and interest positive",
                              _first_bad(ok)))

    ok = coeffs.bar_mu >= DISCOUNT_FLOOR
    checks.append(CheckResult("discount-floor", bool(ok.all()),
                              f"mu_C + mu_F >= {DISCOUNT_FLOOR:g}", _first_bad(ok)))

    prod_ok, prod_detail = _check_production(prod)
    checks.append(CheckResult("production", prod_ok, prod_detail))

    scrap_ok, scrap_detail = _check_scrap(scrap, coeffs)
    checks.append(CheckResult("scrap", scrap_ok, scrap_detail))

    checks.append(CheckResult(
        "scrap-strict-decrease", scrap.strictly_decreasing_marginal,
        "scrap marginal strictly decreasing (required by the boundary solver "
        "unless explicitly overridden)"))

    eff_ok, eff_detail, eff_node = _check_efficiency(coeffs, prod, scrap, production_mod, costs_ok)
    checks.append(CheckResult("efficiency", eff_ok, eff_detail, eff_node, hard=False))

    return ValidationReport(tuple(checks))


def _check_production(prod) -> tuple[bool, str]:
    if isinstance(prod, CobbDouglas):
        return True, "Cobb-Douglas exponents valid (checked at construction); Inada holds"
    # scale * C^(-exponent) is positive, decreasing, unbounded toward zero
    # capacity and vanishing at infinity exactly when both numbers are positive
    if 0 < prod.power_scale < math.inf and 0 < prod.power_exponent < math.inf:
        return True, "power marginal with positive scale and exponent; Inada holds"
    return False, "marginal does not blow up toward zero capacity (Inada)"


def _check_scrap(scrap, coeffs) -> tuple[bool, str]:
    # a (1 - exp(-b C)) with a, b > 0 (checked at construction) is concave,
    # non-decreasing and its marginal vanishes at infinity in any units; zero
    # scrap is too, and only G'(0) f_C(T) <= 1 is left to check
    g0 = float(scrap.marginal(0.0))
    fT = float(coeffs.f_C[-1])
    if not g0 * fT <= 1.0 + 1e-12:
        return False, f"G'(0) f_C(T) = {g0 * fT:.6g} exceeds 1"
    return True, f"concave non-decreasing, G'(0) f_C(T) = {g0 * fT:.6g} <= 1"


def _check_efficiency(coeffs, prod, scrap, production_mod, costs_ok: bool):
    parts = [("sigma^2 <= mu_C", coeffs.sigma_sq <= coeffs.mu_C + 1e-15)]
    # f_C is piecewise linear between its samples, so they determine f_C'
    f_C_prime = _central_differences(coeffs.grid.nodes, coeffs.f_C)
    with np.errstate(divide="ignore", invalid="ignore"):
        decay = -f_C_prime / coeffs.f_C
    parts.append(("bar_mu <= -f_C'/f_C", coeffs.bar_mu <= decay + 1e-12))

    probe = np.geomspace(1e-2, 1e2, 17)
    mids = 0.5 * (probe[:-2] + probe[2:])
    gp = np.asarray(scrap.marginal(probe), dtype=float)
    gmid = np.asarray(scrap.marginal(mids), dtype=float)
    conv_g = np.all(gmid <= 0.5 * (gp[:-2] + gp[2:]) + 1e-12)
    # the production marginal is undefined at a non-positive wage or rate, so
    # it is not probed once the cost-function check has failed
    conv_m = costs_ok
    if costs_ok:
        vals = production_mod.reduced_marginal_array(
            prod, np.concatenate([probe, mids]), float(coeffs.w[0]), float(coeffs.r[0]))
        marg, mid = vals[:probe.size], vals[probe.size:]
        conv_m = np.all(mid <= 0.5 * (marg[:-2] + marg[2:]) + 1e-9 * np.abs(marg[:-2]))
    parts.append(("convex marginals", np.array([conv_m and conv_g])))

    failed = [name for name, m in parts if not np.all(m)]
    # the first failing node-wise condition locates the violation
    nodes = [_first_bad(m) for _, m in parts[:2] if not np.all(m)]
    return (not failed, "failing: " + ", ".join(failed) if failed else "all conditions hold",
            nodes[0] if nodes else None)
