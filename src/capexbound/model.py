"""Problem data: time grid, coefficient functions, production and scrap
specifications, standing-assumption validation, and grid integration utilities.

Coefficients are deterministic functions of time represented by samples at the
grid nodes with linear interpolation in between.  Every downstream quantity
(discount factors, log-increment moments, quadrature masses) is derived from
these samples, so the grid is the single source of truth for time resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

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


def discount_step_masses(grid: TimeGrid, rate_values: np.ndarray, start: int) -> tuple[np.ndarray, float]:
    """Per-step integrals of exp(-int_{t_start}^u rate) for steps start..N-1.

    The rate is treated as constant on each step at its trapezoid average, so
    the masses are exact whenever the rate is constant and second-order
    accurate otherwise.  Returns (masses, terminal_factor) with
    terminal_factor = exp(-int_{t_start}^{T} rate).
    """
    cum = cumulative_integral(grid, rate_values)
    rel = cum[start:] - cum[start]
    disc = np.exp(-rel)
    m = 0.5 * (rate_values[start:-1] + rate_values[start + 1:])
    dt = grid.deltas[start:]
    step_int = m * dt
    # -expm1(-x)/x is stable for small x; patch the exact zero-rate limit.
    with np.errstate(invalid="ignore", divide="ignore"):
        masses = disc[:-1] * np.where(step_int > 0, -np.expm1(-step_int) / np.where(m > 0, m, 1.0), dt)
    masses = np.where(step_int > 0, masses, disc[:-1] * dt)
    return masses, float(disc[-1])


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
    f_C_prime: np.ndarray
    eps_o: float = 1e-6
    bounds: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("mu_C", "sigma", "f_C", "mu_F", "w", "r", "f_C_prime"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))

    @classmethod
    def build(cls, grid: TimeGrid, *, mu_C: FunctionLike, sigma: FunctionLike,
              f_C: FunctionLike, mu_F: FunctionLike, w: FunctionLike, r: FunctionLike,
              f_C_prime: Optional[FunctionLike] = None, eps_o: float = 1e-6,
              bounds: Optional[dict] = None) -> "CoefficientSet":
        arrs = {name: sample_on_grid(grid, spec)
                for name, spec in (("mu_C", mu_C), ("sigma", sigma), ("f_C", f_C),
                                   ("mu_F", mu_F), ("w", w), ("r", r))}
        for name, vals in arrs.items():
            if not np.all(np.isfinite(vals)):
                raise ValueError(f"non-finite values in coefficient '{name}'")
        if f_C_prime is None:
            fcp = _central_differences(grid.nodes, arrs["f_C"])
        else:
            fcp = sample_on_grid(grid, f_C_prime)
        return cls(grid=grid, f_C_prime=fcp, eps_o=eps_o, bounds=dict(bounds or {}), **arrs)

    @property
    def bar_mu(self) -> np.ndarray:
        return self.mu_C + self.mu_F

    @property
    def sigma_sq(self) -> np.ndarray:
        return self.sigma ** 2

    def variance_steps(self, start: int = 0) -> np.ndarray:
        """Exact per-step integral of sigma^2 under linear interpolation of sigma."""
        s0 = self.sigma[start:-1]
        s1 = self.sigma[start + 1:]
        return self.grid.deltas[start:] * (s0 * s0 + s0 * s1 + s1 * s1) / 3.0

    def drift_steps(self, start: int = 0) -> np.ndarray:
        """Per-step integral of mu_C (trapezoid, exact for linear mu_C)."""
        cum = cumulative_integral(self.grid, self.mu_C)
        return np.diff(cum[start:])

    def is_sigma_zero(self) -> bool:
        return bool(np.all(self.sigma == 0.0))


def _central_differences(t: np.ndarray, f: np.ndarray) -> np.ndarray:
    d = np.empty_like(f)
    d[1:-1] = (f[2:] - f[:-2]) / (t[2:] - t[:-2])
    d[0] = (f[1] - f[0]) / (t[1] - t[0])
    d[-1] = (f[-1] - f[-2]) / (t[-1] - t[-2])
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
        if min(self.alpha, self.beta, self.gamma) <= 0:
            raise ValueError("Cobb-Douglas exponents must be positive")
        if self.alpha + self.beta + self.gamma >= 1:
            raise ValueError("Cobb-Douglas exponents must sum below one")
        if min(self.kappa_L, self.kappa_K) <= 0:
            raise ValueError("input box bounds must be positive")

    def raw(self, C, L, K):
        scale = 1.0 / (self.alpha * self.beta * self.gamma)
        return scale * np.asarray(C) ** self.alpha * np.asarray(L) ** self.beta * np.asarray(K) ** self.gamma


@dataclass(frozen=True)
class SyntheticMarginal:
    """Directly specified marginal profit rate, bypassing the input layer.

    ``rc`` must be positive and strictly decreasing with rc(0+) large and
    rc(inf) = 0 for the boundary equation to be well posed.  ``antiderivative``
    fixes the profit level; consumers only ever need one consistent choice.
    """

    rc: Callable
    antiderivative: Optional[Callable] = None
    power_exponent: Optional[float] = None
    power_scale: Optional[float] = None


def power_marginal(scale: float, exponent: float) -> SyntheticMarginal:
    """rc(C) = scale * C^(-exponent) with its antiderivative."""
    if scale <= 0 or exponent <= 0:
        raise ValueError("power marginal needs positive scale and exponent")
    if exponent == 1.0:
        anti = lambda C: scale * np.log(C)
    else:
        anti = lambda C: scale * np.asarray(C) ** (1.0 - exponent) / (1.0 - exponent)
    return SyntheticMarginal(
        rc=lambda C: scale * np.asarray(C, dtype=float) ** (-exponent),
        antiderivative=anti,
        power_exponent=exponent,
        power_scale=scale,
    )


ProductionSpec = Union[CobbDouglas, SyntheticMarginal]


@dataclass(frozen=True)
class SaturatingExponential:
    """Scrap value G(C) = a (1 - exp(-b C)); marginal a b exp(-b C)."""

    a: float
    b: float

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0:
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
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

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


def validate(coeffs: CoefficientSet, prod: ProductionSpec, scrap: ScrapSpec,
             grid: Optional[TimeGrid] = None) -> ValidationReport:
    """Check the standing assumptions node by node.

    Hard checks gate solvability; the efficiency check only gates the
    monotonicity claims on the boundary and is reported separately.
    Raises ValueError on non-finite inputs or a degenerate grid, everything
    else lands in the report.  Side-effect free and idempotent.
    """
    from . import production as production_mod

    grid = grid or coeffs.grid
    if grid.nodes.size < 2:
        raise ValueError("grid needs at least 2 nodes")
    for name in ("mu_C", "sigma", "f_C", "mu_F", "w", "r"):
        if not np.all(np.isfinite(getattr(coeffs, name))):
            raise ValueError(f"non-finite values in coefficient '{name}'")

    checks = []
    b = coeffs.bounds

    ok = coeffs.f_C > 0
    k_f, kap_f = b.get("k_f"), b.get("kappa_f")
    if k_f is not None:
        ok &= coeffs.f_C >= k_f
    if kap_f is not None:
        ok &= coeffs.f_C <= kap_f
    ok &= (coeffs.mu_C >= 0) & (coeffs.sigma >= 0)
    checks.append(CheckResult("coefficient-bounds", bool(ok.all()),
                              "f_C positive within bounds, mu_C and sigma nonnegative",
                              _first_bad(ok)))

    ok = (coeffs.w > 0) & (coeffs.r > 0)
    for lo, hi, arr in (("k_w", "kappa_w", coeffs.w), ("k_r", "kappa_r", coeffs.r)):
        if b.get(lo) is not None:
            ok &= arr >= b[lo]
        if b.get(hi) is not None:
            ok &= arr <= b[hi]
    costs_ok = bool(ok.all())
    checks.append(CheckResult("cost-functions", costs_ok,
                              "wage and interest positive within bounds", _first_bad(ok)))

    ok = coeffs.bar_mu >= coeffs.eps_o
    checks.append(CheckResult("discount-floor", bool(ok.all()),
                              f"mu_C + mu_F >= {coeffs.eps_o:g}", _first_bad(ok)))

    prod_ok, prod_detail = _check_production(prod, coeffs, production_mod)
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


def _check_production(prod, coeffs, production_mod) -> tuple[bool, str]:
    if isinstance(prod, CobbDouglas):
        return True, "Cobb-Douglas exponents valid (checked at construction); Inada holds"
    w0, r0 = float(coeffs.w[0]), float(coeffs.r[0])
    probe = np.geomspace(1e-6, 1e6, 25)
    try:
        vals = production_mod.reduced_marginal_array(prod, probe, w0, r0)
    except Exception as exc:  # pragma: no cover - defensive
        return False, f"marginal evaluation failed: {exc}"
    if not np.all(np.isfinite(vals[1:])):
        return False, "non-finite marginal values on probe grid"
    if np.any(np.diff(vals) > 1e-12 * np.maximum(np.abs(vals[:-1]), 1.0)):
        return False, "marginal not non-increasing on probe grid"
    if vals[0] < 1e3 * max(vals[-1], 1e-300):
        return False, "marginal does not blow up toward zero capacity (Inada)"
    if vals[-1] > 1e-3 * vals[0]:
        return False, "marginal does not vanish at large capacity"
    return True, "marginal positive, decreasing on probe grid"


def _check_scrap(scrap, coeffs) -> tuple[bool, str]:
    probe = np.geomspace(1e-8, 1e8, 33)
    gp = np.asarray(scrap.marginal(probe), dtype=float)
    if np.any(gp < 0):
        return False, "scrap marginal negative"
    if np.any(np.diff(gp) > 1e-12 * np.maximum(gp[:-1], 1.0)):
        return False, "scrap marginal increasing somewhere"
    if gp[-1] > 1e-6 * max(gp[0], 1.0) + 1e-12:
        return False, "scrap marginal does not vanish at infinity"
    g0 = float(scrap.marginal(0.0))
    fT = float(coeffs.f_C[-1])
    if g0 * fT > 1.0 + 1e-12:
        return False, f"G'(0) f_C(T) = {g0 * fT:.6g} exceeds 1"
    return True, f"concave non-decreasing, G'(0) f_C(T) = {g0 * fT:.6g} <= 1"


def _check_efficiency(coeffs, prod, scrap, production_mod, costs_ok: bool):
    parts = []
    ok_sigma = coeffs.sigma_sq <= coeffs.mu_C + 1e-15
    parts.append(("sigma^2 <= mu_C", ok_sigma))
    with np.errstate(divide="ignore", invalid="ignore"):
        decay = -coeffs.f_C_prime / coeffs.f_C
    ok_decay = coeffs.bar_mu <= decay + 1e-12
    parts.append(("bar_mu <= -f_C'/f_C", ok_decay))

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

    all_ok = all(bool(np.all(m)) for _, m in parts)
    failed = [name for name, m in parts if not bool(np.all(m))]
    node = None
    for name, m in parts[:2]:
        if not bool(np.all(m)):
            node = _first_bad(np.asarray(m))
            break
    detail = "all conditions hold" if all_ok else "failing: " + ", ".join(failed)
    return all_ok, detail, node
