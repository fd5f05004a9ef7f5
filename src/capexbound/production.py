"""Reduced production profit: optimal input choice on the box and the
resulting value and marginal in capacity.

For the Cobb-Douglas technology every regime of the input choice is a power
law in capacity, so value and marginal are closed forms evaluated on whole
arrays; no numerical maximizer is involved.  Let e_L = ln L^ - ln kappa_L and
e_K = ln K^ - ln kappa_K be the log excesses of the unconstrained stationary
point (L^, K^) over the box.  The KKT regimes are

* interior: e_L <= 0 and e_K <= 0, the optimum is (L^, K^);
* L capped: L = kappa_L and K follows its edge response, below kappa_K;
* K capped: K = kappa_K and L follows its edge response, below kappa_L;
* corner: both inputs at their caps.

Outside the interior the input with the larger excess sits at its cap.  The
edge responses are power laws in C and in logs shift the interior level by
a multiple of the other input's excess, which gives the one formula in
``_cd_optimal_logs`` for all four regimes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import INADA_SENTINEL, CobbDouglas, ProductionSpec, SyntheticMarginal


class UnsupportedVariantError(TypeError):
    """The operation has no meaning for this production variant."""


@dataclass(frozen=True)
class InputChoice:
    """Optimal labour and operating capital on the admissible box."""

    L: float
    K: float


# ---------------------------------------------------------------------------
# Cobb-Douglas internals

def _cd_interior_logs(prod: CobbDouglas, C, w, r):
    """Log of the unconstrained stationary point (L, K) at capacity C > 0."""
    a, b, g = prod.alpha, prod.beta, prod.gamma
    C = np.asarray(C, dtype=float)
    w = np.asarray(w, dtype=float)
    r = np.asarray(r, dtype=float)
    lnC, lnw, lnr = np.log(C), np.log(w), np.log(r)
    rho = -math.log(a * b * g)
    denom = 1.0 - b - g
    lnL = (rho + math.log(b) + a * lnC + g * (math.log(g) - math.log(b) - lnr) + (g - 1.0) * lnw) / denom
    lnK = (rho + math.log(g) + a * lnC + b * (math.log(b) - math.log(g) - lnw) + (b - 1.0) * lnr) / denom
    return lnL, lnK


def _cd_log_excess(prod: CobbDouglas, C, w, r):
    """Interior logs and their excesses (e_L, e_K) over the box caps.

    The box binds exactly where either excess is positive; both excesses grow
    in ln C with slope alpha / (1 - beta - gamma).
    """
    lnL, lnK = _cd_interior_logs(prod, C, w, r)
    return lnL, lnK, lnL - math.log(prod.kappa_L), lnK - math.log(prod.kappa_K)


def _cd_optimal_logs(prod: CobbDouglas, C, w, r):
    """(ln L*, ln K*, binding) of the optimum on the box at capacity C > 0.

    The edge response of K at fixed L is K^ (L / L^)^(beta / (1 - gamma)), so
    with L at its cap ln K = ln K^ - beta / (1 - gamma) e_L, clipped at
    ln kappa_K; symmetrically for L.  Shifting each input by the positive
    part of the other's excess and clipping at its cap covers all four
    regimes: a capped input's shifted level is never below its cap, and an
    uncapped input's shifted level is its edge response, or its interior
    level when the other input is slack.  Interior entries keep ln L^, ln K^
    bit for bit.
    """
    b, g = prod.beta, prod.gamma
    lnL, lnK, eL, eK = _cd_log_excess(prod, C, w, r)
    binding = (eL > 0) | (eK > 0)
    if binding.any():
        lnL = np.minimum(lnL - g / (1.0 - b) * np.maximum(eK, 0.0), math.log(prod.kappa_L))
        lnK = np.minimum(lnK - b / (1.0 - g) * np.maximum(eL, 0.0), math.log(prod.kappa_K))
    return lnL, lnK, binding


def _cd_closed_form_log_marginal(prod: CobbDouglas, w, r):
    """(intercept, slope) of ln marginal = intercept + slope * ln C, interior case."""
    a, b, g = prod.alpha, prod.beta, prod.gamma
    denom = 1.0 - b - g
    lnw = np.log(np.asarray(w, dtype=float))
    lnr = np.log(np.asarray(r, dtype=float))
    intercept = (-math.log(b * g)
                 + b * (math.log(b) - math.log(a) - lnw)
                 + g * (math.log(g) - math.log(a) - lnr)) / denom
    slope = (a + b + g - 1.0) / denom
    return intercept, slope


def _rc_quadrature(prod: SyntheticMarginal, C: float) -> float:
    if C == 0.0:
        return 0.0
    u = np.linspace(1e-12 * max(C, 1.0), C, 2001)
    vals = np.asarray(prod.rc(u), dtype=float)
    return float(np.sum(0.5 * (vals[:-1] + vals[1:]) * np.diff(u)))


def _nonnegative(C) -> np.ndarray:
    C = np.asarray(C, dtype=float)
    if np.any(C < 0):
        raise ValueError("capacity must be nonnegative")
    return C


def _view(C, out):
    return out if np.ndim(C) > 0 else float(out)


# ---------------------------------------------------------------------------
# public operations

def reduced_value_array(prod: ProductionSpec, C: np.ndarray, w, r) -> np.ndarray:
    """Vectorized reduced value; ``w`` and ``r`` broadcast against ``C``.

    For the synthetic-marginal variant this is the fixed antiderivative of the
    marginal, defined up to an additive constant that no consumer depends on.
    """
    C = _nonnegative(C)
    if isinstance(prod, SyntheticMarginal):
        if prod.antiderivative is not None:
            return np.asarray(prod.antiderivative(C), dtype=float)
        return np.array([_rc_quadrature(prod, float(c)) for c in C.ravel()]).reshape(C.shape)
    a, b, g = prod.alpha, prod.beta, prod.gamma
    Cp = np.maximum(C, 1e-300)
    lnL, lnK, binding = _cd_optimal_logs(prod, Cp, w, r)
    rho = -math.log(a * b * g)
    lnR = rho + a * np.log(Cp) + b * lnL + g * lnK
    raw = np.exp(lnR)
    # interior: w L = beta R and r K = gamma R, so the value is (1-b-g) R
    out = (1.0 - b - g) * raw
    if binding.any():
        out = np.where(binding, raw - w * np.exp(lnL) - r * np.exp(lnK), out)
    return np.where(C > 0, out, 0.0)


def reduced_marginal_array(prod: ProductionSpec, C: np.ndarray, w, r) -> np.ndarray:
    """Vectorized marginal; ``w`` and ``r`` broadcast against ``C``.

    At C = 0 the Inada condition makes the value unbounded; a large sentinel
    is returned there for use in bracketing comparisons only.  Where the box
    binds the envelope theorem gives R_C at the optimal inputs.
    """
    C = _nonnegative(C)
    if isinstance(prod, SyntheticMarginal):
        return np.where(C > 0, prod.rc(np.maximum(C, 1e-300)), INADA_SENTINEL)
    a, b, g = prod.alpha, prod.beta, prod.gamma
    intercept, slope = _cd_closed_form_log_marginal(prod, w, r)
    Cp = np.maximum(C, 1e-300)
    lnC = np.log(Cp)
    out = np.exp(intercept + slope * lnC)
    lnL, lnK, binding = _cd_optimal_logs(prod, Cp, w, r)
    if binding.any():
        envelope = np.exp(-math.log(b * g) + (a - 1.0) * lnC + b * lnL + g * lnK)
        out = np.where(binding, envelope, out)
    return np.where(C > 0, np.minimum(out, INADA_SENTINEL), INADA_SENTINEL)


def optimal_inputs(prod: ProductionSpec, C: float, w: float, r: float) -> InputChoice:
    """Unique maximizer of R(C, ., .) - wL - rK on the input box."""
    if isinstance(prod, SyntheticMarginal):
        raise UnsupportedVariantError("synthetic-marginal production has no input choice")
    if _nonnegative(C) == 0.0:
        return InputChoice(0.0, 0.0)
    lnL, lnK, _ = _cd_optimal_logs(prod, C, w, r)
    # a capped input is reported as its cap, not as exp(ln cap)
    L = prod.kappa_L if lnL == math.log(prod.kappa_L) else float(np.exp(lnL))
    K = prod.kappa_K if lnK == math.log(prod.kappa_K) else float(np.exp(lnK))
    return InputChoice(float(L), float(K))


def reduced_value(prod: ProductionSpec, C, w, r):
    """Maximal profit rate at capacity C, wage w and interest r."""
    return _view(C, reduced_value_array(prod, C, w, r))


def reduced_marginal(prod: ProductionSpec, C, w, r):
    """Partial derivative of the reduced value in capacity.

    At an interior optimum this equals the raw marginal product evaluated at
    the optimal inputs, which for Cobb-Douglas collapses to a closed form.
    """
    return _view(C, reduced_marginal_array(prod, C, w, r))


def power_marginal_form(prod: ProductionSpec, w, r):
    """Power-law representation of the capacity marginal, when one exists.

    Returns (scale, exponent, capacity_cap) with marginal = scale * C^exponent
    valid for C below capacity_cap (the level where the input box starts to
    bind), or None when the marginal is not a pure power in capacity.
    ``scale`` and ``capacity_cap`` broadcast against ``w`` and ``r``.
    """
    if isinstance(prod, SyntheticMarginal):
        if prod.power_exponent is None:
            return None
        shape = np.broadcast(np.asarray(w, float), np.asarray(r, float)).shape
        scale = np.broadcast_to(float(prod.power_scale), shape)
        cap = np.broadcast_to(np.inf, shape)
        return scale, -float(prod.power_exponent), cap
    intercept, slope = _cd_closed_form_log_marginal(prod, w, r)
    # the excesses at C = 1 are affine offsets in ln C; the box binds once
    # the larger of them reaches zero
    _, _, eL, eK = _cd_log_excess(prod, 1.0, w, r)
    s = prod.alpha / (1.0 - prod.beta - prod.gamma)
    return np.exp(intercept), slope, np.exp(-np.maximum(eL, eK) / s)
