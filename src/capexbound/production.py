"""Reduced production profit: optimal input choice on the box and the
resulting value and marginal in capacity.

For the Cobb-Douglas technology the optimal revenue R*(C) is the minimum of
four power laws in capacity, one per KKT regime of the input choice:
interior, labour capped at kappa_L, capital capped at kappa_K, and the
corner.  At the optimum L* = min(beta R*/w, kappa_L) and
K* = min(gamma R*/r, kappa_K), so ln R* is the fixed point of
x = a ln C + b min(ln(beta/w) + x, ln kappa_L) + g min(ln(gamma/r) + x,
ln kappa_K) - ln(alpha beta gamma).  Its right side is the minimum of four
affine maps of x with slopes below one, and the fixed point of such a
minimum is the minimum of their fixed points.  By the envelope theorem the
marginal is alpha R*/C, so its log is the minimum of four lines in ln C.
The interior line alone holds below the first break, the capacity where
either input reaches its cap.  Everything else follows from R*: the inputs
above, the value R* - w L* - r K* and the marginal.  No numerical maximizer
is involved, and every operation runs on whole arrays.
"""

from __future__ import annotations

import itertools
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

def _cd_lines(prod: CobbDouglas, w, r) -> list:
    """(intercept, slope) of ln marginal in ln C per KKT regime, interior first.

    A free input enters through its stationarity condition, a capped one
    through its cap; the intercepts broadcast against ``w`` and ``r``.
    """
    a, b, g = prod.alpha, prod.beta, prod.gamma
    lnw = np.log(np.asarray(w, dtype=float))
    lnr = np.log(np.asarray(r, dtype=float))
    # (term in the intercept, exponent left free) for each input, free first
    labour = ((b * (math.log(b) - math.log(a) - lnw), b), (b * math.log(prod.kappa_L), 0.0))
    capital = ((g * (math.log(g) - math.log(a) - lnr), g), (g * math.log(prod.kappa_K), 0.0))
    lines = []
    for (term_L, free_b), (term_K, free_g) in itertools.product(labour, capital):
        denom = 1.0 - free_b - free_g
        lines.append(((-math.log(b * g) + term_L + term_K) / denom,
                      (a + free_b + free_g - 1.0) / denom))
    return lines


def _first_break(lines: list):
    """ln C where the interior line, whose slope is the largest, first meets
    a capped one."""
    c0, s0 = lines[0]
    return np.min([(c - c0) / (s0 - s) for c, s in lines[1:]], axis=0)


def _cd_log_marginal(prod: CobbDouglas, lnC, w, r):
    """ln of the marginal: the interior line, lowered to the minimum of all
    four only when some entry lies past the first break."""
    lines = _cd_lines(prod, w, r)
    c0, s0 = lines[0]
    out = c0 + s0 * lnC
    if np.any(lnC > _first_break(lines)):
        for c, s in lines[1:]:
            out = np.minimum(out, c + s * lnC)
    return out


def _cd_revenue(prod: CobbDouglas, C, w, r):
    """Optimal revenue R* = C m* / alpha; a zero capacity is evaluated at
    1e-300, and callers mask it."""
    lnC = np.log(np.maximum(C, 1e-300))
    return np.exp(_cd_log_marginal(prod, lnC, w, r) + lnC) / prod.alpha


def _nonnegative(C) -> np.ndarray:
    C = np.asarray(C, dtype=float)
    if np.any(C < 0):
        raise ValueError("capacity must be nonnegative")
    return C


# ---------------------------------------------------------------------------
# public operations

def reduced_value_array(prod: ProductionSpec, C: np.ndarray, w, r) -> np.ndarray:
    """Maximal profit rate at capacity C, wage w and interest r, elementwise;
    ``w`` and ``r`` broadcast against ``C``.

    For the synthetic-marginal variant this is the fixed antiderivative of the
    marginal, defined up to an additive constant that no consumer depends on.
    """
    C = _nonnegative(C)
    if isinstance(prod, SyntheticMarginal):
        return np.asarray(prod.value(C), dtype=float)
    R = _cd_revenue(prod, C, w, r)
    # w L* = min(beta R*, w kappa_L), and likewise for capital
    out = (R - np.minimum(prod.beta * R, w * prod.kappa_L)
           - np.minimum(prod.gamma * R, r * prod.kappa_K))
    return np.where(C > 0, out, 0.0)


def reduced_marginal_array(prod: ProductionSpec, C: np.ndarray, w, r) -> np.ndarray:
    """Partial derivative of the reduced value in capacity, alpha R*/C for
    Cobb-Douglas by the envelope theorem; ``w`` and ``r`` broadcast against ``C``.

    At C = 0 the Inada condition makes the value unbounded; a large sentinel
    is returned there for use in bracketing comparisons only.
    """
    C = _nonnegative(C)
    if isinstance(prod, SyntheticMarginal):
        return np.where(C > 0, prod.marginal(np.maximum(C, 1e-300)), INADA_SENTINEL)
    out = np.exp(_cd_log_marginal(prod, np.log(np.maximum(C, 1e-300)), w, r))
    return np.where(C > 0, np.minimum(out, INADA_SENTINEL), INADA_SENTINEL)


def optimal_inputs(prod: ProductionSpec, C: float, w: float, r: float) -> InputChoice:
    """Unique maximizer of R(C, ., .) - wL - rK on the input box."""
    if isinstance(prod, SyntheticMarginal):
        raise UnsupportedVariantError("synthetic-marginal production has no input choice")
    if _nonnegative(C) == 0.0:
        return InputChoice(0.0, 0.0)
    R = float(_cd_revenue(prod, C, w, r))
    # min returns a capped input as its cap exactly
    return InputChoice(float(min(prod.beta * R / w, prod.kappa_L)),
                       float(min(prod.gamma * R / r, prod.kappa_K)))


def power_marginal_form(prod: ProductionSpec, w, r):
    """Power-law representation of the capacity marginal near zero capacity.

    Returns (scale, exponent, capacity_cap) with marginal = scale * C^exponent
    for C up to capacity_cap: the first break of the Cobb-Douglas regimes,
    where the input box starts to bind, and infinity for a synthetic
    marginal.  ``scale`` and ``capacity_cap`` broadcast against ``w`` and
    ``r``.
    """
    if isinstance(prod, SyntheticMarginal):
        shape = np.broadcast(np.asarray(w, float), np.asarray(r, float)).shape
        scale = np.broadcast_to(float(prod.power_scale), shape)
        cap = np.broadcast_to(np.inf, shape)
        return scale, -float(prod.power_exponent), cap
    lines = _cd_lines(prod, w, r)
    intercept, slope = lines[0]
    return np.exp(intercept), slope, np.exp(_first_break(lines))
