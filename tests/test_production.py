import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from capexbound.model import CobbDouglas, power_marginal
from capexbound.production import (
    UnsupportedVariantError,
    optimal_inputs,
    power_marginal_form,
    reduced_marginal_array,
    reduced_value_array,
)

CD = CobbDouglas(0.25, 0.25, 0.25, kappa_L=1e6, kappa_K=1e6)


def grid_max(raw, C, w, r, span, levels=4, n=241):
    """Brute-force oracle: zooming grid maximization of R - wL - rK."""
    lo_L, hi_L = 0.0, span
    lo_K, hi_K = 0.0, span
    best = (0.0, 0.0, raw(C, 0.0, 0.0))
    for _ in range(levels):
        L = np.linspace(lo_L, hi_L, n)
        K = np.linspace(lo_K, hi_K, n)
        LL, KK = np.meshgrid(L, K, indexing="ij")
        vals = raw(C, LL, KK) - w * LL - r * KK
        i, j = np.unravel_index(np.argmax(vals), vals.shape)
        best = (L[i], K[j], vals[i, j])
        dL = (hi_L - lo_L) / (n - 1)
        dK = (hi_K - lo_K) / (n - 1)
        lo_L, hi_L = max(0.0, L[i] - 2 * dL), min(span, L[i] + 2 * dL)
        lo_K, hi_K = max(0.0, K[j] - 2 * dK), min(span, K[j] + 2 * dK)
    return best


def _edge_K(prod, C, L, r):
    """Maximizer over K at fixed L (before clipping): R_K = r."""
    a, b, g = prod.alpha, prod.beta, prod.gamma
    return (g / (a * b * g) * C ** a * L ** b / r) ** (1.0 / (1.0 - g))


def _edge_L(prod, C, K, w):
    """Maximizer over L at fixed K (before clipping): R_L = w."""
    a, b, g = prod.alpha, prod.beta, prod.gamma
    return (b / (a * b * g) * C ** a * K ** g / w) ** (1.0 / (1.0 - b))


def kkt_oracle(prod, C, w, r):
    """Scalar KKT reference: (L, K, value, marginal) at capacity C > 0.

    The unconstrained stationary point comes from w L = beta R, r K = gamma R;
    when it leaves the box, the best of the clipped edges and the corner wins.
    """
    a, b, g = prod.alpha, prod.beta, prod.gamma
    R_hat = ((1.0 / (a * b * g)) * C ** a * (b / w) ** b * (g / r) ** g) ** (1.0 / (1.0 - b - g))
    L_hat, K_hat = b * R_hat / w, g * R_hat / r
    if L_hat <= prod.kappa_L and K_hat <= prod.kappa_K:
        best = (L_hat, K_hat)
    else:
        candidates = [(prod.kappa_L, prod.kappa_K)]
        if L_hat > prod.kappa_L:
            candidates.append((prod.kappa_L, min(_edge_K(prod, C, prod.kappa_L, r), prod.kappa_K)))
        if K_hat > prod.kappa_K:
            candidates.append((min(_edge_L(prod, C, prod.kappa_K, w), prod.kappa_L), prod.kappa_K))
        best = max(candidates, key=lambda lk: prod.raw(C, *lk) - w * lk[0] - r * lk[1])
    L, K = best
    value = float(prod.raw(C, L, K) - w * L - r * K)
    marginal = float(a * prod.raw(C, L, K) / C)
    return L, K, value, marginal


def assert_matches_oracle(prod, C, w, r, rel=1e-12):
    L, K, value, marginal = kkt_oracle(prod, C, w, r)
    lk = optimal_inputs(prod, C, w, r)
    assert lk.L == pytest.approx(L, rel=rel)
    assert lk.K == pytest.approx(K, rel=rel)
    Cs = np.array([C, 0.5 * C, 2.0 * C])
    vals = reduced_value_array(prod, Cs, w, r)
    margs = reduced_marginal_array(prod, Cs, w, r)
    assert vals[0] == pytest.approx(value, rel=rel)
    assert margs[0] == pytest.approx(marginal, rel=rel)
    for c, v, m in zip(Cs[1:], vals[1:], margs[1:]):
        _, _, v_ref, m_ref = kkt_oracle(prod, float(c), w, r)
        assert v == pytest.approx(v_ref, rel=rel)
        assert m == pytest.approx(m_ref, rel=rel)
    return L, K


class TestBoxRegimes:
    """The closed-form regimes against the scalar KKT reference."""

    @pytest.mark.parametrize("kappa_L, kappa_K, capped", [
        (1e6, 1e6, (False, False)),   # interior: L = K = 256
        (100.0, 1e6, (True, False)),  # L capped, K on its edge
        (1e6, 100.0, (False, True)),  # K capped, L on its edge
        (100.0, 100.0, (True, True)),  # corner
    ])
    def test_each_regime(self, kappa_L, kappa_K, capped):
        prod = CobbDouglas(0.25, 0.25, 0.25, kappa_L=kappa_L, kappa_K=kappa_K)
        L, K = assert_matches_oracle(prod, 1.0, 1.0, 1.0)
        assert (L == kappa_L, K == kappa_K) == capped

    @pytest.mark.parametrize("kappa_L, kappa_K", [(50.0, 400.0), (400.0, 50.0)])
    def test_power_form_cap_is_binding_edge(self, kappa_L, kappa_K):
        prod = CobbDouglas(0.2, 0.3, 0.15, kappa_L=kappa_L, kappa_K=kappa_K)
        w, r = 1.3, 0.7
        scale, q, cap = power_marginal_form(prod, w, r)
        below, above = float(cap) * (1 - 1e-9), float(cap) * (1 + 1e-9)
        lk = optimal_inputs(prod, below, w, r)
        assert lk.L < kappa_L and lk.K < kappa_K
        assert reduced_marginal_array(prod, below, w, r) == pytest.approx(scale * below ** q,
                                                                          rel=1e-12)
        lk = optimal_inputs(prod, above, w, r)
        assert lk.L == kappa_L or lk.K == kappa_K

    def test_small_alpha_edge_in_log_space(self):
        # the capacity where the box binds is exp(~ -1e3) here; in linear
        # space both candidate caps underflow to zero
        prod = CobbDouglas(1e-3, 0.3, 0.3, kappa_L=2.0, kappa_K=1.0)
        assert_matches_oracle(prod, 1.0, 1.0, 1.0)

    @settings(max_examples=300, deadline=None)
    @given(a=st.floats(0.02, 0.6), b=st.floats(0.02, 0.6), g=st.floats(0.02, 0.6),
           ln_kL=st.floats(-3.0, 8.0), ln_kK=st.floats(-3.0, 8.0),
           ln_w=st.floats(-2.0, 2.0), ln_r=st.floats(-2.0, 2.0), ln_C=st.floats(-4.0, 6.0))
    def test_matches_scalar_kkt(self, a, b, g, ln_kL, ln_kK, ln_w, ln_r, ln_C):
        if a + b + g >= 0.97:
            a, b, g = (0.97 * x / (a + b + g) for x in (a, b, g))
        prod = CobbDouglas(a, b, g, kappa_L=math.exp(ln_kL), kappa_K=math.exp(ln_kK))
        assert_matches_oracle(prod, math.exp(ln_C), math.exp(ln_w), math.exp(ln_r))


class TestReducedValue:
    def test_zero_capacity(self):
        assert reduced_value_array(CD, 0.0, 1.0, 1.0) == 0.0
        lk = optimal_inputs(CD, 0.0, 1.0, 1.0)
        assert (lk.L, lk.K) == (0.0, 0.0)

    def test_against_grid_oracle(self):
        # interior optimum at L = K = 256 for C = 1, w = r = 1
        val = reduced_value_array(CD, 1.0, 1.0, 1.0)
        _, _, oracle = grid_max(CD.raw, 1.0, 1.0, 1.0, span=1000.0)
        assert val == pytest.approx(oracle, rel=1e-5)

    def test_interior_stationarity(self):
        lk = optimal_inputs(CD, 1.3, 0.9, 1.4)
        h = 1e-5
        gL = (CD.raw(1.3, lk.L + h, lk.K) - CD.raw(1.3, lk.L - h, lk.K)) / (2 * h)
        gK = (CD.raw(1.3, lk.L, lk.K + h) - CD.raw(1.3, lk.L, lk.K - h)) / (2 * h)
        assert gL == pytest.approx(0.9, rel=1e-8)
        assert gK == pytest.approx(1.4, rel=1e-8)

    def test_maximizer_against_grid(self):
        lk = optimal_inputs(CD, 1.0, 1.0, 1.0)
        L_g, K_g, _ = grid_max(CD.raw, 1.0, 1.0, 1.0, span=1000.0, levels=1, n=2000)
        step = 1000.0 / 1999
        assert abs(lk.L - L_g) <= step
        assert abs(lk.K - K_g) <= step

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            reduced_value_array(CD, -1.0, 1.0, 1.0)

    def test_box_binding_matches_oracle(self):
        tight = CobbDouglas(0.25, 0.25, 0.25, kappa_L=100.0, kappa_K=100.0)
        val = reduced_value_array(tight, 1.0, 1.0, 1.0)
        _, _, oracle = grid_max(tight.raw, 1.0, 1.0, 1.0, span=100.0)
        assert val == pytest.approx(oracle, rel=1e-6)
        lk = optimal_inputs(tight, 1.0, 1.0, 1.0)
        assert lk.L == pytest.approx(100.0)


class TestReducedMarginal:
    def test_closed_form_anchor(self):
        # alpha = beta = gamma = 1/4, w = r = 1, C = 1: the closed form is 16^2
        assert reduced_marginal_array(CD, 1.0, 1.0, 1.0) == pytest.approx(256.0, rel=1e-12)

    def test_finite_difference_of_value(self):
        h = 1e-4
        fd = (reduced_value_array(CD, 1.0 + h, 1.0, 1.0)
              - reduced_value_array(CD, 1.0 - h, 1.0, 1.0)) / (2 * h)
        assert reduced_marginal_array(CD, 1.0, 1.0, 1.0) == pytest.approx(fd, rel=1e-4)

    def test_synthetic_direct(self):
        sm = power_marginal(1.0, 1.0)
        assert reduced_marginal_array(sm, 2.0, 1.0, 1.0) == pytest.approx(0.5)

    def test_strictly_decreasing_in_capacity(self):
        assert reduced_marginal_array(CD, 2.0, 1.0, 1.0) < reduced_marginal_array(CD, 1.0, 1.0, 1.0)

    def test_envelope_identity_interior(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            C = rng.uniform(0.3, 3.0)
            w = rng.uniform(0.5, 2.0)
            r = rng.uniform(0.5, 2.0)
            lk = optimal_inputs(CD, C, w, r)
            a, b, g = CD.alpha, CD.beta, CD.gamma
            raw_marginal = (1.0 / (a * b * g)) * a * C ** (a - 1) * lk.L ** b * lk.K ** g
            assert reduced_marginal_array(CD, C, w, r) == pytest.approx(raw_marginal, rel=1e-6)

    def test_inada_blowup(self):
        vals = [reduced_marginal_array(CD, 10.0 ** -k, 1.0, 1.0) for k in range(1, 12)]
        assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))
        assert vals[-1] > 1e6

    def test_inputs_unsupported_for_synthetic(self):
        with pytest.raises(UnsupportedVariantError):
            optimal_inputs(power_marginal(1.0, 1.0), 1.0, 1.0, 1.0)

    def test_array_matches_scalar(self):
        C = np.array([0.5, 1.0, 2.0, 7.0])
        arr = reduced_marginal_array(CD, C, 1.1, 0.9)
        sca = [reduced_marginal_array(CD, c, 1.1, 0.9) for c in C]
        assert np.allclose(arr, sca, rtol=1e-12)


class TestShapeProperties:
    def test_strict_concavity_in_capacity(self):
        rng = np.random.default_rng(2)
        C1 = rng.uniform(0.05, 5.0, 200)
        C2 = rng.uniform(0.05, 5.0, 200)
        keep = np.abs(C1 - C2) > 1e-3
        C1, C2 = C1[keep], C2[keep]
        mid = reduced_value_array(CD, 0.5 * (C1 + C2), 1.0, 1.0)
        avg = 0.5 * (reduced_value_array(CD, C1, 1.0, 1.0) + reduced_value_array(CD, C2, 1.0, 1.0))
        assert np.all(mid > avg - 1e-12)

    def test_convexity_in_costs(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            w1, w2 = rng.uniform(0.5, 2.0, 2)
            r0 = rng.uniform(0.5, 2.0)
            mid = reduced_value_array(CD, 1.0, 0.5 * (w1 + w2), r0)
            avg = 0.5 * (reduced_value_array(CD, 1.0, w1, r0)
                         + reduced_value_array(CD, 1.0, w2, r0))
            assert mid <= avg + 1e-9
            r1, r2 = rng.uniform(0.5, 2.0, 2)
            w0 = rng.uniform(0.5, 2.0)
            mid = reduced_value_array(CD, 1.0, w0, 0.5 * (r1 + r2))
            avg = 0.5 * (reduced_value_array(CD, 1.0, w0, r1)
                         + reduced_value_array(CD, 1.0, w0, r2))
            assert mid <= avg + 1e-9

    def test_synthetic_antiderivative_consistency(self):
        sm = power_marginal(0.5, 2.0)
        h = 1e-5
        fd = (reduced_value_array(sm, 2.0 + h, 1, 1)
              - reduced_value_array(sm, 2.0 - h, 1, 1)) / (2 * h)
        assert fd == pytest.approx(reduced_marginal_array(sm, 2.0, 1, 1), rel=1e-8)
