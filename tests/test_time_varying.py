"""Internal-consistency checks on an instance with genuinely time-varying
coefficients, exercising the interpolated-rate and per-column code paths
that constant-coefficient instances leave idle."""

import numpy as np
import pytest

import capexbound as cb
from capexbound.boundary import McConfig
from capexbound.verify import Lattice, check_foc, cross_validate, dp_stopping_value


@pytest.fixture(scope="module")
def varying():
    grid = cb.TimeGrid.uniform(1.0, 40)
    coeffs = cb.CoefficientSet.build(
        grid,
        mu_C=lambda t: 0.08 + 0.06 * t,
        sigma=lambda t: 0.15 + 0.10 * t,
        f_C=lambda t: 0.9 - 0.2 * t,
        mu_F=lambda t: 0.04 + 0.03 * (1.0 - t),
        w=lambda t: 1.0 + 0.3 * t,
        r=lambda t: 1.2 - 0.3 * t,
    )
    prod = cb.CobbDouglas(0.3, 0.3, 0.2)
    scrap = cb.SaturatingExponential(0.4, 0.8)
    rep = cb.validate(coeffs, prod, scrap)
    assert rep.hard_ok, str(rep)
    curve = cb.solve_boundary(coeffs, prod, scrap, mc=McConfig(n_paths=8000, seed=31))
    return dict(grid=grid, coeffs=coeffs, prod=prod, scrap=scrap, curve=curve)


def test_residual_audit(varying):
    curve = varying["curve"]
    z = np.abs(curve.residual) / np.maximum(curve.combined_se, 1e-300)
    assert np.all(curve.values > 0)
    assert float(np.max(z)) <= 3.0


def test_public_residual_consistent_with_solver(varying):
    v = varying
    i = 10
    batch = cb.simulate(v["coeffs"], 8000, cb.MEASURE_Q, seed=77)
    val, se = cb.residual(i, float(v["curve"].values[i]), v["curve"].values[i + 1:],
                          batch, v["coeffs"], v["prod"], v["scrap"])
    combined = np.hypot(se, v["curve"].solver_se[i])
    assert abs(val) <= 3.0 * combined


def test_foc_holds(varying):
    v = varying
    batch = cb.simulate(v["coeffs"], 12000, cb.MEASURE_P, seed=32)
    y0 = float(v["curve"].values[0])
    rep = check_foc(v["curve"], [0.6 * y0, 1.8 * y0], v["coeffs"], v["prod"],
                    v["scrap"], batch)
    assert rep.passed, str(rep)


def test_lattice_oracle_agrees(varying):
    v = varying
    lat = Lattice.geometric(v["grid"], float(v["curve"].values.min()) / 8.0,
                            float(v["curve"].values.max()) * 4.0, 200)
    sdp = dp_stopping_value(v["coeffs"], v["prod"], v["scrap"], lat)
    rep = cross_validate(v["curve"], sdp)
    assert rep.sup_rel_gap <= 0.15


def test_fast_path_matches_generic_per_column_scales(varying):
    # time-varying wage and interest give every column its own marginal
    # scale; the record-block evaluator must agree with the dense route
    from capexbound.boundary import _BatchResidual, _NodeResidual
    v = varying
    cp = cb.simulate(v["coeffs"], 500, cb.MEASURE_Q, seed=5).values
    values = v["curve"].values
    ev = _BatchResidual(v["coeffs"], v["prod"], v["scrap"], np.ascontiguousarray(cp.T), True)
    for i in range(v["grid"].n_steps - 1, -1, -1):
        ev.at(i, values[i + 1:])
        if i != 7:
            continue
        assert ev.blocks_on and ev.dense is None
        dense = _NodeResidual(v["coeffs"], v["prod"], v["scrap"], i, cp, values[i + 1:], True)
        for b in (0.5 * values[i], values[i], 2.0 * values[i]):
            assert np.allclose(ev.per_path(float(b)), dense.per_path(float(b)), rtol=1e-11)
        assert ev.dense is None
