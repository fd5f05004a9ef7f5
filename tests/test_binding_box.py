"""Binding input box end to end: the closed-form regimes reproduce the curve
solved with the former scalar KKT code, and the package runs without scipy."""

import json
import os
import subprocess
import sys
import textwrap

import numpy as np

from capexbound import cli
from capexbound.artifacts import read_boundary_csv

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REFERENCE = os.path.join(ROOT, "perfbench", "reference", "cd_box_seed0.csv")

# the README model with a box that binds along the whole curve
CD_BOX = {
    "grid": {"T": 1.0, "N": 8},
    "coefficients": {"mu_C": 0.1, "sigma": 0.2, "f_C": 1.0,
                     "mu_F": 0.05, "w": 1.0, "r": 1.0},
    "production": {"variant": "cobb_douglas", "alpha": 0.25, "beta": 0.25,
                   "gamma": 0.25, "kappa_L": 100.0, "kappa_K": 100.0},
    "scrap": {"variant": "saturating_exponential", "a": 0.5, "b": 1.0},
    "tolerances": {"tol_y": 1e-4, "tol_y_det": 1e-9, "cross_gap": 0.10},
    "mc": {"paths": 500, "seed": 0, "antithetic": True},
}


def test_binding_box_matches_reference_curve(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(CD_BOX))
    out = str(tmp_path / "run")
    assert cli.main(["solve", "--config", str(cfg), "--out", out]) == 0
    got = read_boundary_csv(os.path.join(out, "boundary.csv"))
    # the reference header carries the hash of an older hashing scheme, so
    # only the grid and the curve are compared
    ref = read_boundary_csv(REFERENCE)
    assert np.array_equal(got.t, ref.t)
    dev = float(np.max(np.abs(got.yhat / ref.yhat - 1.0)))
    assert dev <= 2 * CD_BOX["tolerances"]["tol_y"]


def test_runs_without_scipy():
    script = textwrap.dedent("""
        import sys
        sys.modules["scipy"] = None  # any scipy import now raises ImportError
        from capexbound import (CobbDouglas, CoefficientSet, McConfig,
                                SaturatingExponential, TimeGrid, solve_boundary, validate)
        grid = TimeGrid.uniform(1.0, 4)
        coeffs = CoefficientSet.build(grid, mu_C=0.1, sigma=0.2, f_C=1.0, mu_F=0.05, w=1.0, r=1.0)
        prod = CobbDouglas(0.25, 0.25, 0.25, kappa_L=100.0, kappa_K=100.0)
        scrap = SaturatingExponential(0.5, 1.0)
        assert validate(coeffs, prod, scrap).hard_ok
        curve = solve_boundary(coeffs, prod, scrap, mc=McConfig(n_paths=200, seed=0))
        assert (curve.values > 0).all()
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
