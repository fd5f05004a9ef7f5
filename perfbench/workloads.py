"""Benchmark workloads: configs, extra CLI flags and output checks.

Every workload is a fixed config; the run's seed reaches the program only
through each command's ``--seed``.  A check returns a list of problems, empty
when the command's outputs are correct.
"""

from __future__ import annotations

import copy
import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")
# seed at which the stochastic curves are compared with the committed ones
REFERENCE_SEED = 0
# two root finders that each stop within tol_rel/2 of the frozen-batch root
# can disagree by tol_rel; the factor 2 leaves room for propagation through
# the later nodes each residual depends on
REFERENCE_TOL_FACTOR = 2.0
# closed form: absolute error allowed per unit of the deterministic tolerance
CLOSED_FORM_TOL_FACTOR = 10.0
# the tracking policy must not lose to a benchmark plan by more than this
# many standard errors
DOMINANCE_SE = 3.0

README_CONFIG = {
    "grid": {"T": 1.0, "N": 100},
    "coefficients": {"mu_C": 0.1, "sigma": 0.2, "f_C": 1.0,
                     "mu_F": 0.05, "w": 1.0, "r": 1.0},
    "production": {"variant": "cobb_douglas", "alpha": 0.25, "beta": 0.25,
                   "gamma": 0.25, "kappa_L": 1e6, "kappa_K": 1e6},
    "scrap": {"variant": "saturating_exponential", "a": 0.5, "b": 1.0},
    "tolerances": {"tol_y": 1e-4, "tol_y_det": 1e-9, "cross_gap": 0.10},
    "mc": {"paths": 20000, "seed": 0, "antithetic": True},
}


def _binding_box_config():
    cfg = copy.deepcopy(README_CONFIG)
    cfg["grid"]["N"] = 8
    cfg["mc"]["paths"] = 500
    cfg["production"]["kappa_L"] = 100.0
    cfg["production"]["kappa_K"] = 100.0
    return cfg


CLOSED_FORM_CONFIG = {
    "grid": {"T": 1.0, "N": 2000},
    "coefficients": {"mu_C": 0.0, "sigma": 0.0, "f_C": 1.0,
                     "mu_F": 1.0, "w": 1.0, "r": 1.0},
    "production": {"variant": "power_marginal", "scale": 1.0, "exponent": 1.0},
    "scrap": {"variant": "zero"},
    "tolerances": {"tol_y": 1e-4, "tol_y_det": 1e-9, "cross_gap": 0.10},
    # sigma = 0 makes every path identical; the CLI still simulates
    # mc.paths of them, so the default 20000 would cost gigabytes at N=2000
    "mc": {"paths": 2, "seed": 0, "antithetic": True},
}


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    solve_flags: tuple = ()
    reference: Optional[str] = None  # committed boundary.csv at REFERENCE_SEED
    closed_form: bool = False

    @property
    def n_steps(self) -> int:
        return int(self.config["grid"]["N"])

    def with_steps(self, n_steps: int) -> "Workload":
        cfg = copy.deepcopy(self.config)
        cfg["grid"]["N"] = int(n_steps)
        return Workload(self.name, cfg, self.solve_flags, None, self.closed_form)


WORKLOADS = {
    "cd_mc": Workload("cd_mc", README_CONFIG, reference="cd_mc_seed0.csv"),
    "cd_box": Workload("cd_box", _binding_box_config(), reference="cd_box_seed0.csv"),
    "closed_form": Workload("closed_form", CLOSED_FORM_CONFIG,
                            solve_flags=("--allow-zero-scrap",), closed_form=True),
}


# ---------------------------------------------------------------------------
# output readers


def read_curve(path: str):
    """(t, yhat, iters) columns of a boundary.csv, header comments skipped."""
    with open(path) as fh:
        rows = [line for line in fh if line.strip() and not line.startswith("#")]
    table = list(csv.DictReader(rows))
    t = np.array([float(r["t"]) for r in table])
    yhat = np.array([float(r["yhat"]) for r in table])
    iters = np.array([int(r["iters"]) for r in table])
    return t, yhat, iters


def _csv_rows(path: str) -> int:
    with open(path) as fh:
        return sum(1 for line in fh if line.strip()) - 1


def _read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# checks, one per command


def check_solve(wl: Workload, out: str, seed: int) -> list:
    path = os.path.join(out, "boundary.csv")
    try:
        t, yhat, _ = read_curve(path)
    except (OSError, ValueError, KeyError) as exc:
        return [f"solve: unreadable boundary.csv ({exc})"]
    cfg = wl.config
    grid = cfg["grid"]
    problems = []
    if yhat.size != wl.n_steps:
        return [f"solve: {yhat.size} nodes, expected {wl.n_steps}"]
    if not np.all(np.isfinite(yhat)) or np.any(yhat <= 0):
        problems.append("solve: boundary not finite and positive")
    if wl.closed_form:
        truth = 1.0 - np.exp(-(grid["T"] - t))
        err = float(np.max(np.abs(yhat - truth)))
        bound = CLOSED_FORM_TOL_FACTOR * cfg["tolerances"]["tol_y_det"]
        if not err <= bound:
            problems.append(f"solve: closed-form error {err:.3g} above {bound:.3g}")
    if wl.reference is not None and seed == REFERENCE_SEED:
        _, ref, _ = read_curve(os.path.join(REFERENCE_DIR, wl.reference))
        dev = float(np.max(np.abs(yhat / ref - 1.0)))
        bound = REFERENCE_TOL_FACTOR * cfg["tolerances"]["tol_y"]
        if not dev <= bound:
            problems.append(f"solve: curve deviates {dev:.3g} from the reference "
                            f"(bound {bound:.3g})")
    return problems


def check_simulate(wl: Workload, out: str) -> list:
    try:
        summary = _read_json(os.path.join(out, "manifest.json"))["summary"]
        rows = _csv_rows(os.path.join(out, "controls.csv"))
    except (OSError, ValueError, KeyError) as exc:
        return [f"simulate: unreadable outputs ({exc})"]
    problems = []
    n_paths = wl.config["mc"]["paths"]
    expected = min(100, n_paths + n_paths % 2) * (wl.n_steps + 1)
    if rows != expected:
        problems.append(f"simulate: controls.csv has {rows} rows, expected {expected}")
    j_opt, se_opt = summary["J_opt"], summary["J_opt_se"]
    for alt in ("J_zero", "J_const_rate"):
        margin = DOMINANCE_SE * (se_opt + summary[f"{alt}_se"])
        if not (math.isfinite(j_opt) and j_opt + margin >= summary[alt]):
            problems.append(f"simulate: tracking policy {j_opt:.6g} loses to {alt} "
                            f"{summary[alt]:.6g}")
    return problems


def check_verify(wl: Workload, out: str) -> list:
    try:
        report = _read_json(os.path.join(out, "report.json"))
    except (OSError, ValueError) as exc:
        return [f"verify: unreadable report.json ({exc})"]
    gap = report["checks"]["cross_validation"]["sup_rel_gap"]
    bound = wl.config["tolerances"]["cross_gap"]
    if not gap <= bound:
        return [f"verify: cross-validation gap {gap:.3g} above {bound:.3g}"]
    return []


def check_oracle(wl: Workload, out: str) -> list:
    try:
        gap = _read_json(os.path.join(out, "report.json"))["summary"]["shadow_value_max_rel_gap"]
        rows = _csv_rows(os.path.join(out, "dp_boundary.csv"))
    except (OSError, ValueError, KeyError) as exc:
        return [f"oracle: unreadable outputs ({exc})"]
    problems = []
    if rows != wl.n_steps:
        problems.append(f"oracle: dp_boundary.csv has {rows} rows, expected {wl.n_steps}")
    if not math.isfinite(gap):
        problems.append("oracle: shadow-value gap is not finite")
    return problems
