"""Deterministic artifact emission: CSV rows formatted with ``'%.17g'``, 17
significant digits that round-trip every double, and a JSON run manifest.
On one machine output bytes depend only on the config, seeds and flags,
never on timing or worker count; numpy's SIMD kernels differ between CPUs
and can move the last digits.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .boundary import BoundaryCurve
from .model import TimeGrid


def _write_lines(path: str, lines: list) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_boundary_csv(path: str, curve: BoundaryCurve, model_hash: str, seed: int) -> None:
    columns = (curve.grid.nodes[:-1], curve.values, curve.residual, curve.residual_se,
               curve.iters, curve.solver_se, curve.value_se)
    rows = zip(*(col.tolist() for col in columns))
    _write_lines(path, [f"# model_hash={model_hash}", f"# seed={seed}",
                        "t,yhat,residual,residual_se,iters,solver_se,value_se"]
                 + ["%.17g,%.17g,%.17g,%.17g,%d,%.17g,%.17g" % row for row in rows])


def write_dp_boundary_csv(path: str, grid: TimeGrid, stopping: np.ndarray,
                          value: np.ndarray) -> None:
    """The contact boundaries of the stopping-value and control-value DPs."""
    rows = zip(grid.nodes[:-1].tolist(), stopping.tolist(), value.tolist())
    _write_lines(path, ["t,yhat_stopping,yhat_value"] + ["%.17g,%.17g,%.17g" % row for row in rows])


class BoundaryFileError(ValueError):
    """A boundary file is missing, malformed, or belongs to another model or grid."""


class BoundaryFile:
    def __init__(self, t, yhat, residual, residual_se, iters, solver_se, value_se,
                 model_hash, seed):
        self.t = t
        self.yhat = yhat
        self.residual = residual
        self.residual_se = residual_se
        self.iters = iters
        self.solver_se = solver_se
        self.value_se = value_se
        self.model_hash = model_hash
        self.seed = seed


def read_boundary_csv(path: str) -> BoundaryFile:
    """The curve's columns; files older than ``solver_se`` and ``value_se``
    read them as zeros."""
    meta = {}
    header = []
    rows = []
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    key, _, val = line[1:].strip().partition("=")
                    meta[key.strip()] = val.strip()
                elif line.startswith("t,"):
                    header = line.split(",")
                else:
                    rows.append(line.split(","))
        data = np.asarray(rows, dtype=float)
        t, yhat, residual, residual_se, iters = (data[:, k] for k in range(5))
        solver_se, value_se = (data[:, header.index(name)] if name in header
                               else np.zeros_like(t) for name in ("solver_se", "value_se"))
        seed = int(meta.get("seed", 0))
    except (OSError, ValueError, IndexError) as exc:
        raise BoundaryFileError(f"cannot read boundary file {path}: {exc}") from exc
    # every comparison is False on NaN
    checks = [("yhat", "positive and finite", (yhat > 0) & (yhat < np.inf)),
              ("iters", "a count", (iters >= 0) & (iters < 2.0 ** 63) & (iters == np.floor(iters))),
              ("residual", "finite", np.isfinite(residual))]
    checks += [(name, "finite and not negative", (col >= 0) & (col < np.inf))
               for name, col in (("residual_se", residual_se), ("solver_se", solver_se),
                                 ("value_se", value_se))]
    for name, rule, ok in checks:
        if not np.all(ok):
            raise BoundaryFileError(f"{path}: every {name} must be {rule}")
    return BoundaryFile(t, yhat, residual, residual_se, iters.astype(int), solver_se,
                        value_se, meta.get("model_hash", ""), seed)


def write_controls_csv(path: str, grid: TimeGrid, plans, capacity: np.ndarray) -> None:
    """One row per path of ``plans`` and node of ``grid``."""
    t = grid.nodes.tolist()
    lines = ["path_id,t,nubar,nu,capacity"]
    for p in range(plans.nubar.shape[0]):
        rows = zip(t, plans.nubar[p].tolist(), plans.nu[p].tolist(), capacity[p].tolist())
        lines += [f"{p}," + "%.17g,%.17g,%.17g,%.17g" % row for row in rows]
    _write_lines(path, lines)


def write_paths_csv(path: str, grid: TimeGrid, batch) -> None:
    """One row per path of ``batch`` and node of ``grid``."""
    t = grid.nodes.tolist()
    lines = ["path_id,t,value,measure"]
    for p in range(batch.values.shape[0]):
        lines += [f"{p}," + "%.17g,%.17g," % row + batch.measure
                  for row in zip(t, batch.values[p].tolist())]
    _write_lines(path, lines)


def write_manifest(path: str, manifest: dict) -> None:
    """Strict JSON: a non-finite float is written as null."""
    with open(path, "w") as fh:
        json.dump(_jsonable(manifest), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _jsonable(obj):
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {key: _jsonable(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(val) for val in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def ensure_dir(path: str) -> None:
    os.makedirs(path, exist_ok=True)
