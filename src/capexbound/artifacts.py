"""Deterministic artifact emission: CSV rows formatted with ``'%.17g'``, 17
significant digits that round-trip every double, and a JSON run manifest.
On one machine output bytes depend only on the config, seeds and flags,
never on timing or worker count; numpy's SIMD kernels differ between CPUs
and can move the last digits.

Every writer makes the directory it writes into, so a command that fails
before its first write leaves no output directory behind.
"""

from __future__ import annotations

import json
import math
import os
from collections import namedtuple

import numpy as np

from .boundary import BoundaryCurve
from .model import TimeGrid

# boundary.csv's columns, in the order written; the reader finds each by its
# header name
BOUNDARY_COLUMNS = ("t", "yhat", "residual", "residual_se", "iters", "solver_se", "value_se")

BoundaryFile = namedtuple("BoundaryFile", BOUNDARY_COLUMNS + ("model_hash", "seed"))


def _write_lines(path: str, lines: list) -> None:
    ensure_dir(os.path.dirname(path))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_boundary_csv(path: str, curve: BoundaryCurve, model_hash: str, seed: int) -> None:
    # every column after t and yhat is the curve attribute of its name
    columns = (curve.grid.nodes[:-1], curve.values,
               *(getattr(curve, name) for name in BOUNDARY_COLUMNS[2:]))
    row = ",".join("%d" if name == "iters" else "%.17g" for name in BOUNDARY_COLUMNS)
    rows = zip(*(col.tolist() for col in columns))
    _write_lines(path, [f"# model_hash={model_hash}", f"# seed={seed}", ",".join(BOUNDARY_COLUMNS)]
                 + [row % cells for cells in rows])


def write_dp_boundary_csv(path: str, grid: TimeGrid, stopping: np.ndarray,
                          value: np.ndarray) -> None:
    """The contact boundaries of the stopping-value and control-value DPs."""
    rows = zip(grid.nodes[:-1].tolist(), stopping.tolist(), value.tolist())
    _write_lines(path, ["t,yhat_stopping,yhat_value"] + ["%.17g,%.17g,%.17g" % row for row in rows])


class BoundaryFileError(ValueError):
    """A boundary file is missing, malformed, or belongs to another model or grid."""


def read_boundary_csv(path: str) -> BoundaryFile:
    """The ``BOUNDARY_COLUMNS`` of a boundary file, each read by its name in the
    header, the first line that is neither blank nor a ``#`` comment; files
    older than ``solver_se`` and ``value_se`` read them as zeros."""
    meta = {}
    lines = []
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if line.startswith("#"):
                    key, _, val = line[1:].strip().partition("=")
                    meta[key.strip()] = val.strip()
                elif line:
                    lines.append(line.split(","))
        header, *rows = lines or [[]]
        data = np.asarray(rows, dtype=float)
        cols = {}
        for name in BOUNDARY_COLUMNS:
            if name in header:
                cols[name] = data[:, header.index(name)]
            elif name in ("solver_se", "value_se"):
                cols[name] = np.zeros(len(data))
            else:
                raise ValueError(f"no {name} column in the header")
        seed = int(meta.get("seed", 0))
    except (OSError, ValueError, IndexError) as exc:
        raise BoundaryFileError(f"cannot read boundary file {path}: {exc}") from exc
    yhat, iters = cols["yhat"], cols["iters"]
    # every comparison is False on NaN
    checks = [("yhat", "positive and finite", (yhat > 0) & (yhat < np.inf)),
              ("iters", "a count", (iters >= 0) & (iters < 2.0 ** 63) & (iters == np.floor(iters))),
              ("residual", "finite", np.isfinite(cols["residual"]))]
    checks += [(name, "finite and not negative", (cols[name] >= 0) & (cols[name] < np.inf))
               for name in ("residual_se", "solver_se", "value_se")]
    for name, rule, ok in checks:
        if not np.all(ok):
            raise BoundaryFileError(f"{path}: every {name} must be {rule}")
    cols["iters"] = iters.astype(int)
    return BoundaryFile(**cols, model_hash=meta.get("model_hash", ""), seed=seed)


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
    ensure_dir(os.path.dirname(path))
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
    os.makedirs(path or os.curdir, exist_ok=True)
