"""Config file ingestion: JSON sections for grid, coefficients, production,
scrap, tolerances and Monte-Carlo settings.  Unknown keys are rejected so a
typo cannot silently fall back to a default.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Optional

import numpy as np

from .boundary import McConfig, SolverConfig
from .model import (
    DISCOUNT_FLOOR,
    AssumptionError,
    CobbDouglas,
    CoefficientSet,
    SaturatingExponential,
    TimeGrid,
    ZeroScrap,
    _central_differences,
    power_marginal,
)
from .verify import Lattice


class ConfigError(ValueError):
    """Malformed or inconsistent configuration."""


_SECTIONS = {"grid", "coefficients", "production", "scrap", "tolerances", "mc", "lattice"}
_COEFF_KEYS = ("mu_C", "sigma", "f_C", "mu_F", "w", "r")
_TOL_KEYS = {"tol_y", "tol_y_det", "cross_gap"}
_MC_KEYS = {"paths", "seed", "antithetic"}
_LATTICE_KEYS = {"y_min", "y_max", "nodes"}


def _require_keys(section: str, data: dict, allowed: set, required: set = frozenset()):
    if not isinstance(data, dict):
        raise ConfigError(f"section '{section}': expected an object")
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"section '{section}': unknown keys {sorted(unknown)}")
    missing = required - set(data)
    if missing:
        raise ConfigError(f"section '{section}': missing keys {sorted(missing)}")


@dataclass(frozen=True)
class RunConfig:
    raw: dict
    coeffs: CoefficientSet
    production: object
    scrap: object
    solver: SolverConfig
    mc: McConfig
    lattice: Optional[Lattice]
    cross_gap: float

    @property
    def config_hash(self) -> str:
        return _digest(self.raw)

    @cached_property
    def model_hash(self) -> str:
        """Digest of the parsed model, so JSON spelling (1 vs 1.0) cannot change it."""
        c = self.coeffs
        coefficients = {k: getattr(c, k).tolist() for k in _COEFF_KEYS}
        # digesting f_C', eps_o and bounds at their former defaults keeps the
        # hash of every existing boundary.csv, so simulate, verify and oracle
        # still accept those files
        coefficients["f_C_prime"] = _central_differences(c.grid.nodes, c.f_C).tolist()
        return _digest({
            "grid": c.grid.nodes.tolist(),
            "coefficients": coefficients,
            "eps_o": DISCOUNT_FLOOR,
            "bounds": {},
            "production": _spec_numbers(self.production),
            "scrap": _spec_numbers(self.scrap),
        })


def _spec_numbers(spec) -> dict:
    numbers = {f.name: getattr(spec, f.name) for f in fields(spec)
               if isinstance(getattr(spec, f.name), float)}
    return {"variant": type(spec).__name__, **numbers}


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: line {exc.lineno}, column {exc.colno}") from exc
    return parse_config(raw)


def parse_config(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    _require_keys("(root)", raw, _SECTIONS, {"grid", "coefficients", "production", "scrap"})

    gsec = raw["grid"]
    _require_keys("grid", gsec, {"T", "N"}, {"T", "N"})
    horizon = _number("grid", "T", gsec["T"], float)
    n_steps = _number("grid", "N", gsec["N"], int)
    try:
        grid = TimeGrid.uniform(horizon, n_steps)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"grid: {exc}") from exc

    csec = raw["coefficients"]
    _require_keys("coefficients", csec, set(_COEFF_KEYS), set(_COEFF_KEYS))
    arrays = {name: _coerce_function(name, csec[name], grid) for name in _COEFF_KEYS}
    try:
        coeffs = CoefficientSet.build(grid, **arrays)
    except ValueError as exc:
        raise ConfigError(f"coefficients: {exc}") from exc

    production = _parse_variant("production", raw["production"])
    scrap = _parse_variant("scrap", raw["scrap"])

    tsec = raw.get("tolerances", {})
    _require_keys("tolerances", tsec, _TOL_KEYS)
    d = SolverConfig()
    tol = {"tol_y": d.tol_rel, "tol_y_det": d.tol_rel_det, "cross_gap": 0.10}
    tol = {k: _number("tolerances", k, tsec.get(k, v), float) for k, v in tol.items()}
    if min(tol.values()) <= 0:
        raise ConfigError("tolerances: need tol_y, tol_y_det and cross_gap > 0")
    solver = SolverConfig(tol_rel=tol["tol_y"], tol_rel_det=tol["tol_y_det"])

    msec = raw.get("mc", {})
    _require_keys("mc", msec, _MC_KEYS)
    antithetic = msec.get("antithetic", True)
    if not isinstance(antithetic, bool):
        raise ConfigError(f"mc.antithetic: expected true or false, got {antithetic!r}")
    mc = checked_mc(_number("mc", "paths", msec.get("paths", 20000), int),
                    _number("mc", "seed", msec.get("seed", 0), int), antithetic, n_steps)

    lattice = raw.get("lattice")
    if lattice is not None:
        _require_keys("lattice", lattice, _LATTICE_KEYS, {"y_min", "y_max"})
        y_range = [_number("lattice", k, lattice[k], float) for k in ("y_min", "y_max")]
        nodes = _number("lattice", "nodes", lattice.get("nodes", 200), int)
        try:
            lattice = Lattice.geometric(*y_range, nodes)
        except ValueError as exc:
            raise ConfigError(f"lattice: {exc}") from exc

    return RunConfig(raw=raw, coeffs=coeffs, production=production, scrap=scrap,
                     solver=solver, mc=mc, lattice=lattice, cross_gap=tol["cross_gap"])


def checked_mc(n_paths: int, seed: int, antithetic: bool, n_steps: int) -> McConfig:
    """Monte-Carlo settings, rejecting counts and seeds the generators cannot
    take and path counts whose decay matrix on ``n_steps`` steps, rows
    rounded up to even when antithetic, no array can hold."""
    if n_paths < 1 or seed < 0:
        raise ConfigError(f"mc: need paths >= 1 and seed >= 0, got {n_paths} and {seed}")
    rows = 2 * ((n_paths + 1) // 2) if antithetic else n_paths
    if rows * (n_steps + 1) * np.dtype(float).itemsize > np.iinfo(np.intp).max:
        raise ConfigError(f"mc: {n_paths} paths on {n_steps} steps exceed the largest array")
    return McConfig(n_paths=n_paths, seed=seed, antithetic=antithetic)


def _number(section: str, key: str, value, kind):
    """``value`` as a finite ``kind``.  Only a JSON number that converts
    exactly is one: float() would take the string "1.0" and pass NaN and
    infinity through, int() would truncate 2.7, so all are refused here."""
    if not _is_number(value):
        raise ConfigError(f"{section}.{key}: expected a number, got {value!r}")
    try:
        number = kind(value)
        exact = math.isfinite(number) and number == value
    except (ValueError, OverflowError):  # NaN or infinity to int, a huge integer to float
        exact = False
    if not exact:
        raise ConfigError(f"{section}.{key}: expected a finite {kind.__name__}, got {value!r}")
    return number


def _is_number(value) -> bool:
    """A JSON number; bool subclasses int, so true and false are not numbers here."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _coerce_function(name: str, spec, grid: TimeGrid):
    try:
        if _is_number(spec):
            return float(spec)
        if isinstance(spec, list) and all(map(_is_number, spec)):
            if len(spec) != grid.nodes.size:
                raise ConfigError(f"coefficients.{name}: expected {grid.nodes.size} node "
                                  f"values, got {len(spec)}")
            return np.asarray(spec, dtype=float)
    except OverflowError as exc:  # an integer literal beyond the doubles
        raise ConfigError(f"coefficients.{name}: {exc}") from exc
    raise ConfigError(f"coefficients.{name}: expected a number or node array")


# section -> variant -> (constructor, numeric keys, required keys)
_VARIANTS = {
    "production": {
        "cobb_douglas": (CobbDouglas, {"alpha", "beta", "gamma", "kappa_L", "kappa_K"},
                         {"alpha", "beta", "gamma"}),
        "power_marginal": (power_marginal, {"scale", "exponent"}, {"scale", "exponent"}),
    },
    "scrap": {
        "saturating_exponential": (SaturatingExponential, {"a", "b"}, {"a", "b"}),
        "zero": (ZeroScrap, set(), set()),
    },
}


def _parse_variant(section: str, data: dict):
    if not isinstance(data, dict) or "variant" not in data:
        raise ConfigError(f"{section}: missing 'variant'")
    variant = data["variant"]
    if not isinstance(variant, str) or variant not in _VARIANTS[section]:
        raise ConfigError(f"{section}: unknown variant {variant!r}")
    build, numeric, required = _VARIANTS[section][variant]
    _require_keys(section, data, numeric | {"variant"}, required)
    numbers = {k: _number(section, k, v, float) for k, v in data.items() if k != "variant"}
    try:
        return build(**numbers)
    except ValueError as exc:
        raise AssumptionError(f"{section}: {exc}") from exc
