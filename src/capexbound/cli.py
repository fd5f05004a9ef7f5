"""Command-line entry point.

Commands: solve, simulate, verify, oracle.  Exit codes form a stable
contract: 0 success, 2 config parse error, 3 assumption violation, 4 solver
non-convergence, 5 unreadable boundary file or grid or hash mismatch,
6 verification failure.
Set CAPEX_LOG to DEBUG/INFO/WARNING for progress on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
import time

import numpy as np

from . import artifacts
from .boundary import (
    BoundaryCurve,
    BracketError,
    ConvergenceError,
    McConfig,
    solve_boundary,
)
from .config import ConfigError, RunConfig, checked_mc, load_config
from .model import AssumptionError, validate
from .paths import MEASURE_P, simulate
from .policy import build_controls, constant_rate_plan, controlled_capacity, profit, zero_plan
from .verify import (
    Lattice,
    LatticeRangeError,
    check_foc,
    cross_validate,
    dp_stopping_value,
    dp_value,
    shadow_value_gap,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ASSUMPTION = 3
EXIT_NOCONV = 4
EXIT_MISMATCH = 5
EXIT_VERIFY = 6

log = logging.getLogger("capexbound")


def _setup_logging():
    level = os.environ.get("CAPEX_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _mc(cfg: RunConfig, args) -> McConfig:
    seed = cfg.mc.seed if getattr(args, "seed", None) is None else args.seed
    paths = cfg.mc.n_paths if getattr(args, "paths", None) is None else args.paths
    return checked_mc(paths, seed, cfg.mc.antithetic)


def _curve_from_file(path: str, cfg: RunConfig) -> BoundaryCurve:
    """Read a boundary file and check that it was solved for this model and grid."""
    bfile = artifacts.read_boundary_csv(path)
    if bfile.model_hash != cfg.model_hash:
        raise artifacts.BoundaryFileError(
            "boundary file was produced from a different model "
            f"(hash {bfile.model_hash[:12]} vs {cfg.model_hash[:12]})")
    if bfile.t.size != cfg.grid.n_steps or not np.allclose(bfile.t, cfg.grid.nodes[:-1]):
        raise artifacts.BoundaryFileError("boundary file grid does not match the config grid")
    return BoundaryCurve(cfg.grid, bfile.yhat, bfile.residual, bfile.residual_se,
                         np.zeros_like(bfile.yhat), bfile.iters, meta={"loaded": True})


def cmd_solve(args) -> int:
    cfg = load_config(args.config)
    mc = _mc(cfg, args)
    artifacts.ensure_dir(args.out)
    t0 = time.perf_counter()
    curve = solve_boundary(cfg.coeffs, cfg.production, cfg.scrap, mc=mc,
                           solver=cfg.solver, allow_zero_scrap=args.allow_zero_scrap)
    elapsed = time.perf_counter() - t0
    if curve.meta["deterministic"]:
        log.info("sigma is identically zero: deterministic quadrature path")
    out_csv = os.path.join(args.out, "boundary.csv")
    artifacts.write_boundary_csv(out_csv, curve, cfg.model_hash, mc.seed)
    artifacts.write_manifest(os.path.join(args.out, "manifest.json"), {
        "command": "solve",
        "config_hash": cfg.config_hash,
        "model_hash": cfg.model_hash,
        "seed": mc.seed,
        "paths": mc.n_paths,
        "tolerances": {"tol_y": cfg.solver.tol_rel, "tol_y_det": cfg.solver.tol_rel_det},
        "timings": {"solve_s": elapsed},
        "outputs": ["boundary.csv"],
        "summary": {
            "yhat_first": curve.values[0],
            "yhat_last": curve.values[-1],
            "max_abs_residual": float(np.max(np.abs(curve.residual))),
            "terminal_trend": "decreasing" if curve.values[-1] < curve.values[0] else "flat-or-increasing",
        },
    })
    print(f"solved {cfg.grid.n_steps} nodes in {elapsed:.2f}s -> {out_csv}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    curve = _curve_from_file(args.boundary, cfg)
    mc = _mc(cfg, args)
    artifacts.ensure_dir(args.out)
    t0 = time.perf_counter()
    batch = simulate(cfg.coeffs, cfg.grid, 0, mc.n_paths, MEASURE_P, mc.seed,
                     mc.antithetic)
    plans = build_controls(curve, batch, args.y, cfg.coeffs)
    cap = controlled_capacity(batch.values, plans)
    j_opt = profit(cfg.coeffs, cfg.production, cfg.scrap, batch, plans)
    plans0 = zero_plan(batch, args.y)
    j_zero = profit(cfg.coeffs, cfg.production, cfg.scrap, batch, plans0)
    rate = float(np.mean(plans.nu[:, -1])) / cfg.grid.horizon
    plans_c = constant_rate_plan(cfg.coeffs, batch, args.y, rate)
    j_const = profit(cfg.coeffs, cfg.production, cfg.scrap, batch, plans_c)
    elapsed = time.perf_counter() - t0
    # the files list min(limit, paths) rows, paths rounded up to even when
    # antithetic as sample_decay draws them; a volatility-free batch holds one
    # row for every path, repeated here as a read-only view
    rows = min(args.dump_limit, 2 * ((mc.n_paths + 1) // 2) if mc.antithetic else mc.n_paths)

    def dump(a):
        return np.broadcast_to(a[:rows], (rows, a.shape[1]))

    artifacts.write_controls_csv(
        os.path.join(args.out, "controls.csv"), cfg.grid,
        dataclasses.replace(plans, nubar=dump(plans.nubar), nu=dump(plans.nu)), dump(cap),
        limit=rows)
    outputs = ["controls.csv"]
    if args.dump_paths:
        artifacts.write_paths_csv(os.path.join(args.out, "paths.csv"), cfg.grid,
                                  dataclasses.replace(batch, values=dump(batch.values)),
                                  limit=rows)
        outputs.append("paths.csv")
    artifacts.write_manifest(os.path.join(args.out, "manifest.json"), {
        "command": "simulate",
        "config_hash": cfg.config_hash,
        "model_hash": cfg.model_hash,
        "seed": mc.seed,
        "paths": mc.n_paths,
        "y": args.y,
        "timings": {"simulate_s": elapsed},
        "outputs": outputs,
        "summary": {
            "J_opt": j_opt.mean, "J_opt_se": j_opt.se,
            "J_zero": j_zero.mean, "J_zero_se": j_zero.se,
            "J_const_rate": j_const.mean, "J_const_rate_se": j_const.se,
            "benchmark_rate": rate,
            "mean_initial_jump": float(np.mean(plans.nubar[:, 1])),
        },
    })
    print(f"J(opt) = {j_opt.mean:.6g} (se {j_opt.se:.3g}); "
          f"J(0) = {j_zero.mean:.6g}; J(const) = {j_const.mean:.6g}")
    return EXIT_OK


def _default_lattice(cfg: RunConfig, curve: BoundaryCurve) -> Lattice:
    if cfg.lattice is not None:
        return cfg.lattice
    lo = float(np.min(curve.values)) / 8.0
    spread = float(np.exp(4.0 * np.max(cfg.coeffs.sigma) * np.sqrt(cfg.grid.horizon)))
    hi = float(np.max(curve.values)) * max(4.0, spread)
    return Lattice.geometric(cfg.grid, lo, hi, 200)


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    curve = _curve_from_file(args.boundary, cfg)
    mc = _mc(cfg, args)
    artifacts.ensure_dir(args.out)
    report = validate(cfg.coeffs, cfg.production, cfg.scrap)
    t0 = time.perf_counter()
    batch = simulate(cfg.coeffs, cfg.grid, 0, mc.n_paths, MEASURE_P, mc.seed + 1,
                     mc.antithetic)
    y0 = float(curve.values[0])
    y_list = args.y if args.y else [0.5 * y0, 2.0 * y0]
    foc = check_foc(curve, y_list, cfg.coeffs, cfg.production, cfg.scrap, batch)
    lattice = _default_lattice(cfg, curve)
    sdp = dp_stopping_value(cfg.coeffs, cfg.production, cfg.scrap, lattice)
    cross = cross_validate(curve, sdp)
    inv_f = 1.0 / cfg.coeffs.f_C[:-1]
    v_bounded = bool(np.all(sdp.v[:-1] <= inv_f[:, None] * (1 + 1e-9)))
    v_monotone = bool(np.all(np.diff(sdp.v, axis=1) <= 1e-9))
    elapsed = time.perf_counter() - t0
    hard_pass = foc.passed and cross.sup_rel_gap <= cfg.cross_gap and v_bounded and v_monotone
    payload = {
        "command": "verify",
        "config_hash": cfg.config_hash,
        "model_hash": cfg.model_hash,
        "seed": mc.seed,
        "timings": {"verify_s": elapsed},
        "tolerances": {"foc_se_units": 2.0, "cross_gap": cfg.cross_gap},
        "checks": {
            "foc": {"passed": foc.passed, "worst_violation_se": foc.worst_violation_se,
                    "entries": [{"y": e.y, "rule": e.rule, "estimate": e.estimate, "se": e.se}
                                for e in foc.entries],
                    "slackness": [{"y": s.y, "value": s.value, "se": s.se}
                                  for s in foc.slackness]},
            "cross_validation": {"passed": cross.sup_rel_gap <= cfg.cross_gap,
                                 "sup_rel_gap": cross.sup_rel_gap},
            "stopping_value_bounded": v_bounded,
            "stopping_value_monotone_in_y": v_monotone,
            "efficiency_condition": report.efficiency_ok,
        },
        "hard_pass": hard_pass,
    }
    artifacts.write_manifest(os.path.join(args.out, "report.json"), payload)
    print(f"verify: foc={'pass' if foc.passed else 'FAIL'} "
          f"cross_gap={cross.sup_rel_gap:.3g} "
          f"-> {'PASS' if hard_pass else 'FAIL'}")
    return EXIT_OK if hard_pass else EXIT_VERIFY


def cmd_oracle(args) -> int:
    cfg = load_config(args.config)
    artifacts.ensure_dir(args.out)
    if args.boundary:
        curve = _curve_from_file(args.boundary, cfg)
        lattice = _default_lattice(cfg, curve)
    elif cfg.lattice is not None:
        lattice = cfg.lattice
    else:
        raise ConfigError("oracle needs a lattice section or a boundary file")
    t0 = time.perf_counter()
    sdp = dp_stopping_value(cfg.coeffs, cfg.production, cfg.scrap, lattice)
    vdp = dp_value(cfg.coeffs, cfg.production, cfg.scrap, lattice)
    gap, _ = shadow_value_gap(vdp, sdp)
    elapsed = time.perf_counter() - t0
    out_csv = os.path.join(args.out, "dp_boundary.csv")
    lines = ["t,yhat_stopping,yhat_value"]
    t = cfg.grid.nodes[:-1]
    for i in range(t.size):
        lines.append(",".join([artifacts.fmt(t[i]), artifacts.fmt(sdp.boundary[i]),
                               artifacts.fmt(vdp.boundary[i])]))
    with open(out_csv, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    artifacts.write_manifest(os.path.join(args.out, "report.json"), {
        "command": "oracle",
        "config_hash": cfg.config_hash,
        "model_hash": cfg.model_hash,
        "timings": {"oracle_s": elapsed},
        "outputs": ["dp_boundary.csv"],
        "summary": {"shadow_value_max_rel_gap": gap,
                    "lattice_nodes": lattice.y_nodes.size},
    })
    print(f"oracle: shadow-value max relative gap {gap:.3g} -> {out_csv}")
    return EXIT_OK


def _positive_float(text: str) -> float:
    value = float(text)
    if not (np.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"expected a positive finite number, got {text!r}")
    return value


def _count(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="capexbound",
                                description="capacity-expansion exercise boundary toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=True, help="JSON config file")
        sp.add_argument("--out", required=True, help="output directory")
        sp.add_argument("--seed", type=int, default=None, help="override mc.seed")

    sp = sub.add_parser("solve", help="solve the exercise boundary")
    common(sp)
    sp.add_argument("--allow-zero-scrap", action="store_true",
                    help="permit a zero scrap value despite the strict-decrease assumption")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("simulate", help="build controls along simulated paths")
    common(sp)
    sp.add_argument("--boundary", required=True, help="boundary.csv from solve")
    sp.add_argument("--y", type=_positive_float, required=True, help="initial capacity")
    sp.add_argument("--paths", type=int, default=None, help="override mc.paths")
    sp.add_argument("--dump-paths", action="store_true", help="also write paths.csv")
    sp.add_argument("--dump-limit", type=_count, default=100,
                    help="paths written to CSV (all paths enter the estimates)")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("verify", help="run optimality checks against a boundary")
    common(sp)
    sp.add_argument("--boundary", required=True, help="boundary.csv from solve")
    sp.add_argument("--paths", type=int, default=None, help="override mc.paths")
    sp.add_argument("--y", type=_positive_float, action="append", default=None,
                    help="initial capacity for the FOC checks (repeatable)")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("oracle", help="run the lattice dynamic programs standalone")
    common(sp)
    sp.add_argument("--boundary", default=None,
                    help="boundary.csv used to size the lattice (optional)")
    sp.set_defaults(func=cmd_oracle)
    return p


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, LatticeRangeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (AssumptionError, BracketError) as exc:
        print(f"assumption violation: {exc}", file=sys.stderr)
        return EXIT_ASSUMPTION
    except ConvergenceError as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return EXIT_NOCONV
    except artifacts.BoundaryFileError as exc:
        print(f"boundary file error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
