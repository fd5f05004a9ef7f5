"""Command-line entry point.

Commands: solve, simulate, verify, oracle.  Exit codes form a stable
contract: 0 success, 2 config parse error or unwritable output, 3 assumption
violation, 4 solver non-convergence, 5 unreadable boundary file or grid or
hash mismatch, 6 verification failure.
Set CAPEX_LOG to DEBUG/INFO/WARNING for progress on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
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
from .paths import MEASURE_P, mean_and_se, row_blocks, simulate
from .policy import (CapacityRangeError, PlanBatch, build_controls, constant_rate_plan,
                     controlled_capacity, profit, zero_plan)
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


@contextlib.contextmanager
def _stage(timings: dict, name: str):
    """Add the wall time of the block to ``timings[name + "_s"]``, so a stage
    run once per row block reports its total."""
    t0 = time.perf_counter()
    yield
    key = f"{name}_s"
    timings[key] = timings.get(key, 0.0) + time.perf_counter() - t0


def _log_stages(command: str, timings: dict) -> None:
    for key, seconds in timings.items():
        log.info("%s: %s took %.3f s", command, key[:-2], seconds)


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
                         bfile.solver_se, bfile.iters, bfile.value_se, meta={"loaded": True})


def cmd_solve(args) -> int:
    cfg = load_config(args.config)
    mc = _mc(cfg, args)
    artifacts.ensure_dir(args.out)
    t0 = time.perf_counter()
    curve = solve_boundary(cfg.coeffs, cfg.production, cfg.scrap, mc=mc,
                           solver=cfg.solver, allow_zero_scrap=args.allow_zero_scrap)
    elapsed = time.perf_counter() - t0
    meta = curve.meta
    if meta["deterministic"]:
        log.info("sigma is identically zero: deterministic quadrature path")
    log.info("solve: %d nodes, %d residual evaluations for %d bisection steps, evaluator "
             "block/dense nodes %d/%d, block depth mean %.2f max %d, scrap tail skipped at %d",
             cfg.grid.n_steps, meta["residual_evals"], meta["bisect_steps"],
             meta["block_nodes"], meta["dense_nodes"], meta["block_depth_mean"],
             meta["block_depth_max"], meta["tail_skip_nodes"])
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
    timings = {}
    t0 = time.perf_counter()
    with _stage(timings, "paths"):
        batch = simulate(cfg.coeffs, mc.n_paths, MEASURE_P, mc.seed, mc.antithetic)
    # the files list min(limit, paths) rows, paths rounded up to even when
    # antithetic as sample_decay draws them; a volatility-free batch holds one
    # row for every path, repeated here as a read-only view
    rows = min(args.dump_limit, 2 * ((mc.n_paths + 1) // 2) if mc.antithetic else mc.n_paths)
    # pass 1: the tracking plan and the zero plan; the constant-rate plan
    # needs the mean spending of the whole batch, so it takes pass 2
    j_opt, j_zero, spent, jumps = [], [], [], []
    for block in row_blocks(batch):
        with _stage(timings, "controls"):
            plans = build_controls(curve, block, args.y, cfg.coeffs)
        with _stage(timings, "profit"):
            j_opt.append(profit(cfg.coeffs, cfg.production, cfg.scrap, block, plans))
            j_zero.append(profit(cfg.coeffs, cfg.production, cfg.scrap, block,
                                 zero_plan(block, args.y)))
        # copies, so that no view keeps a block's matrices alive
        spent.append(plans.nu[:, -1].copy())
        jumps.append(plans.nubar[:, 1].copy())
    rate = float(np.mean(np.concatenate(spent))) / cfg.grid.horizon
    j_const = []
    for block in row_blocks(batch):
        with _stage(timings, "profit"):
            j_const.append(profit(cfg.coeffs, cfg.production, cfg.scrap, block,
                                  constant_rate_plan(cfg.coeffs, block, args.y, rate)))
    # a plan is per path, so the listed rows' plans are built again alone
    listed = dataclasses.replace(batch, values=batch.values[:rows])
    with _stage(timings, "controls"):
        plans = build_controls(curve, listed, args.y, cfg.coeffs)
        cap = controlled_capacity(listed.values, plans)
    _log_stages("simulate", timings)
    timings["simulate_s"] = time.perf_counter() - t0
    j = {}
    for key, values in (("J_opt", j_opt), ("J_zero", j_zero), ("J_const_rate", j_const)):
        j[key], j[key + "_se"] = mean_and_se(np.concatenate(values), batch.antithetic)
    log.info("simulate: J(opt) %.6g (se %.3g), J(0) %.6g (se %.3g), J(const) %.6g (se %.3g)",
             *j.values())

    def dump(a):
        return np.broadcast_to(a[:rows], (rows, a.shape[1]))

    artifacts.write_controls_csv(
        os.path.join(args.out, "controls.csv"), cfg.grid,
        PlanBatch(args.y, dump(plans.nubar), dump(plans.nu)), dump(cap), limit=rows)
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
        "timings": timings,
        "outputs": outputs,
        "summary": {
            **j,
            "benchmark_rate": rate,
            "mean_initial_jump": float(np.mean(np.concatenate(jumps))),
        },
    })
    print(f"J(opt) = {j['J_opt']:.6g} (se {j['J_opt_se']:.3g}); "
          f"J(0) = {j['J_zero']:.6g}; J(const) = {j['J_const_rate']:.6g}")
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
    timings = {}
    t0 = time.perf_counter()
    with _stage(timings, "foc"):
        batch = simulate(cfg.coeffs, mc.n_paths, MEASURE_P, mc.seed + 1, mc.antithetic)
        y0 = float(curve.values[0])
        y_list = args.y if args.y else [0.5 * y0, 2.0 * y0]
        foc = check_foc(curve, y_list, cfg.coeffs, cfg.production, cfg.scrap, batch)
    with _stage(timings, "stopping_dp"):
        lattice = _default_lattice(cfg, curve)
        sdp = dp_stopping_value(cfg.coeffs, cfg.production, cfg.scrap, lattice)
    with _stage(timings, "cross"):
        cross = cross_validate(curve, sdp)
        inv_f = 1.0 / cfg.coeffs.f_C[:-1]
        v_bounded = bool(np.all(sdp.v[:-1] <= inv_f[:, None] * (1 + 1e-9)))
        v_monotone = bool(np.all(np.diff(sdp.v, axis=1) <= 1e-9))
    _log_stages("verify", timings)
    timings["verify_s"] = time.perf_counter() - t0
    hard_pass = foc.passed and cross.sup_rel_gap <= cfg.cross_gap and v_bounded and v_monotone
    payload = {
        "command": "verify",
        "config_hash": cfg.config_hash,
        "model_hash": cfg.model_hash,
        "seed": mc.seed,
        "timings": timings,
        "tolerances": {"foc_se_units": foc.tol_se, "cross_gap": cfg.cross_gap},
        "checks": {
            "foc": {"passed": foc.passed, "worst_violation_se": foc.worst_violation_se,
                    "entries": [dataclasses.asdict(e) for e in foc.entries],
                    "slackness": [dataclasses.asdict(s) for s in foc.slackness]},
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
    timings = {}
    t0 = time.perf_counter()
    with _stage(timings, "stopping_dp"):
        sdp = dp_stopping_value(cfg.coeffs, cfg.production, cfg.scrap, lattice)
    with _stage(timings, "value_dp"):
        vdp = dp_value(cfg.coeffs, cfg.production, cfg.scrap, lattice)
    gap, _ = shadow_value_gap(vdp, sdp)
    _log_stages("oracle", timings)
    timings["oracle_s"] = time.perf_counter() - t0
    out_csv = os.path.join(args.out, "dp_boundary.csv")
    artifacts.write_dp_boundary_csv(out_csv, cfg.grid, sdp.boundary, vdp.boundary)
    artifacts.write_manifest(os.path.join(args.out, "report.json"), {
        "command": "oracle",
        "config_hash": cfg.config_hash,
        "model_hash": cfg.model_hash,
        "timings": timings,
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
    except CapacityRangeError as exc:
        print(f"capacity out of range: {exc}", file=sys.stderr)
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
    except OSError as exc:
        # unreadable inputs raise the errors above, so this one came from the outputs
        print(f"cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
