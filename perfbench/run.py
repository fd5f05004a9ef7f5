"""End-to-end benchmark of the capexbound command line.

Run from the repository root:

    python3 perfbench/run.py --workload cd_mc --seed 0 --seconds 60 --trace 0

One process runs one workload.  It repeats rounds of the four commands
(``solve``, ``simulate`` at half the solved boundary's time-zero value,
``verify``, ``oracle``) in-process through ``capexbound.cli.main`` until the
time budget would be overrun.  Within a round the last three commands cycle
twice on the same inputs.  Every command's outputs are checked after it
returns.  Between commands, spread over the run, child processes time the
set-up a user pays in a fresh interpreter (``import capexbound``,
``load_config``, ``validate``).  ``--trace 0`` reports the end-to-end
metrics (medians over the samples of the run); ``--trace 1`` alternates
untraced and traced rounds with one run per command, brackets each untraced
round with solves at half the steps, and reports per-layer metrics from the
traced rounds and the untraced times of the three commands after the solve.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  An operation is one
command; it fails when its exit code is not 0 or its output check fails.
``correct`` is false when an output check fails or a command ends with an
exit code other than 0, or 6 from ``verify`` (the program's own optimality
verdict, which is counted as a failed operation only).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")
BLAS_THREADS = 2
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# share of a timed run spent on set-up samples; they are taken between
# commands whenever they fall behind it, so that they spread over the
# machine's slow spells instead of falling inside one (a larger share would
# cost cd_mc one of its three rounds)
SETUP_SHARE = 0.12
SETUP_TIMEOUT_S = 120
EXIT_VERIFY = 6
COMMANDS = ("solve", "simulate", "verify", "oracle")
# the speed of a shared machine can swing by up to 2x in spells of seconds
# to tens of seconds; short rounds, each a solve and two cycles of the other
# commands, spread every command's samples over the whole run
CYCLES_PER_ROUND = 2
# a new round starts only if this multiple of the last round still fits
ROUND_MARGIN = 1.1

# timed inside the child, so interpreter start-up itself is excluded
SETUP_SNIPPET = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import capexbound
from capexbound.config import load_config
cfg = load_config(sys.argv[2])
capexbound.validate(cfg.coeffs, cfg.production, cfg.scrap)
print(time.perf_counter() - t0)
"""


class Bench:
    """One workload at one seed: runs rounds, records operations and checks."""

    def __init__(self, workload, seed: int, out_dir: str):
        self.wl = workload
        self.seed = seed
        self.out = out_dir
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.stopped = False  # a solve failed: nothing downstream can run
        self.first_csv = None  # boundary.csv bytes of the first round
        self.n_rounds = 0
        self.setup = []  # set-up samples (s)
        self.setup_start = None  # start of the run; None: take no set-up samples
        self.setup_spent = 0.0
        os.makedirs(out_dir)
        self.config_path = self._write_config(workload, "config.json")

    def _write_config(self, workload, name: str) -> str:
        path = os.path.join(self.out, name)
        with open(path, "w") as fh:
            json.dump(workload.config, fh)
        return path

    # -- set-up ------------------------------------------------------------

    def setup_sample(self) -> float:
        proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, SRC, self.config_path],
                              capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        return float(proc.stdout.strip().splitlines()[-1])

    def between_commands(self) -> None:
        """Take set-up samples until they have had their share of the run."""
        if self.setup_start is None:
            return
        while self.setup_spent <= SETUP_SHARE * (time.perf_counter() - self.setup_start):
            t0 = time.perf_counter()
            self.setup.append(self.setup_sample())
            self.setup_spent += time.perf_counter() - t0

    # -- commands ----------------------------------------------------------

    def command(self, argv: list, tracer=None) -> tuple[int, float]:
        """Run one CLI command in-process; returns (exit code, seconds)."""
        from capexbound import cli

        span = tracer.open(f"cli.{argv[0]}") if tracer is not None else None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv)
        except SystemExit as exc:  # argparse errors
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback is exit 1 for a CLI user
            traceback.print_exc()
            rc = 1
        finally:
            elapsed = time.perf_counter() - t0
            if span is not None:
                tracer.close(span)
        return rc, elapsed

    def record(self, command: str, rc: int, problems: list) -> None:
        self.attempted += 1
        allowed = (0, EXIT_VERIFY) if command == "verify" else (0,)
        if rc not in allowed:
            problems = [f"{command}: exit code {rc}", *problems]
        if rc != 0 or problems:
            self.failed += 1
            if rc != 0:
                print(f"{command}: exit code {rc} (counted as a failed operation)",
                      file=sys.stderr)
        for p in problems:
            self.problem(p)

    def problem(self, message: str) -> None:
        if message not in self.problems:
            print(f"check failed: {message}", file=sys.stderr)
            self.problems.append(message)

    def solve(self, workload, out: str, config_path: str, tracer=None) -> tuple[int, float]:
        from workloads import check_solve

        argv = ["solve", "--config", config_path, "--seed", str(self.seed),
                "--out", out, *workload.solve_flags]
        rc, elapsed = self.command(argv, tracer)
        problems = check_solve(workload, out, self.seed)
        if rc != 0 or not os.path.exists(os.path.join(out, "boundary.csv")):
            self.stopped = True
        if rc == 0 and not problems and workload is self.wl:
            with open(os.path.join(out, "boundary.csv"), "rb") as fh:
                data = fh.read()
            if self.first_csv is None:
                self.first_csv = data
            elif data != self.first_csv:
                problems.append("solve: boundary.csv differs between rounds")
        self.record("solve", rc, problems)
        return rc, elapsed

    def round(self, tracer=None, timed: bool = False) -> dict:
        """solve, then simulate, verify, oracle; returns seconds samples per command.

        Untimed, each command runs once.  ``timed`` runs the last three
        CYCLES_PER_ROUND times in turn on the same inputs, into fresh
        directories.
        """
        from workloads import check_oracle, check_simulate, check_verify, read_curve

        wl = self.wl
        base = os.path.join(self.out, f"round{self.n_rounds}")
        self.n_rounds += 1
        samples = {c: [] for c in COMMANDS}
        _, solve_s = self.solve(wl, os.path.join(base, "solve0"), self.config_path, tracer)
        samples["solve"].append(solve_s)
        if self.stopped:
            return samples
        self.between_commands()
        bfile = os.path.join(base, "solve0", "boundary.csv")
        y = 0.5 * float(read_curve(bfile)[1][0])
        common = ["--config", self.config_path, "--seed", str(self.seed), "--boundary", bfile]
        jobs = (("simulate", [*common, "--y", repr(y)], check_simulate),
                ("verify", common, check_verify),
                ("oracle", common, check_oracle))
        for cycle in range(CYCLES_PER_ROUND if timed else 1):
            for command, argv, check in jobs:
                out = os.path.join(base, f"{command}{cycle}")
                rc, elapsed = self.command([command, *argv, "--out", out], tracer)
                self.record(command, rc, check(wl, out))
                samples[command].append(elapsed)
                self.between_commands()
        return samples

    # -- runs --------------------------------------------------------------

    def timed_run(self, deadline: float) -> dict:
        self.setup_start = time.perf_counter()
        self.between_commands()  # the first sample
        rounds = []
        while True:
            t0 = time.perf_counter()
            rounds.append(self.round(timed=True))
            last = time.perf_counter() - t0
            if len(rounds) == 1:
                rss = peak_rss_mb()  # later rounds repeat the same work
            if self.stopped or time.perf_counter() + ROUND_MARGIN * last > deadline:
                break
        if self.stopped:
            return {}
        setup_s = statistics.median(self.setup)
        solve_s = statistics.median(v for r in rounds for v in r["solve"])
        other = {c: statistics.median(v for r in rounds for v in r[c]) for c in COMMANDS[1:]}
        print(f"rounds: {len(rounds)}")
        print(f"set-up samples (s): {' '.join(f'{v:.4g}' for v in self.setup)}")
        for c in COMMANDS:
            samples = " ".join(f"{v:.4g}" for r in rounds for v in r[c])
            print(f"{c} samples (s): {samples}")
        for c, v in other.items():
            print(f"{c}_s (median, not gated) {v:.6g} s")
        return {
            "setup_s": (setup_s, "s"),
            "solve_s": (solve_s, "s"),
            "pipeline_s": (setup_s + solve_s + sum(other.values()), "s"),
            "peak_rss_mb": (rss, "MB"),
        }

    def traced_run(self, deadline: float) -> dict:
        import tracing

        plain, traced, layers, halves = [], [], [], []
        # solves at half the steps bracket each untraced round's solve, so
        # the N-exponent compares samples taken close together
        half = self.wl.with_steps(self.wl.n_steps // 2)
        half_config = self._write_config(half, "config_half.json")
        while True:
            t0 = time.perf_counter()
            halves.append(self.half_solve(half, half_config))
            plain.append(self.round())
            if self.stopped:
                return {}
            halves.append(self.half_solve(half, half_config))
            if self.stopped:
                return {}
            tracer = tracing.Tracer()
            saved = tracing.install(tracer)
            try:
                traced.append(self.round(tracer))
            finally:
                tracing.uninstall(saved)
            if self.stopped:
                return {}
            layers.append(self.layer_metrics(tracer, f"round{self.n_rounds - 1}"))
            pair = time.perf_counter() - t0
            if time.perf_counter() + ROUND_MARGIN * pair > deadline:
                break
        counts = [{k: v for k, v in m.items() if v[1] == "count"} for m in layers]
        if any(c != counts[0] for c in counts[1:]):
            self.problem("trace: counts differ between traced rounds")

        # counts repeat exactly (checked above); times are medians
        metrics = {name: (value if unit == "count" else
                          statistics.median(m[name][0] for m in layers), unit)
                   for name, (value, unit) in layers[0].items()}
        full_s = statistics.median(r["solve"][0] for r in plain)
        half_s = statistics.median(halves)
        metrics["boundary.n_exponent"] = (math.log2(full_s / half_s), "1")
        plain_s = statistics.median(sum(v[0] for v in r.values()) for r in plain)
        traced_s = statistics.median(sum(v[0] for v in r.values()) for r in traced)
        for c in COMMANDS[1:]:
            metrics[f"cli.{c}_s"] = (statistics.median(r[c][0] for r in plain), "s")
        metrics["trace.pipeline_s"] = (traced_s, "s")
        metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
        print(f"round pairs: {len(traced)}; half-step solves (s): "
              f"{' '.join(f'{v:.4g}' for v in halves)}")
        return metrics

    def half_solve(self, half, config_path: str) -> float:
        out = os.path.join(self.out, f"half{self.attempted}")
        return self.solve(half, out, config_path)[1]

    def layer_metrics(self, tracer, round_dir: str) -> dict:
        from workloads import read_curve

        s = tracer.summary()
        calls, total, counts, layer_self = s["calls"], s["total"], s["counts"], s["layer_self"]
        _, _, iters = read_curve(os.path.join(self.out, round_dir, "solve0", "boundary.csv"))
        with open(os.path.join(self.out, round_dir, "verify0", "report.json")) as fh:
            checks = json.load(fh)["checks"]
        nodes = int(iters.size)
        evals = counts["boundary.residual_evals"]
        marg_elems = counts["production.marginal_elems"]
        worst_se = checks["foc"]["worst_violation_se"]
        m = {
            "boundary.solve_s": (total["boundary.solve"], "s"),
            "boundary.self_s": (layer_self["boundary"], "s"),
            "boundary.nodes": (nodes, "count"),
            "boundary.bisect_steps": (int(iters.sum()), "count"),
            "boundary.residual_evals": (evals, "count"),
            "boundary.evals_per_node": (evals / nodes, "count/node"),
            "boundary.self_us_per_eval": (1e6 * layer_self["boundary"] / max(evals, 1), "us"),
            "production.marginal_calls": (calls["production.marginal"], "count"),
            "production.marginal_elems": (marg_elems, "count"),
            "production.marginal_s": (total["production.marginal"], "s"),
            "production.marginal_ns_per_elem":
                (1e9 * total["production.marginal"] / max(marg_elems, 1), "ns"),
            "production.value_calls": (calls["production.value"], "count"),
            "production.value_elems": (counts["production.value_elems"], "count"),
            "production.value_s": (total["production.value"], "s"),
            "production.power_form_calls": (calls["production.power_form"], "count"),
            "model.validate_s": (total["model.validate"], "s"),
            "model.step_masses_calls": (calls["model.step_masses"], "count"),
            "model.step_masses_s": (total["model.step_masses"], "s"),
            "paths.normals_s": (total["paths.normals"], "s"),
            "paths.decay_s": (total["paths.decay"], "s"),
            "paths.running_sup_s": (total["paths.running_sup"], "s"),
            "paths.bytes_computed": (counts["paths.bytes_computed"], "B"),
            "policy.build_controls_s": (total["policy.build_controls"], "s"),
            "policy.profit_s": (total["policy.profit"], "s"),
            "verify.foc_s": (total["verify.foc"], "s"),
            "verify.stopping_dp_s": (total["verify.stopping_dp"], "s"),
            "verify.value_dp_s": (total["verify.value_dp"], "s"),
            "verify.cross_s": (total["verify.cross"], "s"),
            # JSON has no infinity: -inf (no entry with a positive se) reads 0
            "verify.foc_worst_se": (worst_se if math.isfinite(worst_se) else 0.0, "se"),
            "verify.cross_gap": (checks["cross_validation"]["sup_rel_gap"], "1"),
            "config.load_s": (total["config.load"], "s"),
            "artifacts.write_s": (total["artifacts.write"], "s"),
            "artifacts.read_s": (total["artifacts.read"], "s"),
            "artifacts.bytes_written": (counts["artifacts.bytes_written"], "B"),
        }
        for layer in ("model", "paths", "production", "policy", "verify"):
            m[f"{layer}.self_s"] = (layer_self[layer], "s")
        for c in COMMANDS:
            m[f"cli.{c}.self_s"] = (s["self"][f"cli.{c}"], "s")
        return m


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux: KiB


def machine_line() -> str:
    import numpy
    import scipy

    return (f"machine: nproc={os.cpu_count()} numpy={numpy.__version__} "
            f"scipy={scipy.__version__} blas_threads={BLAS_THREADS} "
            f"python={sys.version.split()[0]}")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="time budget; a round starts only if it is expected to fit")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    start = time.perf_counter()
    if not os.path.isfile(os.path.join(SRC, "capexbound", "cli.py")):
        print(f"error: capexbound sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:  # before numpy is first imported
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    out = os.path.join(OUT_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    bench = Bench(WORKLOADS[args.workload], args.seed, out)
    try:
        deadline = start + args.seconds
        metrics = bench.traced_run(deadline) if args.trace else bench.timed_run(deadline)
    finally:
        shutil.rmtree(out, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(OUT_ROOT)
    print(machine_line())
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
