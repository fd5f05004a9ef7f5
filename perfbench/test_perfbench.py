"""Self-test of the benchmark harness.

Run from the repository root with ``python3 -m pytest perfbench``.  The
workloads are shrunk so the whole file takes seconds; the full-size runs
repeat the same checks live (boundary.csv bytes across untraced and traced
rounds, counts across traced rounds).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import tracing
import workloads

sys.path.insert(0, run.SRC)

# (steps, paths) per workload; None keeps the workload's own path count
SMALL = {"cd_mc": (12, 2000), "cd_box": (3, 60), "closed_form": (200, None)}
COUNTS_THAT_MUST_REPEAT = ("boundary.bisect_steps", "boundary.residual_evals",
                           "production.marginal_elems")


def _small(name: str) -> workloads.Workload:
    steps, paths = SMALL[name]
    wl = workloads.WORKLOADS[name].with_steps(steps)  # a copy
    if paths is not None:
        wl.config["mc"]["paths"] = paths
    return wl


def _csv_bytes(directory: str) -> dict:
    found = {}
    for base, _, files in os.walk(directory):
        for f in files:
            if f.endswith(".csv"):
                with open(os.path.join(base, f), "rb") as fh:
                    found[os.path.relpath(os.path.join(base, f), directory)] = fh.read()
    return found


@pytest.mark.parametrize("name", sorted(SMALL))
def test_tracing_changes_no_csv_byte_and_counts_repeat(tmp_path, name):
    bench = run.Bench(_small(name), seed=1, out_dir=str(tmp_path / "bench"))
    bench.round()
    layers = []
    for _ in range(2):
        tracer = tracing.Tracer()
        saved = tracing.install(tracer)
        try:
            bench.round(tracer)
        finally:
            tracing.uninstall(saved)
        layers.append(bench.layer_metrics(tracer, f"round{bench.n_rounds - 1}"))
    assert bench.problems == []

    plain = _csv_bytes(str(tmp_path / "bench" / "round0"))
    assert {"solve0/boundary.csv", "simulate0/controls.csv", "oracle0/dp_boundary.csv"} <= set(plain)
    for k in (1, 2):
        assert _csv_bytes(str(tmp_path / "bench" / f"round{k}")) == plain

    for key in COUNTS_THAT_MUST_REPEAT:
        assert layers[0][key][0] > 0
    counts = [{k: v for k, v in m.items() if v[1] == "count"} for m in layers]
    assert counts[0] == counts[1]


def test_repetitions_write_identical_csvs(tmp_path):
    bench = run.Bench(_small("closed_form"), seed=1, out_dir=str(tmp_path / "bench"))
    samples = bench.round(timed=True)
    assert bench.problems == []
    assert len(samples["simulate"]) == run.CYCLES_PER_ROUND
    found = _csv_bytes(str(tmp_path / "bench" / "round0"))
    reps = [found[f"simulate{k}/controls.csv"] for k in range(len(samples["simulate"]))]
    assert all(r == reps[0] for r in reps)
    assert bench.attempted == sum(len(v) for v in samples.values())


def test_uninstall_restores_every_function():
    import capexbound.boundary
    import capexbound.production

    before = capexbound.boundary.reduced_marginal_array
    saved = tracing.install(tracing.Tracer())
    assert capexbound.boundary.reduced_marginal_array is not before
    assert capexbound.production.reduced_marginal_array is not before
    tracing.uninstall(saved)
    assert capexbound.boundary.reduced_marginal_array is before
    assert capexbound.production.reduced_marginal_array is before


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    outer = tracer.open("boundary.solve")
    inner = tracer.open("production.marginal")
    tracer.close(inner)
    tracer.close(outer)
    s = tracer.summary()
    dur_outer = tracer.spans[0][3] - tracer.spans[0][2]
    dur_inner = tracer.spans[1][3] - tracer.spans[1][2]
    assert s["self"]["boundary.solve"] == pytest.approx(dur_outer - dur_inner)
    assert s["layer_self"]["production"] == pytest.approx(dur_inner)


def _write_curve(path, t, yhat):
    lines = ["# model_hash=x", "# seed=0", "t,yhat,residual,residual_se,iters"]
    lines += [f"{float(a)!r},{float(b)!r},0,0,1" for a, b in zip(t, yhat)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def test_closed_form_check_rejects_a_wrong_curve(tmp_path):
    wl = _small("closed_form")
    t = np.linspace(0.0, 1.0, wl.n_steps + 1)[:-1]
    truth = 1.0 - np.exp(-(1.0 - t))
    _write_curve(tmp_path / "boundary.csv", t, truth)
    assert workloads.check_solve(wl, str(tmp_path), seed=0) == []
    _write_curve(tmp_path / "boundary.csv", t, truth + 1e-6)
    assert workloads.check_solve(wl, str(tmp_path), seed=0)


def test_reference_check_applies_at_the_reference_seed_only(tmp_path):
    wl = workloads.WORKLOADS["cd_box"]
    t, ref, _ = workloads.read_curve(os.path.join(workloads.REFERENCE_DIR, wl.reference))
    off = ref * (1.0 + 3.0 * wl.config["tolerances"]["tol_y"])
    _write_curve(tmp_path / "boundary.csv", t, off)
    assert workloads.check_solve(wl, str(tmp_path), seed=workloads.REFERENCE_SEED)
    assert workloads.check_solve(wl, str(tmp_path), seed=workloads.REFERENCE_SEED + 1) == []


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(run.ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cd_mc",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
