"""`simulate` and `verify` work through a path batch in row blocks: every
estimate and file is the same whatever the block size, and the peak memory of
a README-sized run stays near the decay matrix's own."""

import copy
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from capexbound import cli, paths
from capexbound.model import CoefficientSet, TimeGrid

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

README_MODEL = {
    "grid": {"T": 1.0, "N": 20},
    "coefficients": {"mu_C": 0.1, "sigma": 0.2, "f_C": 1.0, "mu_F": 0.05, "w": 1.0, "r": 1.0},
    "production": {"variant": "cobb_douglas", "alpha": 0.25, "beta": 0.25, "gamma": 0.25,
                   "kappa_L": 1e6, "kappa_K": 1e6},
    "scrap": {"variant": "saturating_exponential", "a": 0.5, "b": 1.0},
    "mc": {"paths": 301, "seed": 3, "antithetic": True},
}

CLOSED_FORM = {
    "grid": {"T": 1.0, "N": 50},
    "coefficients": {"mu_C": 0.0, "sigma": 0.0, "f_C": 1.0, "mu_F": 1.0, "w": 1.0, "r": 1.0},
    "production": {"variant": "power_marginal", "scale": 1.0, "exponent": 1.0},
    "scrap": {"variant": "zero"},
    "mc": {"paths": 500, "seed": 0, "antithetic": True},
}


def _config(model, **mc):
    cfg = copy.deepcopy(model)
    cfg["mc"].update(mc)
    return cfg


# 302 antithetic rows end in a block of 46; 193 plain rows end in a one-row
# block; a volatility-free batch is one row
BATCHES = {
    "antithetic": _config(README_MODEL),
    "plain_odd": _config(README_MODEL, paths=193, antithetic=False),
    "sigma_zero": _config(CLOSED_FORM),
}


@pytest.mark.parametrize("n_rows, sizes", [(1, [1]), (2, [2]), (64, [64]), (65, [64, 1]),
                                           (128, [64, 64]), (129, [64, 64, 1]),
                                           (302, [64, 64, 64, 64, 46])])
def test_row_blocks_are_ordered_views(monkeypatch, n_rows, sizes):
    monkeypatch.setattr(paths, "BLOCK_ROWS", 64)
    grid = TimeGrid.uniform(1.0, 3)
    values = np.arange(n_rows * 4.0).reshape(n_rows, 4)
    batch = paths.PathBatch(grid, values, paths.MEASURE_P, antithetic=False)
    blocks = list(paths.row_blocks(batch))
    assert [b.n_paths for b in blocks] == sizes
    assert all(np.shares_memory(b.values, batch.values) for b in blocks)
    assert np.array_equal(np.concatenate([b.values for b in blocks]), values)


def test_block_size_is_a_power_of_two():
    assert paths.BLOCK_ROWS >= 4 and paths.BLOCK_ROWS & (paths.BLOCK_ROWS - 1) == 0


def test_decay_matrix_matches_the_stepwise_formula():
    grid = TimeGrid.uniform(1.0, 6)
    coeffs = CoefficientSet.build(grid, mu_C=0.1, sigma=lambda t: 0.1 + 0.3 * t, f_C=1.0,
                                  mu_F=0.05, w=1.0, r=1.0)
    normals = np.random.default_rng(0).standard_normal((5, 6))
    mean, var = paths.log_increment_moments(coeffs, paths.MEASURE_Q)
    logs = np.cumsum(mean[None, :] + np.sqrt(var)[None, :] * normals, axis=1)
    expected = np.exp(np.concatenate([np.zeros((5, 1)), logs], axis=1))
    buf = np.zeros((5, 7))
    buf[:, 1:] = normals
    got = paths.values_from_normals(coeffs, buf, paths.MEASURE_Q)
    assert got is buf
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("sigma, n, antithetic", [(0.3, 10, True), (0.3, 7, True),
                                                  (0.3, 7, False), (0.3, 1, False),
                                                  (0.0, 5, True)])
def test_node_major_draw_is_the_path_major_one_transposed(sigma, n, antithetic):
    grid = TimeGrid.uniform(1.0, 6)
    coeffs = CoefficientSet.build(grid, mu_C=0.1, sigma=lambda t: sigma * (1.0 + t), f_C=1.0,
                                  mu_F=0.05, w=1.0, r=1.0)
    by_path = paths.sample_decay(coeffs, n, paths.MEASURE_Q, 4, "solve", antithetic)
    by_node = paths.sample_decay(coeffs, n, paths.MEASURE_Q, 4, "solve", antithetic, by_node=True)
    assert by_node.flags.c_contiguous and by_path.flags.c_contiguous
    assert by_node.T.tobytes(order="C") == by_path.tobytes()
    rows = 1 if sigma == 0.0 else n + n % 2 if antithetic else n
    assert by_path.shape == (rows, 7)


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("row_blocks")
    out = {}
    for name, cfg in BATCHES.items():
        path = str(tmp / f"{name}.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        solve = str(tmp / f"{name}_solve")
        assert cli.main(["solve", "--config", path, "--out", solve, "--allow-zero-scrap"]) == 0
        out[name] = (path, os.path.join(solve, "boundary.csv"))
    return out


def _outputs(command, cfg, boundary, out):
    """The command's timing-free results: the FOC checks for verify, the
    summary and the CSV files for simulate."""
    extra = ["--y", "0.3", "--dump-paths", "--dump-limit", "1000"] if command == "simulate" else []
    rc = cli.main([command, "--config", cfg, "--boundary", boundary, "--out", out] + extra)
    assert rc in (0, 6)
    if command == "verify":
        with open(os.path.join(out, "report.json")) as fh:
            return rc, json.load(fh)["checks"]["foc"]
    with open(os.path.join(out, "manifest.json")) as fh:
        summary = json.load(fh)["summary"]
    files = [open(os.path.join(out, f), "rb").read() for f in ("controls.csv", "paths.csv")]
    return rc, summary, files


@pytest.mark.parametrize("command", ["simulate", "verify"])
@pytest.mark.parametrize("batch", sorted(BATCHES))
def test_block_size_leaves_every_output_unchanged(solved, tmp_path, monkeypatch, command, batch):
    cfg, boundary = solved[batch]
    results = []
    for rows in (10 ** 9, 64):
        monkeypatch.setattr(paths, "BLOCK_ROWS", rows)
        results.append(_outputs(command, cfg, boundary, str(tmp_path / str(rows))))
    # JSON floats are written as their shortest round-trip text, so equal
    # reprs are equal bits
    assert repr(results[0]) == repr(results[1])


_BLAS_THREADS_CODE = """
import hashlib
import numpy as np
import capexbound as cb
from capexbound.boundary import _NodeResidual
grid = cb.TimeGrid.uniform(1.0, 100)
coeffs = cb.CoefficientSet.build(grid, mu_C=0.1, sigma=0.2, f_C=1.0, mu_F=0.05, w=1.0, r=1.0)
prod = cb.CobbDouglas(0.25, 0.25, 0.25, kappa_L=1e6, kappa_K=1e6)
scrap = cb.SaturatingExponential(0.5, 1.0)
batch = cb.simulate(coeffs, 20002, cb.MEASURE_P, seed=0)
plans = cb.constant_rate_plan(coeffs, batch, 300.0, 500.0)
print(hashlib.sha256(cb.profit(coeffs, prod, scrap, batch, plans).tobytes()).hexdigest())
dense = _NodeResidual(coeffs, prod, scrap, 0, batch.values, np.linspace(800.0, 200.0, 99), True)
print(hashlib.sha256(dense.per_path(800.0).tobytes()).hexdigest())
"""


def test_per_path_sums_do_not_depend_on_blas_threads():
    # a BLAS matrix-vector product splits its rows between threads, and the
    # split changes how some rows are summed
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
                       filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", _BLAS_THREADS_CODE], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.split())
    assert digests[0] == digests[1]


# getrusage's ru_maxrss would not do: Linux carries it across exec, so a
# child of a large test process reports the parent's peak.  VmHWM is the peak
# of the child's own address space.
@pytest.fixture(scope="module")
def solved_readme(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("readme_size")
    cfg = str(tmp / "cfg.json")
    with open(cfg, "w") as fh:
        json.dump(_config(dict(README_MODEL, grid={"T": 1.0, "N": 100}), paths=20000, seed=0),
                  fh)
    out = str(tmp / "solve")
    assert cli.main(["solve", "--config", cfg, "--out", out]) == 0
    return cfg, os.path.join(out, "boundary.csv")


# 20000 x 101 doubles are 16 MB, and importing the package takes about 34 MB.
# `solve` holds one decay matrix at a time, the solve batch and then the audit
# batch, drawn node-major, with the weights of three nodes; `simulate` and
# `verify` hold their batch and one row block.  Each peaks near 65 MB on Linux
# x86-64, while the half-size Gaussian draw that fills its matrix is alive.
PEAK_MB = {"solve": 80.0, "simulate": 80.0, "verify": 80.0}


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
@pytest.mark.parametrize("command", ["simulate", "verify", "solve"])
def test_peak_memory_is_the_decay_matrix_plus_one_block(solved_readme, tmp_path, command):
    cfg, boundary = solved_readme
    extra = ["--y", "0.3"] if command == "simulate" else []
    if command != "solve":
        extra += ["--boundary", boundary]
    argv = [command, "--config", cfg, "--out", str(tmp_path / "o")]
    code = ("import sys\n"
            "from capexbound.cli import main\n"
            "rc = main(sys.argv[1:])\n"
            "with open('/proc/self/status') as fh:\n"
            "    print(next(int(l.split()[1]) for l in fh if l.startswith('VmHWM:')) / 1024)\n"
            "sys.exit(rc)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code] + argv + extra, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode in (0, 6), proc.stderr
    peak_mb = float(proc.stdout.strip().splitlines()[-1])
    assert peak_mb < PEAK_MB[command]
