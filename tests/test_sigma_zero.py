"""A volatility-free instance is one deterministic path: the CLI's estimates
do not depend on the path count, carry zero standard error, and cost memory
for one row only."""

import json
import os
import subprocess
import sys

import pytest

from capexbound import cli

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

CLOSED_FORM = {
    "grid": {"T": 1.0, "N": 200},
    "coefficients": {"mu_C": 0.0, "sigma": 0.0, "f_C": 1.0, "mu_F": 1.0, "w": 1.0, "r": 1.0},
    "production": {"variant": "power_marginal", "scale": 1.0, "exponent": 1.0},
    "scrap": {"variant": "zero"},
    "tolerances": {"tol_y": 1e-4, "tol_y_det": 1e-9, "cross_gap": 0.10},
    "mc": {"paths": 20000, "seed": 0, "antithetic": True},
}


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sigma0")
    cfg = str(tmp / "cfg.json")
    with open(cfg, "w") as fh:
        json.dump(CLOSED_FORM, fh)
    out = str(tmp / "solve")
    assert cli.main(["solve", "--config", cfg, "--out", out, "--allow-zero-scrap"]) == 0
    return tmp, cfg, os.path.join(out, "boundary.csv")


def _run(command, cfg, boundary, out, extra):
    rc = cli.main([command, "--config", cfg, "--boundary", boundary, "--out", out] + extra)
    name = "manifest.json" if command == "simulate" else "report.json"
    with open(os.path.join(out, name)) as fh:
        return rc, json.load(fh)


def _se_values(tree):
    if isinstance(tree, dict):
        for key, val in tree.items():
            if key == "se" or key.endswith("_se") and key != "worst_violation_se":
                yield val
            else:
                yield from _se_values(val)
    elif isinstance(tree, list):
        for item in tree:
            yield from _se_values(item)


@pytest.mark.parametrize("command,key", [("simulate", "summary"), ("verify", "checks")])
def test_estimates_do_not_depend_on_path_count(solved, tmp_path, command, key):
    tmp, cfg, boundary = solved
    extra = ["--y", "0.3"] if command == "simulate" else []
    results = [_run(command, cfg, boundary, str(tmp_path / str(paths)),
                    extra + ["--paths", str(paths)]) for paths in (2, 2000)]
    assert [rc for rc, _ in results] == [0, 0]
    few, many = (payload[key] for _, payload in results)
    assert few == many
    ses = list(_se_values(many))
    assert ses and all(se == 0.0 for se in ses)


# getrusage's ru_maxrss would not do: Linux carries it across exec, so a
# child of a large test process reports the parent's peak.  VmHWM is the peak
# of the child's own address space.
@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_peak_memory_is_one_row(solved, tmp_path, command):
    tmp, cfg, boundary = solved
    extra = ["--y", "0.3", "--dump-paths"] if command == "simulate" else []
    argv = [command, "--config", cfg, "--boundary", boundary,
            "--out", str(tmp_path / "o"), "--paths", "20000"] + extra
    code = ("import sys\n"
            "from capexbound.cli import main\n"
            "rc = main(sys.argv[1:])\n"
            "with open('/proc/self/status') as fh:\n"
            "    print(next(int(l.split()[1]) for l in fh if l.startswith('VmHWM:')) / 1024)\n"
            "sys.exit(rc)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code] + argv, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    peak_mb = float(proc.stdout.strip().splitlines()[-1])
    assert peak_mb < 200.0
