"""README's config block parses and its library example runs as printed."""

import ast
import json
import math
import os
import re
import subprocess
import sys

from capexbound.config import parse_config

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def readme_block(language):
    with open(os.path.join(ROOT, "README.md")) as fh:
        blocks = re.findall(rf"^```{language}\n(.*?)^```", fh.read(), re.M | re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_config_block_parses():
    cfg = parse_config(json.loads(readme_block("json")))
    assert cfg.grid.n_steps == 100


def test_library_block_runs():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-"],
                          input=readme_block("python"), env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "efficiency" in proc.stdout
    # the block ends by printing the profit's (mean, se)
    mean, se = ast.literal_eval(proc.stdout.strip().splitlines()[-1])
    assert math.isfinite(mean) and math.isfinite(se) and se > 0
