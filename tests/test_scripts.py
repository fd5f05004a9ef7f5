"""The example scripts run end to end on small instances."""

import os
import re
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           os.path.join(ROOT, "scripts", name), *args],
                          env=env, capture_output=True, text=True, timeout=300)


def test_closed_form_script():
    proc = run_script("run_closed_form.py", "--steps", "200")
    assert proc.returncode == 0, proc.stderr
    err = float(re.search(r"max \|yhat - closed form\| = (\S+)", proc.stdout).group(1))
    assert err < 1e-8
    assert "initial jump" in proc.stdout


def test_stochastic_demo_script():
    proc = run_script("run_stochastic_demo.py", "--steps", "10", "--paths", "500")
    assert proc.returncode == 0, proc.stderr
