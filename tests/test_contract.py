"""Exit-code contract on bad inputs: model hashing, unreadable boundary
files, malformed configs, and a fuzz over config and boundary-file mutations."""

import copy
import json
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from capexbound import cli
from capexbound.config import parse_config

CONTRACT_EXITS = {0, 2, 3, 4, 5, 6}

SMALL = {
    "grid": {"T": 1.0, "N": 4},
    "coefficients": {"mu_C": 0.05, "sigma": 0.1, "f_C": 1.0, "mu_F": 0.05,
                     "w": 1.0, "r": 1.0},
    "production": {"variant": "cobb_douglas", "alpha": 0.25, "beta": 0.25, "gamma": 0.25},
    "scrap": {"variant": "saturating_exponential", "a": 0.5, "b": 1.0},
    "tolerances": {"tol_y": 1e-3, "cross_gap": 0.5},
    "mc": {"paths": 16, "seed": 1},
    "lattice": {"y_min": 1e3, "y_max": 1e6, "nodes": 40},
}


def write_cfg(directory, payload, name="cfg.json"):
    path = os.path.join(str(directory), name)
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return path


def solve(directory, cfg):
    out = os.path.join(str(directory), "solve")
    rc = cli.main(["solve", "--config", cfg, "--out", out])
    return rc, os.path.join(out, "boundary.csv")


def run_consumers(directory, cfg, boundary):
    """Exit codes of simulate, verify and oracle against one boundary file."""
    d = str(directory)
    return [
        cli.main(["simulate", "--config", cfg, "--boundary", boundary, "--y", "0.5",
                  "--out", os.path.join(d, "sim")]),
        cli.main(["verify", "--config", cfg, "--boundary", boundary,
                  "--out", os.path.join(d, "ver")]),
        cli.main(["oracle", "--config", cfg, "--boundary", boundary,
                  "--out", os.path.join(d, "orc")]),
    ]


class TestModelHash:
    def test_spelling_does_not_change_hash(self):
        respelled = copy.deepcopy(SMALL)
        respelled["grid"] = {"N": 4.0, "T": 1}
        respelled["coefficients"]["sigma"] = [0.1] * 5
        respelled["coefficients"]["w"] = 1
        respelled["production"]["kappa_L"] = 1e6
        respelled["mc"]["seed"] = 7
        assert parse_config(respelled).model_hash == parse_config(SMALL).model_hash

    def test_changed_drift_changes_hash(self):
        changed = copy.deepcopy(SMALL)
        changed["coefficients"]["mu_C"] = 0.06
        assert parse_config(changed).model_hash != parse_config(SMALL).model_hash

    def test_respelled_config_verifies_solved_boundary(self, tmp_path):
        rc, boundary = solve(tmp_path, write_cfg(tmp_path, SMALL))
        assert rc == 0
        respelled = copy.deepcopy(SMALL)
        respelled["grid"]["T"] = 1
        cfg = write_cfg(tmp_path, respelled, "respelled.json")
        assert cli.main(["verify", "--config", cfg, "--boundary", boundary,
                         "--out", str(tmp_path / "ver")]) != 5


class TestBadBoundaryFile:
    @pytest.mark.parametrize("content", [None, "t,yhat,residual,residual_se,iters\n0,x,0,0,1\n",
                                         "", "0,1\n"])
    def test_exits_5(self, tmp_path, content):
        cfg = write_cfg(tmp_path, SMALL)
        boundary = str(tmp_path / "boundary.csv")
        if content is not None:
            (tmp_path / "boundary.csv").write_text(content)
        assert run_consumers(tmp_path, cfg, boundary) == [5, 5, 5]

    def test_non_positive_boundary_value_exits_5(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL)
        rc, boundary = solve(tmp_path, cfg)
        assert rc == 0
        lines = open(boundary).read().splitlines()
        cells = lines[3].split(",")
        cells[1] = "-1"
        lines[3] = ",".join(cells)
        open(boundary, "w").write("\n".join(lines) + "\n")
        assert run_consumers(tmp_path, cfg, boundary) == [5, 5, 5]


class TestBadConfig:
    @pytest.mark.parametrize("section,key,value", [
        ("grid", None, 5),
        ("mc", None, []),
        ("coefficients", "bounds", 3),
        ("mc", "paths", "x"),
        ("mc", "paths", 0),
        ("mc", "seed", -1),
        ("tolerances", "tol_y", "x"),
        ("tolerances", "max_iter", None),
        ("lattice", "nodes", "x"),
        ("lattice", "y_min", -1.0),
        ("production", None, 5),
    ])
    def test_exits_2(self, tmp_path, section, key, value):
        bad = copy.deepcopy(SMALL)
        if key is None:
            bad[section] = value
        else:
            bad[section][key] = value
        cfg = write_cfg(tmp_path, bad)
        assert cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert cli.main(["oracle", "--config", cfg, "--out", str(tmp_path / "p")]) == 2

    def test_out_of_range_command_line_overrides_exit_2(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL)
        assert cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "o"),
                         "--seed", "-1"]) == 2
        rc, boundary = solve(tmp_path, cfg)
        assert rc == 0
        assert cli.main(["simulate", "--config", cfg, "--boundary", boundary, "--y", "0.5",
                         "--out", str(tmp_path / "s"), "--paths", "0"]) == 2

    def test_lattice_too_small_for_value_dp_exits_2(self, tmp_path):
        small_lattice = copy.deepcopy(SMALL)
        small_lattice["lattice"] = {"y_min": 0.01, "y_max": 100.0, "nodes": 40}
        cfg = write_cfg(tmp_path, small_lattice)
        assert cli.main(["oracle", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


class TestBadCommandLine:
    @pytest.mark.parametrize("command,flags", [
        ("simulate", ["--y", "0"]),
        ("simulate", ["--y", "-1"]),
        ("simulate", ["--y", "nan"]),
        ("simulate", ["--y", "inf"]),
        ("simulate", ["--y", "0.5", "--dump-limit", "-5"]),
        ("verify", ["--y", "-1"]),
        ("verify", ["--y", "nan"]),
    ])
    def test_exits_2(self, solved_small, tmp_path, command, flags):
        d, cfg, _ = solved_small
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--config", cfg, "--boundary", os.path.join(d, "solve", "boundary.csv"),
                      "--out", str(out)] + flags)
        assert exc.value.code == 2
        assert not out.exists()


# ---------------------------------------------------------------------------
# fuzz

# copies, so that a drawn {} mutated later in the same example stays private
_VALUES = st.sampled_from(["x", "", -1, 0, 0.5, 3, None, True, [], {}, [1.0, 2.0]]
                          ).map(copy.deepcopy)


@st.composite
def config_mutations(draw):
    """Replace or delete one to three sections or section keys, or add unknown ones."""
    cfg = copy.deepcopy(SMALL)
    for _ in range(draw(st.integers(1, 3))):
        section = draw(st.sampled_from(sorted(SMALL) + ["extra"]))
        target = cfg.get(section)
        if isinstance(target, dict) and draw(st.booleans()):
            key = draw(st.sampled_from(sorted(target) + ["extra"]))
            if draw(st.booleans()):
                target[key] = draw(_VALUES)
            else:
                target.pop(key, None)
        elif draw(st.booleans()):
            cfg[section] = draw(_VALUES)
        else:
            cfg.pop(section, None)
    return cfg


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(config_mutations())
def test_fuzz_config_exit_codes(cfg_payload):
    with tempfile.TemporaryDirectory() as d:
        cfg = write_cfg(d, cfg_payload)
        rc, boundary = solve(d, cfg)
        assert rc in CONTRACT_EXITS
        if rc == 0:
            assert set(run_consumers(d, cfg, boundary)) <= CONTRACT_EXITS


@pytest.fixture(scope="module")
def solved_small():
    with tempfile.TemporaryDirectory() as d:
        cfg = write_cfg(d, SMALL)
        rc, boundary = solve(d, cfg)
        assert rc == 0
        with open(boundary) as fh:
            yield d, cfg, fh.read().splitlines()


_CELLS = st.sampled_from(["x", "", "nan", "inf", "-1", "0", "1e400", "1.5"])


@st.composite
def csv_mutations(draw, lines):
    lines = list(lines)
    for _ in range(draw(st.integers(1, 3))):
        action = draw(st.sampled_from(["cell", "drop", "duplicate", "truncate", "hash"]))
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        if action == "cell":
            cells = lines[i].split(",")
            cells[draw(st.integers(0, len(cells) - 1))] = draw(_CELLS)
            lines[i] = ",".join(cells)
        elif action == "drop":
            del lines[i]
        elif action == "duplicate":
            lines.insert(i, lines[i])
        elif action == "truncate":
            lines = lines[:i]
        else:
            lines = [ln for ln in lines if not ln.startswith("# model_hash")]
    return lines


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzz_boundary_csv_exit_codes(solved_small, data):
    d, cfg, lines = solved_small
    mutated = data.draw(csv_mutations(lines))
    with tempfile.TemporaryDirectory() as out:
        boundary = os.path.join(out, "boundary.csv")
        with open(boundary, "w") as fh:
            fh.write("\n".join(mutated) + "\n")
        assert set(run_consumers(out, cfg, boundary)) <= CONTRACT_EXITS
