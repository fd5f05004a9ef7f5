"""Exit-code contract on bad inputs: model hashing, unreadable boundary
files, malformed configs, and a fuzz over config and boundary-file mutations;
plus the pinned `verify` outcomes of a reference run over twenty seeds."""

import copy
import json
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from capexbound import cli
from capexbound.config import parse_config

CONTRACT_EXITS = {0, 2, 3, 4, 5, 6}
# a JSON integer literal beyond the double range
HUGE = 10 ** 400

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

    # --out is made by the first write, so an unreadable boundary exits 5
    # whether --out names a file or a new directory, and leaves nothing behind
    @pytest.mark.parametrize("command", ["simulate", "verify", "oracle"])
    def test_is_read_before_out_is_made(self, tmp_path, command):
        cfg = write_cfg(tmp_path, SMALL)
        boundary = tmp_path / "boundary.csv"
        boundary.write_text("t,yhat,residual,residual_se,iters\n0,x,0,0,1\n")
        extra = ["--y", "0.5"] if command == "simulate" else []
        taken, fresh = tmp_path / "taken", tmp_path / "fresh"
        taken.write_text("keep")
        for out in (taken, fresh):
            assert cli.main([command, "--config", cfg, "--boundary", str(boundary),
                             "--out", str(out)] + extra) == 5, out.name
        assert taken.read_text() == "keep" and not fresh.exists()

    # the columns are read by their header names, so a header that renames a
    # required one, or a file without a header, reads as no boundary at all
    @pytest.mark.parametrize("column", ["t", "yhat", "residual", "residual_se", "iters", None])
    def test_missing_required_column_exits_5(self, solved_small, tmp_path, capsys, column):
        _, cfg, lines = solved_small
        if column is None:
            lines = lines[:2] + lines[3:]
            column = "t"
        else:
            lines = list(lines)
            lines[2] = lines[2].replace(column, "renamed", 1)
        boundary = tmp_path / "boundary.csv"
        boundary.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run_consumers(tmp_path, cfg, str(boundary)) == [5, 5, 5]
        assert capsys.readouterr().err.count(f"no {column} column in the header") == 3
        assert not any((tmp_path / out).exists() for out in ("sim", "ver", "orc"))

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

    # RuntimeWarnings are errors here: a count beyond the integers must not reach a cast
    @pytest.mark.parametrize("column,cell", [
        ("iters", "1e30"), ("iters", "2.5"), ("iters", "-3"), ("iters", "nan"),
        ("residual", "nan"), ("residual", "-inf"),
        ("residual_se", "nan"), ("residual_se", "-1"),
        ("solver_se", "inf"), ("solver_se", "-1e-300"),
        ("value_se", "nan"), ("value_se", "-1"),
    ])
    def test_bad_cell_exits_5_naming_its_column(self, tmp_path, capsys, column, cell):
        cfg = write_cfg(tmp_path, SMALL)
        rc, boundary = solve(tmp_path, cfg)
        assert rc == 0
        lines = open(boundary).read().splitlines()
        k = lines[2].split(",").index(column)
        cells = lines[4].split(",")
        cells[k] = cell
        lines[4] = ",".join(cells)
        open(boundary, "w").write("\n".join(lines) + "\n")
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run_consumers(tmp_path, cfg, boundary) == [5, 5, 5]
        assert capsys.readouterr().err.count(f"every {column} must be") == 3


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
        ("tolerances", "tol_y", float("nan")),
        ("tolerances", "tol_y", float("inf")),
        ("tolerances", "tol_y", -1.0),
        ("tolerances", "tol_y_det", 0.0),
        ("tolerances", "cross_gap", -0.1),
        ("tolerances", "max_iter", 0),
        ("coefficients", "f_C_prime", float("nan")),
        ("production", "kappa_L", float("nan")),
        ("production", "alpha", float("nan")),
        ("scrap", "a", float("nan")),
        ("mc", "antithetic", "false"),
        ("mc", "paths", 2.7),
        ("grid", "N", 10.9),
        # a JSON boolean is not a number, and a coefficient array holds numbers only
        ("coefficients", "sigma", False),
        ("grid", "T", True),
        ("mc", "paths", True),
        ("tolerances", "tol_y", True),
        ("scrap", "a", True),
        ("production", "alpha", True),
        ("coefficients", "mu_C", ["x"] * 5),
        # a JSON string is not a number either, and an integer literal beyond
        # the doubles is no finite float
        ("grid", "T", "1.0"),
        ("mc", "paths", "16"),
        pytest.param("coefficients", "mu_C", HUGE, id="coefficients-mu_C-huge"),
        pytest.param("coefficients", "mu_C", [0.05] * 4 + [HUGE], id="coefficients-mu_C-[huge]"),
        pytest.param("grid", "T", HUGE, id="grid-T-huge"),
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

    @pytest.mark.parametrize("section,key,value", [
        ("grid", "T", "1.0"),
        ("mc", "paths", "16"),
        pytest.param("coefficients", "mu_C", HUGE, id="coefficients-mu_C-huge"),
        pytest.param("coefficients", "mu_C", [0.05] * 4 + [HUGE], id="coefficients-mu_C-[huge]"),
    ])
    def test_bad_numbers_are_named(self, tmp_path, capsys, section, key, value):
        bad = copy.deepcopy(SMALL)
        bad[section][key] = value
        cfg = write_cfg(tmp_path, bad)
        assert cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert f"config error: {section}.{key}: " in capsys.readouterr().err

    # the removed coefficient settings are unknown keys, even at valid values
    @pytest.mark.parametrize("key,value", [("eps_o", 1e-6), ("bounds", {}), ("f_C_prime", 0.0)])
    def test_removed_coefficient_keys_are_named(self, tmp_path, capsys, key, value):
        bad = copy.deepcopy(SMALL)
        bad["coefficients"][key] = value
        cfg = write_cfg(tmp_path, bad)
        assert cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert f"unknown keys ['{key}']" in capsys.readouterr().err

    # each error reached by no other test but the fuzz, by chance: (command,
    # config text or None for a missing file, the message after "config error: ")
    @pytest.mark.parametrize("command,text,message", [
        ("solve", None, "cannot read config: "),
        ("solve", '{"grid": ', "config is not valid JSON: line 1, column 10"),
        ("solve", "[1, 2]", "config root must be an object"),
        ("solve", {"grid": {"T": -1, "N": 4}}, "grid: horizon must be positive"),
        ("solve", {"grid": {"T": 1.0, "N": 0}}, "grid: need at least one step"),
        ("solve", {"coefficients": dict(SMALL["coefficients"], mu_C=float("nan"))},
         "coefficients: non-finite values in coefficient 'mu_C'"),
        ("solve", {"coefficients": dict(SMALL["coefficients"], sigma=[0.1] * 4 + [float("inf")])},
         "coefficients: non-finite values in coefficient 'sigma'"),
        ("solve", {"production": {"variant": "leontief"}}, "production: unknown variant 'leontief'"),
        ("oracle", {"lattice": None}, "oracle needs a lattice section or a boundary file"),
    ], ids=["unreadable", "invalid-json", "non-object-root", "negative-T", "zero-N", "nan-coeff",
            "inf-in-coeff-array", "unknown-variant", "oracle-without-lattice"])
    def test_config_errors_exit_2_with_their_message(self, tmp_path, capsys, command, text,
                                                      message):
        path = tmp_path / "cfg.json"
        if isinstance(text, dict):
            cfg = dict(SMALL, **text)
            text = json.dumps({k: v for k, v in cfg.items() if v is not None})
        if text is not None:
            path.write_text(text)
        out = tmp_path / "o"
        assert cli.main([command, "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert not out.exists()

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

    @pytest.mark.parametrize("nodes,y_max,code", [
        (6, 1e6, 2), (10, 1e9, 2), (12, 1e9, 0),
    ])
    def test_lattice_too_small_for_shadow_gap_exits_2(self, tmp_path, capsys, nodes, y_max, code):
        readme = {
            "grid": {"T": 1.0, "N": 20},
            "coefficients": {"mu_C": 0.1, "sigma": 0.2, "f_C": 1.0, "mu_F": 0.05,
                             "w": 1.0, "r": 1.0},
            "production": {"variant": "cobb_douglas", "alpha": 0.25, "beta": 0.25,
                           "gamma": 0.25},
            "scrap": {"variant": "saturating_exponential", "a": 0.5, "b": 1.0},
            "lattice": {"y_min": 1e-3, "y_max": y_max, "nodes": nodes},
        }
        cfg = write_cfg(tmp_path, readme)
        assert cli.main(["oracle", "--config", cfg, "--out", str(tmp_path / "o")]) == code
        if code == 2:
            assert "at least 11 lattice nodes" in capsys.readouterr().err


# README config at N = 20 with 4000 paths: (verify exit code, worst FOC
# violation in standard errors) per seed, solve and verify at the same seed.
# The three failures come from a known defect: the verdict ignores the solved
# boundary's own Monte-Carlo error (ROADMAP open item 1).  A change that
# moves any of these outcomes updates this table and says so in CHANGES.md.
VERIFY_OUTCOMES = {
    0: (0, 0.3886708713801302), 1: (6, 2.7981377837179062),
    2: (6, 2.1691123988204435), 3: (0, 1.227513738230972),
    4: (0, 0.5770425050290815), 5: (0, 1.042511885135824),
    6: (0, 1.3750129526341575), 7: (0, 1.5611543753580992),
    8: (0, 0.4896561533310398), 9: (0, 0.9154767007977248),
    10: (0, 0.06260783829267509), 11: (0, 0.9711417995857304),
    12: (0, 0.6539381850099978), 13: (6, 2.412118691458826),
    14: (0, 0.9468440865015872), 15: (0, 0.9755320511473261),
    16: (0, 1.257910035629039), 17: (0, 1.243499713204352),
    18: (0, 0.8674592237051765), 19: (0, 0.07946723936885658),
}


README_N20 = {
    "grid": {"T": 1.0, "N": 20},
    "coefficients": {"mu_C": 0.1, "sigma": 0.2, "f_C": 1.0, "mu_F": 0.05,
                     "w": 1.0, "r": 1.0},
    "production": {"variant": "cobb_douglas", "alpha": 0.25, "beta": 0.25,
                   "gamma": 0.25, "kappa_L": 1e6, "kappa_K": 1e6},
    "scrap": {"variant": "saturating_exponential", "a": 0.5, "b": 1.0},
    "tolerances": {"tol_y": 1e-4, "tol_y_det": 1e-9, "cross_gap": 0.10},
    "mc": {"paths": 4000, "seed": 0, "antithetic": True},
}


# the same table for SCRAP_MODEL, the README model with scrap a = 2.5e4 and
# b = 2e-5 (G'(0) = 0.5 as before), whose scrap carries about 15% of the
# profit where the README scrap carries none; seed 1 fails by the same defect
SCRAP_MODEL_N20 = dict(README_N20, scrap={"variant": "saturating_exponential",
                                          "a": 2.5e4, "b": 2e-5})
SCRAP_VERIFY_OUTCOMES = {
    0: (0, 0.07989803249350867), 1: (6, 3.368167932882249),
    2: (0, 0.23569703012073598), 3: (0, 1.1270190412750853),
    4: (0, 0.24105232342805624), 5: (0, 0.3645410795441842),
    6: (0, 1.2088255058885318), 7: (0, 0.17515134975867983),
    8: (0, 1.4215338721591693), 9: (0, 0.6460126279015459),
    10: (0, 1.6777803201877504), 11: (0, 0.49787539664563896),
    12: (0, 1.676603221600626), 13: (0, 1.2569152640128982),
    14: (0, 0.029414061110629545), 15: (0, 1.1149852294914373),
    16: (0, 1.581886179239935), 17: (0, 0.4035751131178889),
    18: (0, 0.09969012050193497), 19: (0, 1.42606502070869),
}


def _assert_verify_outcomes(tmp_path, config, table):
    cfg = write_cfg(tmp_path, config)
    outcomes = {}
    for seed in table:
        out = tmp_path / str(seed)
        assert cli.main(["solve", "--config", cfg, "--out", str(out), "--seed", str(seed)]) == 0
        rc = cli.main(["verify", "--config", cfg, "--boundary", str(out / "boundary.csv"),
                       "--out", str(out / "ver"), "--seed", str(seed)])
        with open(out / "ver" / "report.json") as fh:
            outcomes[seed] = (rc, json.load(fh)["checks"]["foc"]["worst_violation_se"])
    assert {s: o[0] for s, o in outcomes.items()} == {s: o[0] for s, o in table.items()}
    for seed, (_, z) in outcomes.items():
        assert z == pytest.approx(table[seed][1], rel=1e-9, abs=0.0), seed


def test_verify_outcomes_pinned(tmp_path):
    _assert_verify_outcomes(tmp_path, README_N20, VERIFY_OUTCOMES)


def test_scrap_model_verify_outcomes_pinned(tmp_path):
    _assert_verify_outcomes(tmp_path, SCRAP_MODEL_N20, SCRAP_VERIFY_OUTCOMES)


def _reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


@pytest.mark.parametrize("command, flags, code, file", [
    # one antithetic pair leaves no spread for a standard error, so the FOC
    # check fails with an infinite worst z-score
    ("verify", ["--paths", "2"], 6, "report.json"),
])
def test_non_finite_results_are_strict_json_nulls(tmp_path, command, flags, code, file):
    cfg = write_cfg(tmp_path, README_N20)
    rc, boundary = solve(tmp_path, cfg)
    assert rc == 0
    out = tmp_path / "o"
    with np.errstate(all="ignore"):
        assert cli.main([command, "--config", cfg, "--boundary", boundary,
                         "--out", str(out)] + flags) == code
    with open(out / file) as fh:
        text = fh.read()
    json.loads(text, parse_constant=_reject_constant)
    assert "null" in text


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_overflowing_capacity_exits_2(tmp_path, capsys, command):
    # y times the largest decay factor overflows, so every controlled
    # capacity from this level would be inf; the check comes before any
    # product that would warn
    cfg = write_cfg(tmp_path, README_N20)
    rc, boundary = solve(tmp_path, cfg)
    assert rc == 0
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main([command, "--config", cfg, "--boundary", boundary, "--y", "1.7e308",
                         "--out", str(out)]) == 2
    assert "initial capacity 1.7e+308" in capsys.readouterr().err
    assert not list(out.glob("*.json"))


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


def test_dump_limit_zero_writes_headers_only(solved_small, tmp_path):
    # a limit of 0 is a valid count: no rows are listed, and the estimates
    # are those of any other limit
    d, cfg, _ = solved_small
    summaries = {}
    for limit in ("0", "100"):
        out = tmp_path / limit
        assert cli.main(["simulate", "--config", cfg, "--boundary",
                         os.path.join(d, "solve", "boundary.csv"), "--y", "0.5",
                         "--out", str(out), "--dump-paths", "--dump-limit", limit]) == 0
        with open(out / "manifest.json") as fh:
            summaries[limit] = json.load(fh)["summary"]
    assert (tmp_path / "0" / "controls.csv").read_text() == "path_id,t,nubar,nu,capacity\n"
    assert (tmp_path / "0" / "paths.csv").read_text() == "path_id,t,value,measure\n"
    assert summaries["0"] == summaries["100"]


def test_out_naming_a_file_exits_2(solved_small, tmp_path, capsys):
    d, cfg, _ = solved_small
    boundary = os.path.join(d, "solve", "boundary.csv")
    taken = tmp_path / "taken"
    taken.write_text("keep")
    for argv in (["solve"], ["simulate", "--boundary", boundary, "--y", "0.5"],
                 ["verify", "--boundary", boundary], ["oracle", "--boundary", boundary]):
        assert cli.main([*argv, "--config", cfg, "--out", str(taken)]) == 2, argv[0]
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 4 and all(line.startswith("cannot write outputs: ") for line in err)
    assert taken.read_text() == "keep"


@pytest.mark.parametrize("argv,config,code", [
    (["solve"], {"coefficients": dict(SMALL["coefficients"], sigma=-0.2)}, 3),
    # the decay paths overflow: the solver does not converge
    (["solve"], {"grid": {"T": 1.0, "N": 10},
                 "coefficients": dict(SMALL["coefficients"], sigma=1e3)}, 4),
    (["simulate", "--y", "1.7e308"], {}, 2),
    (["verify", "--y", "1.7e308"], {}, 2),
    # the optimal install hits the top lattice node
    (["oracle"], {"lattice": {"y_min": 1, "y_max": 2, "nodes": 11}}, 2),
    # 10^20 paths are more rows than any array dimension holds
    (["solve"], {"mc": {"paths": 10 ** 20}}, 2),
    (["simulate", "--y", "0.5", "--paths", str(10 ** 20)], {}, 2),
], ids=["negative-sigma", "decay-overflow", "simulate-huge-y", "verify-huge-y",
        "oracle-lattice-top", "solve-paths-beyond-arrays", "simulate-paths-beyond-arrays"])
def test_failed_command_leaves_no_out(solved_small, tmp_path, argv, config, code):
    # --out is made by the first write, so a command that fails before it
    # exits with its own code, also when --out names a file, and leaves nothing
    d, _, _ = solved_small
    cfg = write_cfg(tmp_path, dict(SMALL, **config))
    if argv[0] in ("simulate", "verify"):
        argv = argv + ["--boundary", os.path.join(d, "solve", "boundary.csv")]
    taken, fresh = tmp_path / "taken", tmp_path / "fresh"
    taken.write_text("keep")
    for out in (taken, fresh):
        assert cli.main([*argv, "--config", cfg, "--out", str(out)]) == code, out.name
    assert taken.read_text() == "keep" and not fresh.exists()


def _no_memory(*args, **kwargs):
    raise MemoryError("Unable to allocate 72.8 TiB for an array")


# each run's first large allocation raises as numpy does when it is refused:
# a request that large can be granted lazily and would then really be paid
@pytest.mark.parametrize("argv,config,target", [
    (["solve"], {"grid": {"T": 1.0, "N": 10 ** 13}}, "capexbound.model.TimeGrid.uniform"),
    (["solve"], {"mc": {"paths": 10 ** 11, "seed": 1}}, "capexbound.boundary.sample_decay"),
    (["simulate", "--y", "0.5", "--paths", str(10 ** 11)], {}, "capexbound.cli.simulate"),
    (["oracle"], {"lattice": {"y_min": 1e3, "y_max": 1e6, "nodes": 10 ** 12}},
     "capexbound.verify.Lattice.geometric"),
], ids=["solve-huge-N", "solve-huge-paths", "simulate-huge-paths", "oracle-huge-lattice"])
def test_run_too_large_to_allocate_exits_2(solved_small, tmp_path, capsys, monkeypatch,
                                           argv, config, target):
    d, _, _ = solved_small
    cfg = write_cfg(tmp_path, dict(SMALL, **config))
    if argv[0] == "simulate":
        argv = argv + ["--boundary", os.path.join(d, "solve", "boundary.csv")]
    monkeypatch.setattr(target, _no_memory)
    out = tmp_path / "o"
    assert cli.main([*argv, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("cannot allocate memory for this run: ")
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


_CELLS = st.sampled_from(["x", "", "nan", "inf", "-1", "0", "1e400", "1.5", "1e30"])


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
