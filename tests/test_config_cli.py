import json
import logging
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from capexbound import cli
from capexbound.artifacts import read_boundary_csv, write_boundary_csv, fmt
from capexbound.boundary import solve_boundary
from capexbound.config import ConfigError, load_config, parse_config


CLOSED_FORM = {
    "grid": {"T": 1.0, "N": 300},
    "coefficients": {"mu_C": 0.0, "sigma": 0.0, "f_C": 1.0, "mu_F": 1.0, "w": 1.0, "r": 1.0},
    "production": {"variant": "power_marginal", "scale": 1.0, "exponent": 1.0},
    "scrap": {"variant": "zero"},
    "mc": {"paths": 500, "seed": 42},
}

STOCHASTIC = {
    "grid": {"T": 1.0, "N": 25},
    "coefficients": {"mu_C": 0.05, "sigma": 0.1, "f_C": 1.0, "mu_F": 0.05, "w": 1.0, "r": 1.0},
    "production": {"variant": "power_marginal", "scale": 0.2, "exponent": 1.0},
    "scrap": {"variant": "saturating_exponential", "a": 0.5, "b": 1.0},
    "mc": {"paths": 3000, "seed": 5},
}

# the README model on a 25-node grid
README_MODEL = {
    "grid": {"T": 1.0, "N": 25},
    "coefficients": {"mu_C": 0.1, "sigma": 0.2, "f_C": 1.0, "mu_F": 0.05, "w": 1.0, "r": 1.0},
    "production": {"variant": "cobb_douglas", "alpha": 0.25, "beta": 0.25, "gamma": 0.25,
                   "kappa_L": 1e6, "kappa_K": 1e6},
    "scrap": {"variant": "saturating_exponential", "a": 0.5, "b": 1.0},
    "mc": {"paths": 400, "seed": 0},
}


def write_cfg(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


class TestConfigParsing:
    def test_good_config(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, STOCHASTIC))
        assert cfg.grid.n_steps == 25
        assert cfg.mc.n_paths == 3000
        assert len(cfg.config_hash) == 64
        assert cfg.model_hash != cfg.config_hash

    def test_unknown_root_key(self):
        bad = dict(STOCHASTIC, extra={"x": 1})
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_unknown_section_key(self):
        bad = json.loads(json.dumps(STOCHASTIC))
        bad["coefficients"]["typo"] = 1.0
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_wrong_node_array_length(self):
        bad = json.loads(json.dumps(STOCHASTIC))
        bad["coefficients"]["w"] = [1.0, 1.0, 1.0]
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_node_array_accepted(self):
        good = json.loads(json.dumps(STOCHASTIC))
        good["coefficients"]["w"] = [1.0] * 26
        cfg = parse_config(good)
        assert np.all(cfg.coeffs.w == 1.0)

    def test_model_hash_ignores_mc_section(self):
        a = parse_config(json.loads(json.dumps(STOCHASTIC)))
        other = json.loads(json.dumps(STOCHASTIC))
        other["mc"]["seed"] = 99
        b = parse_config(other)
        assert a.model_hash == b.model_hash
        assert a.config_hash != b.config_hash


class TestBoundaryCsv:
    def test_round_trip_lossless(self, tmp_path):
        import capexbound as cb
        grid = cb.TimeGrid.uniform(1.0, 7)
        rng = np.random.default_rng(0)
        vals = rng.uniform(0.1, 2.0, 7)
        curve = cb.BoundaryCurve(grid, vals, rng.normal(size=7) * 1e-7,
                                 rng.uniform(1e-9, 1e-6, 7), np.zeros(7),
                                 np.arange(7), meta={})
        path = str(tmp_path / "b.csv")
        write_boundary_csv(path, curve, "abc123", 9)
        back = read_boundary_csv(path)
        assert np.array_equal(back.yhat, vals)
        assert np.array_equal(back.residual, curve.residual)
        assert back.model_hash == "abc123"
        assert back.seed == 9

    def test_solved_file_carries_the_solver_uncertainty(self, tmp_path):
        path = write_cfg(tmp_path, README_MODEL)
        out = str(tmp_path / "run")
        assert cli.main(["solve", "--config", path, "--out", out]) == 0
        cfg = load_config(path)
        solved = solve_boundary(cfg.coeffs, cfg.production, cfg.scrap, mc=cfg.mc,
                                solver=cfg.solver)
        loaded = cli._curve_from_file(os.path.join(out, "boundary.csv"), cfg)
        assert np.all(solved.value_se > 0)
        assert np.array_equal(loaded.value_se, solved.value_se)
        assert np.array_equal(loaded.solver_se, solved.solver_se)

    def test_fmt_17_digits_round_trip(self):
        x = 1.0 / 3.0
        assert float(fmt(x)) == x


class TestCliSolve:
    def test_closed_form_end_to_end(self, tmp_path):
        cfg = write_cfg(tmp_path, CLOSED_FORM)
        out = str(tmp_path / "run")
        rc = cli.main(["solve", "--config", cfg, "--out", out, "--allow-zero-scrap"])
        assert rc == 0
        b = read_boundary_csv(os.path.join(out, "boundary.csv"))
        err = np.abs(b.yhat - (1 - np.exp(-(1 - b.t))))
        assert err.max() <= 1e-6
        manifest = json.loads(open(os.path.join(out, "manifest.json")).read())
        assert manifest["model_hash"] == load_config(cfg).model_hash

    def test_missing_grid_T_exits_2(self, tmp_path):
        bad = json.loads(json.dumps(CLOSED_FORM))
        del bad["grid"]["T"]
        rc = cli.main(["solve", "--config", write_cfg(tmp_path, bad),
                       "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_bad_exponent_sum_exits_3(self, tmp_path):
        bad = json.loads(json.dumps(STOCHASTIC))
        bad["production"] = {"variant": "cobb_douglas", "alpha": 0.3, "beta": 0.4, "gamma": 0.4}
        rc = cli.main(["solve", "--config", write_cfg(tmp_path, bad),
                       "--out", str(tmp_path / "o")])
        assert rc == 3

    @pytest.mark.parametrize("key, value", [("w", 0.0), ("w", -1.0), ("r", 0.0)])
    def test_invalid_cost_exits_3_without_warnings(self, tmp_path, key, value):
        bad = json.loads(json.dumps(STOCHASTIC))
        bad["production"] = {"variant": "cobb_douglas", "alpha": 0.25, "beta": 0.25, "gamma": 0.25}
        bad["coefficients"][key] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["solve", "--config", write_cfg(tmp_path, bad),
                           "--out", str(tmp_path / "o")])
        assert rc == 3

    def test_zero_scrap_needs_flag(self, tmp_path):
        cfg = write_cfg(tmp_path, CLOSED_FORM)
        rc = cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 3

    @pytest.mark.parametrize("scale,exponent", [(0.3, 0.2), (1.0, 0.1), (0.3, 0.1)])
    def test_flat_power_marginal_solves(self, tmp_path, scale, exponent):
        # a marginal this flat was refused as violating Inada by a probe
        # that demanded a 1e3 ratio over C in [1e-6, 1e6]; the last row's
        # root at the horizon lies near 5e-13
        payload = json.loads(json.dumps(STOCHASTIC))
        payload["production"] = {"variant": "power_marginal", "scale": scale,
                                 "exponent": exponent}
        payload["grid"]["N"] = 10
        payload["mc"]["paths"] = 1000
        rc = cli.main(["solve", "--config", write_cfg(tmp_path, payload),
                       "--out", str(tmp_path / "o")])
        assert rc == 0

    @pytest.mark.parametrize("section,key,value", [("grid", "T", 1e-9),
                                                   ("coefficients", "f_C", 1e-8)])
    def test_tiny_units_solve(self, tmp_path, section, key, value):
        # the README model in units that put the whole curve below 1e-11: the
        # bracket reaches any positive float, so the units do not matter
        payload = json.loads(json.dumps(README_MODEL))
        payload[section][key] = value
        out = tmp_path / "o"
        rc = cli.main(["solve", "--config", write_cfg(tmp_path, payload), "--out", str(out)])
        assert rc == 0
        yhat = read_boundary_csv(str(out / "boundary.csv")).yhat
        assert np.all(np.isfinite(yhat) & (yhat > 0))
        assert yhat[-1] < 1e-12

    @staticmethod
    def _power_model_in_units(lam, a=0.5):
        # the README scrap with a power marginal of exponent 0.5, capacity
        # counted in units of 1/lam: the same model, whose curve is lam times
        # the lam = 1 curve
        payload = json.loads(json.dumps(STOCHASTIC))
        payload["grid"]["N"] = 10
        payload["mc"]["paths"] = 500
        payload["production"] = {"variant": "power_marginal", "scale": lam ** 0.5,
                                 "exponent": 0.5}
        payload["scrap"] = {"variant": "saturating_exponential", "a": a * lam, "b": 1.0 / lam}
        return payload

    @pytest.mark.parametrize("lam", [1e7, 1e100, 1e300])
    def test_scrap_in_other_units_solves_to_the_scaled_curve(self, tmp_path, lam):
        # the scrap check holds in any units: a probe of G' on a fixed window
        # of C with absolute thresholds found it flat there from lam = 1e7 on
        curves = []
        for scale in (1.0, lam):
            out = tmp_path / repr(scale)
            cfg = write_cfg(tmp_path, self._power_model_in_units(scale), f"{scale!r}.json")
            assert cli.main(["solve", "--config", cfg, "--out", str(out)]) == 0
            curves.append(read_boundary_csv(str(out / "boundary.csv")).yhat)
        tol_y = load_config(cfg).solver.tol_rel
        assert np.max(np.abs(curves[1] / (lam * curves[0]) - 1.0)) <= 2.0 * tol_y

    @pytest.mark.parametrize("lam", [1.0, 1e300])
    def test_scrap_marginal_above_replacement_cost_exits_3(self, tmp_path, capsys, lam):
        # G'(0) f_C(T) = a b = 2 > 1, in any units
        payload = self._power_model_in_units(lam, a=2.0)
        rc = cli.main(["solve", "--config", write_cfg(tmp_path, payload),
                       "--out", str(tmp_path / "o")])
        assert rc == 3
        assert "scrap" in capsys.readouterr().err

    @pytest.mark.parametrize("section,key,value,kind", [
        ("grid", "T", 2e4, "underflow to 0"),
        ("grid", "T", 1e6, "underflow to 0"),
        ("coefficients", "sigma", 60.0, "overflow"),
    ])
    def test_decay_beyond_double_precision_exits_4(self, tmp_path, capsys, section, key,
                                                   value, kind):
        # the decay paths leave the doubles long before the horizon; the
        # solve stops there instead of dividing 0 by 0 or inf by inf
        payload = json.loads(json.dumps(README_MODEL))
        payload[section][key] = value
        rc = cli.main(["solve", "--config", write_cfg(tmp_path, payload),
                       "--out", str(tmp_path / "o")])
        assert rc == 4
        assert f"decay paths {kind} in double precision" in capsys.readouterr().err

    def test_stochastic_solve_logs_evaluator_summary(self, tmp_path, caplog):
        cfg = write_cfg(tmp_path, STOCHASTIC)
        with caplog.at_level(logging.INFO, logger="capexbound"):
            rc = cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 0
        lines = [r.getMessage() for r in caplog.records if r.name == "capexbound"]
        assert len(lines) == 1
        assert lines[0].startswith("solve: 25 nodes, ")
        assert "evaluator block/dense nodes 25/0" in lines[0]


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("pipeline")
    cfg = write_cfg(tmp, STOCHASTIC)
    out = str(tmp / "solve")
    assert cli.main(["solve", "--config", cfg, "--out", out]) == 0
    return tmp, cfg, os.path.join(out, "boundary.csv")


class TestCliSimulateVerify:
    def test_inactive_control_matches_zero_plan(self, solved, tmp_path):
        tmp, cfg, boundary = solved
        b = read_boundary_csv(boundary)
        y_high = 10.0 * b.yhat.max()
        out = str(tmp_path / "sim")
        rc = cli.main(["simulate", "--config", cfg, "--boundary", boundary,
                       "--y", str(y_high), "--out", out, "--paths", "500"])
        assert rc == 0
        summary = json.loads(open(os.path.join(out, "manifest.json")).read())["summary"]
        assert summary["J_opt"] == summary["J_zero"]
        assert summary["mean_initial_jump"] == 0.0

    def test_initial_jump_on_degenerate_paths(self, tmp_path):
        cfg_payload = json.loads(json.dumps(CLOSED_FORM))
        cfg_payload["grid"]["N"] = 60
        cfg = write_cfg(tmp_path, cfg_payload)
        out = str(tmp_path / "s")
        assert cli.main(["solve", "--config", cfg, "--out", out, "--allow-zero-scrap"]) == 0
        boundary = os.path.join(out, "boundary.csv")
        b = read_boundary_csv(boundary)
        y = 0.5 * b.yhat[0]
        sim_out = str(tmp_path / "sim")
        rc = cli.main(["simulate", "--config", cfg, "--boundary", boundary,
                       "--y", str(y), "--out", sim_out, "--paths", "64"])
        assert rc == 0
        summary = json.loads(open(os.path.join(sim_out, "manifest.json")).read())["summary"]
        assert summary["mean_initial_jump"] == pytest.approx(b.yhat[0] - y, rel=1e-9)

    def test_dominance(self, solved, tmp_path):
        tmp, cfg, boundary = solved
        b = read_boundary_csv(boundary)
        out = str(tmp_path / "sim")
        rc = cli.main(["simulate", "--config", cfg, "--boundary", boundary,
                       "--y", str(0.5 * b.yhat[0]), "--out", out])
        assert rc == 0
        s = json.loads(open(os.path.join(out, "manifest.json")).read())["summary"]
        assert s["J_opt"] >= s["J_zero"] - 2 * s["J_opt_se"]
        assert s["J_opt"] >= s["J_const_rate"] - 2 * s["J_opt_se"]

    def test_hash_mismatch_exits_5(self, solved, tmp_path):
        tmp, cfg, boundary = solved
        other = json.loads(json.dumps(STOCHASTIC))
        other["production"]["scale"] = 0.25
        cfg2 = write_cfg(tmp_path, other, "other.json")
        rc = cli.main(["simulate", "--config", cfg2, "--boundary", boundary,
                       "--y", "0.2", "--out", str(tmp_path / "x")])
        assert rc == 5

    def test_verify_passes(self, solved, tmp_path):
        tmp, cfg, boundary = solved
        out = str(tmp_path / "v")
        rc = cli.main(["verify", "--config", cfg, "--boundary", boundary, "--out", out])
        assert rc == 0
        report = json.loads(open(os.path.join(out, "report.json")).read())
        assert report["hard_pass"]
        assert report["checks"]["foc"]["passed"]

    def test_perturbed_boundary_exits_6(self, solved, tmp_path):
        tmp, cfg, boundary = solved
        lines = open(boundary).read().splitlines()
        out_lines = []
        for ln in lines:
            if ln.startswith("#") or ln.startswith("t,"):
                out_lines.append(ln)
                continue
            parts = ln.split(",")
            parts[1] = fmt(float(parts[1]) * 1.2)
            out_lines.append(",".join(parts))
        perturbed = str(tmp_path / "perturbed.csv")
        open(perturbed, "w").write("\n".join(out_lines) + "\n")
        rc = cli.main(["verify", "--config", cfg, "--boundary", perturbed,
                       "--out", str(tmp_path / "v")])
        assert rc == 6

    def test_oracle_command(self, solved, tmp_path):
        tmp, cfg, boundary = solved
        out = str(tmp_path / "orc")
        rc = cli.main(["oracle", "--config", cfg, "--boundary", boundary, "--out", out])
        assert rc == 0
        report = json.loads(open(os.path.join(out, "report.json")).read())
        assert report["summary"]["shadow_value_max_rel_gap"] < 0.2

    @pytest.mark.parametrize("command,stages", [
        ("verify", ("foc", "stopping_dp", "cross")),
        ("oracle", ("stopping_dp", "value_dp")),
        ("simulate", ("paths", "controls", "profit")),
    ])
    def test_stage_timings_in_manifest_and_log(self, solved, tmp_path, caplog, command, stages):
        tmp, cfg, boundary = solved
        out = str(tmp_path / command)
        flags = ["--y", "0.5"] if command == "simulate" else []
        with caplog.at_level(logging.INFO, logger="capexbound"):
            rc = cli.main([command, "--config", cfg, "--boundary", boundary, "--out", out,
                           *flags])
        assert rc == 0
        manifest = "manifest.json" if command == "simulate" else "report.json"
        timings = json.loads(open(os.path.join(out, manifest)).read())["timings"]
        assert set(timings) == {f"{s}_s" for s in (*stages, command)}
        assert all(v >= 0.0 for v in timings.values())
        assert sum(timings[f"{s}_s"] for s in stages) <= timings[f"{command}_s"]
        lines = [r.getMessage() for r in caplog.records if r.name == "capexbound"]
        if command == "simulate":
            # the three profit estimates follow the stages
            assert lines[-1].startswith("simulate: J(opt) ")
            lines = lines[:-1]
        assert [ln.split(" took ")[0] for ln in lines] == [f"{command}: {s}" for s in stages]


class TestReproducibility:
    def test_repeated_solve_gives_same_bytes(self, tmp_path):
        cfg = write_cfg(tmp_path, STOCHASTIC)
        outs = []
        for run in ("a", "b"):
            out = str(tmp_path / f"run_{run}")
            assert cli.main(["solve", "--config", cfg, "--out", out]) == 0
            outs.append(open(os.path.join(out, "boundary.csv"), "rb").read())
        assert outs[0] == outs[1]

    def test_solve_agrees_across_simd_dispatch_levels(self, tmp_path):
        # numpy picks its SIMD kernels for the CPU at import; the AVX2 and
        # AVX-512 ones round some sums differently, so the residual columns
        # differ between them in their last digits (bytes are reproducible on
        # one machine only), while the curve stays within the tolerance.  On a
        # CPU without these features the variable changes nothing.
        payload = json.loads(json.dumps(README_MODEL))
        payload["grid"]["N"] = 40
        payload["mc"]["paths"] = 4000
        cfg = write_cfg(tmp_path, payload)
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
        curves = []
        for disabled in ("", "AVX512_SPR AVX512_ICL X86_V4"):
            out = tmp_path / f"level{len(curves)}"
            env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=disabled, PYTHONPATH=os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")])))
            proc = subprocess.run([sys.executable, "-m", "capexbound.cli", "solve", "--config", cfg,
                                   "--out", str(out)], env=env, capture_output=True, text=True,
                                  timeout=300)
            assert proc.returncode == 0, proc.stderr
            curves.append(read_boundary_csv(str(out / "boundary.csv")).yhat)
        tol_y = load_config(cfg).solver.tol_rel
        assert np.max(np.abs(curves[1] / curves[0] - 1.0)) <= tol_y
