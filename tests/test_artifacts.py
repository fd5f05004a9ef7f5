import numpy as np

import capexbound as cb
from capexbound.artifacts import (
    fmt,
    read_boundary_csv,
    write_controls_csv,
    write_paths_csv,
)


def test_controls_csv_shape_and_values(tmp_path):
    grid = cb.TimeGrid.uniform(1.0, 4)
    coeffs = cb.CoefficientSet.build(grid, mu_C=0.1, sigma=0.2, f_C=1.0,
                                     mu_F=0.05, w=1.0, r=1.0)
    batch = cb.simulate(coeffs, 6, cb.MEASURE_P, seed=0)
    plans = cb.zero_plan(batch, 0.5)
    cap = cb.controlled_capacity(batch.values, plans)
    path = tmp_path / "controls.csv"
    write_controls_csv(str(path), grid, plans, cap, limit=3)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "path_id,t,nubar,nu,capacity"
    assert len(lines) == 1 + 3 * (grid.n_steps + 1)
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[4]) == 0.5 * batch.values[0, 0]


def test_paths_csv_carries_measure(tmp_path):
    grid = cb.TimeGrid.uniform(1.0, 3)
    coeffs = cb.CoefficientSet.build(grid, mu_C=0.1, sigma=0.2, f_C=1.0,
                                     mu_F=0.05, w=1.0, r=1.0)
    batch = cb.simulate(coeffs, 4, cb.MEASURE_Q, seed=1)
    path = tmp_path / "paths.csv"
    write_paths_csv(str(path), grid, batch, limit=2)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "path_id,t,value,measure"
    assert all(ln.endswith(",Q") for ln in lines[1:])
    # starts at t = 0, value one
    row = lines[1].split(",")
    assert float(row[1]) == 0.0
    assert float(row[2]) == 1.0


def test_boundary_csv_comment_header_tolerates_blank_lines(tmp_path):
    p = tmp_path / "b.csv"
    p.write_text("# model_hash=deadbeef\n# seed=3\n\nt,yhat,residual,residual_se,iters\n"
                 "0,1,0,0,5\n0.5,0.75,0,0,6\n")
    b = read_boundary_csv(str(p))
    assert b.model_hash == "deadbeef"
    assert b.seed == 3
    assert np.allclose(b.yhat, [1.0, 0.75])
    assert list(b.iters) == [5, 6]


# the row writers format whole rows with '%.17g'; the other files use fmt
EDGE_FLOATS = [0.0, -0.0, 1.0, -1.5, 0.1, 1.0 / 3.0, 2.0 ** -1074, -(2.0 ** -1074),
               2.2250738585072014e-308, 2.225073858507201e-308, 5e-324 * 12345,
               1.7976931348623157e308, 1e16, 1e17, 123456789012345678.0, 1e-5, 1e-4,
               float("inf"), -float("inf"), float("nan"), -float("nan")]


def test_percent_format_is_fmt():
    values = EDGE_FLOATS + np.random.default_rng(0).standard_normal(200).tolist()
    assert ["%.17g" % x for x in values] == [fmt(x) for x in values]
    assert "%.17g" % -0.0 == "-0" and "%.17g" % -float("nan") == "nan"


def test_row_writers_format_every_cell_with_fmt(tmp_path):
    grid = cb.TimeGrid.uniform(1.0, len(EDGE_FLOATS) - 1)
    cells = np.array(EDGE_FLOATS)
    plans = cb.PlanBatch(0.5, np.stack([cells, cells[::-1]]), np.stack([-cells, cells]))
    cap = np.stack([cells[::-1], -cells])
    write_controls_csv(str(tmp_path / "c.csv"), grid, plans, cap)
    expected = ["path_id,t,nubar,nu,capacity"] + [
        ",".join([str(p), fmt(grid.nodes[k]), fmt(plans.nubar[p, k]), fmt(plans.nu[p, k]),
                  fmt(cap[p, k])]) for p in range(2) for k in range(cells.size)]
    assert (tmp_path / "c.csv").read_text() == "\n".join(expected) + "\n"
    batch = cb.PathBatch(grid, cap, cb.MEASURE_Q)
    write_paths_csv(str(tmp_path / "p.csv"), grid, batch, limit=1)
    expected = ["path_id,t,value,measure"] + [
        ",".join(["0", fmt(grid.nodes[k]), fmt(cap[0, k]), "Q"]) for k in range(cells.size)]
    assert (tmp_path / "p.csv").read_text() == "\n".join(expected) + "\n"
