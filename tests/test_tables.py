import json

import numpy as np

from itoarb import cli
from itoarb.fdsolver import PdeGrid, solve
from itoarb.pricing import CallSpec
from itoarb.tables import write_csv, write_long_csv

# awkward values whose text must match the f"{v:.12g}" cells every writer
# emitted before the shared writer
SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 1e-5, 1e16, 0.1 + 0.2, 2 / 3, 123456789012.0]


def test_write_csv_matches_per_cell_format(tmp_path):
    rows = np.column_stack([np.arange(len(SPECIAL)), SPECIAL, np.array(SPECIAL)[::-1]])
    p = tmp_path / "t.csv"
    # the blocks only chunk the rows; a zero-row block writes nothing
    write_csv(p, ["i", "a", "b"], [rows[:4], np.empty((0, 3)), rows[4:]])
    text = p.read_bytes().decode()
    assert text == "i,a,b\n" + "".join(
        ",".join(f"{v:.12g}" for v in row) + "\n" for row in rows)
    lines = text.splitlines()[1:]
    # an integer column reads as the integers themselves
    assert [line.split(",")[0] for line in lines] == [str(i) for i in range(len(SPECIAL))]
    assert lines[:4] == ["0,nan,123456789012", "1,inf,0.666666666667", "2,-inf,0.3", "3,-0,1e+16"]


def test_write_long_csv_matches_per_cell_format(tmp_path):
    # SPECIAL in the key, axis and value positions, three value columns per row
    keys = np.array(SPECIAL[::-1])
    axis = np.array(SPECIAL[:5])
    values = np.array(SPECIAL)[(np.arange(keys.size)[:, None, None]
                                + np.arange(axis.size)[None, :, None]
                                + np.arange(3)) % len(SPECIAL)]
    p = tmp_path / "long.csv"
    write_long_csv(p, ["k", "a", "v1", "v2", "v3"], keys, axis, values)
    expected = "k,a,v1,v2,v3\n" + "".join(
        ",".join(f"{v:.12g}" for v in (k, x, *values[i, j])) + "\n"
        for i, k in enumerate(keys) for j, x in enumerate(axis))
    assert p.read_bytes().decode() == expected
    # one value column: a block per key may be 1-D, and blocks may be lazy
    write_long_csv(p, ["k", "a", "v"], range(2), axis, (values[i, :, 0] for i in range(2)))
    assert p.read_bytes().decode() == "k,a,v\n" + "".join(
        f"{i},{x:.12g},{values[i, j, 0]:.12g}\n" for i in range(2) for j, x in enumerate(axis))


def test_pde_surface_is_the_column_stack_table(tmp_path):
    # solve-pde's long writer against write_csv over one (t, X, Phi) block per t
    call = {"strike": 100.0, "maturity": 1.0, "sigma": 0.2, "rho": 0.02}
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"schema_version": 1, "call": call,
                               "pde_grid": {"n_x": 65, "n_t": 64}}))
    assert cli.main(["solve-pde", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    spec = CallSpec(**call)
    result = solve(spec, PdeGrid(n_x=65, n_t=64))
    write_csv(tmp_path / "ref.csv", ["t", "X", "Phi"],
              (np.column_stack([np.full(result.x_nodes.size, t), result.x_nodes, row])
               for t, row in zip(result.t_nodes, result.surface)))
    assert (tmp_path / "o" / "pde_surface.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
