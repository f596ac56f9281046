import numpy as np

from itoarb.tables import write_csv

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
