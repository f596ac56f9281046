import contextlib
import errno
import json
import os
import time

import numpy as np
import pytest

from itoarb import cli, tables
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
    write_long_csv(p, ["k", "a", "v1", "v2", "v3"], keys, axis, values.__getitem__)
    expected = "k,a,v1,v2,v3\n" + "".join(
        ",".join(f"{v:.12g}" for v in (k, x, *values[i, j])) + "\n"
        for i, k in enumerate(keys) for j, x in enumerate(axis))
    assert p.read_bytes().decode() == expected
    # one value column: a block per key may be 1-D
    write_long_csv(p, ["k", "a", "v"], range(2), axis, lambda i: values[i, :, 0])
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


def test_failed_write_keeps_the_old_table(tmp_path):
    # a table is written whole or not at all: a block that raises leaves the
    # file as it was and no .partial beside it
    p = tmp_path / "t.csv"
    write_csv(p, ["a"], [np.ones((2, 1))])
    before = p.read_bytes()

    def blocks(shape):
        yield np.zeros(shape)
        raise RuntimeError("no more rows")

    def block(i):
        if i == 1:
            raise RuntimeError("no more rows")
        return np.zeros(1)

    with pytest.raises(RuntimeError):
        write_csv(p, ["a"], blocks((3, 1)))
    with pytest.raises(RuntimeError):
        write_long_csv(p, ["k", "a", "v"], range(3), [1.0], block)
    assert p.read_bytes() == before
    assert sorted(q.name for q in tmp_path.iterdir()) == ["t.csv"]


MARKET = {"alpha": [0.05, 0.05], "sigma": [[0.2], [0.1]], "short_rate": [0.0, 0.0]}
PDE_CALL = {"call": {"strike": 100.0, "maturity": 1.0, "sigma": 0.2, "rho": 0.02},
            "pde_grid": {"n_x": 65, "n_t": 64}}


@pytest.mark.parametrize("command, payload, failing, left", [
    ("solve-pde", PDE_CALL, 3, []),  # in the surface, after the header and one block
    ("check-zc", {"market": MARKET}, 2, []),  # in zc_report.csv, after its header
    ("check-zc", {"market": MARKET}, 3, ["zc_report.csv"]),  # in run_meta.json
], ids=["pde-surface", "zc-report", "run-meta"])
def test_disk_full_leaves_no_part_written_file(tmp_path, monkeypatch, capsys, command, payload,
                                               failing, left):
    # every output file is renamed into place only when whole: a write that
    # fails for a full disk exits 2 and leaves no .partial, no truncated file
    # and, for solve-pde, no spill
    class DiskFull:
        writes = 0

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            DiskFull.writes += 1
            if DiskFull.writes == failing:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return self.fh.write(data)

    monkeypatch.setattr(tables, "open", lambda path, mode: DiskFull(open(path, mode)),
                        raising=False)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"schema_version": 1, **payload}))
    out = tmp_path / "o"
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output") and "Traceback" not in err
    assert DiskFull.writes == failing
    assert sorted(p.name for p in out.iterdir()) == left


def usable_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def test_forked_returns_the_child_value_or_raises_its_exception(monkeypatch, forked_pids):
    usable_cpus(monkeypatch, 2)
    with tables.forked(divmod, 17, 5) as result:
        assert result() == (3, 2)
    # the exception keeps its type and fields, an OSError its errno
    with tables.forked(os.open, "/nonexistent-dir/x", os.O_RDONLY) as result:
        with pytest.raises(FileNotFoundError) as info:
            result()
    assert info.value.errno == errno.ENOENT
    with tables.forked(lambda: lambda: None) as result:  # a value pickle cannot send
        with pytest.raises(RuntimeError, match="the forked <lambda> ended without a result"):
            result()
    with tables.forked(os._exit, 0) as result:
        with pytest.raises(RuntimeError, match="the forked _exit ended without a result"):
            result()
    assert len(forked_pids) == 4


def test_forked_runs_inline_on_one_cpu(monkeypatch, forked_pids):
    usable_cpus(monkeypatch, 1)
    calls = []
    with tables.forked(calls.append, 1) as result:
        result()
    assert calls == [1] and forked_pids == []


@pytest.mark.parametrize("raises", [True, False], ids=["block-raises", "never-waited"])
def test_forked_kills_and_reaps_a_child_left_running(monkeypatch, forked_pids, raises):
    # a child still at work when the block ends is killed, not waited for
    usable_cpus(monkeypatch, 2)
    start = time.monotonic()
    with pytest.raises(KeyError) if raises else contextlib.nullcontext():
        with tables.forked(time.sleep, 60):
            if raises:
                raise KeyError("the parent's side failed")
    assert time.monotonic() - start < 30
    (pid,) = forked_pids
    with pytest.raises(ChildProcessError):  # already reaped
        os.waitpid(pid, os.WNOHANG)


# a table of 3 MIN_PART_CELLS (key, axis) cells, two value columns
LONG_KEYS = np.arange(301) * 0.25
LONG_AXIS = np.linspace(0.5, 1.5, 3 * tables.MIN_PART_CELLS // LONG_KEYS.size + 1)
LONG_VALUES = np.sin(LONG_KEYS[:, None, None] * LONG_AXIS[None, :, None] + np.arange(2))


@pytest.mark.parametrize("cpus, parts", [(2, 2), (3, 3), (4, 3)])
def test_long_table_split_across_cpus_is_the_same_file(tmp_path, monkeypatch, forked_pids,
                                                       cpus, parts):
    # a table of 2 MIN_PART_CELLS cells or more is written in one part per
    # usable CPU, each of at least MIN_PART_CELLS and each past the first by
    # a child, and across the processes block(i) is called once per key:
    # each logs its key to one O_APPEND file
    header, keys, axis = ["k", "a", "v", "w"], LONG_KEYS, LONG_AXIS
    usable_cpus(monkeypatch, cpus)
    write_long_csv(tmp_path / "small.csv", header, keys[:3], axis, LONG_VALUES.__getitem__)
    assert forked_pids == []  # a small table stays in one process
    usable_cpus(monkeypatch, 1)
    write_long_csv(tmp_path / "one.csv", header, keys, axis, LONG_VALUES.__getitem__)
    usable_cpus(monkeypatch, cpus)
    with open(tmp_path / "calls", "ab", buffering=0) as log:
        def block(i):
            log.write(b"%d\n" % i)
            return LONG_VALUES[i]

        write_long_csv(tmp_path / "split.csv", header, keys, axis, block)
    assert len(forked_pids) == parts - 1
    assert sorted(map(int, (tmp_path / "calls").read_bytes().split())) == list(range(keys.size))
    assert (tmp_path / "split.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()
    assert sorted(q.name for q in tmp_path.iterdir()) == ["calls", "one.csv", "small.csv",
                                                          "split.csv"]


def test_long_table_parts_run_inline_without_fork(tmp_path, monkeypatch, forked_pids):
    # with two CPUs and no os.fork the table is still cut in two, the second
    # part is written inline, and the file is the one-CPU file
    header, keys, axis = ["k", "a", "v", "w"], LONG_KEYS, LONG_AXIS
    usable_cpus(monkeypatch, 1)
    write_long_csv(tmp_path / "one.csv", header, keys, axis, LONG_VALUES.__getitem__)
    usable_cpus(monkeypatch, 2)
    monkeypatch.delattr(os, "fork")
    parts, write_blocks = [], tables._write_blocks

    def recording(fh, rows, part_keys, blocks):
        parts.append(part_keys)
        write_blocks(fh, rows, part_keys, blocks)

    monkeypatch.setattr(tables, "_write_blocks", recording)
    write_long_csv(tmp_path / "inline.csv", header, keys, axis, LONG_VALUES.__getitem__)
    assert parts == [keys[:150].tolist(), keys[150:].tolist()] and forked_pids == []
    assert (tmp_path / "inline.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()
    assert sorted(q.name for q in tmp_path.iterdir()) == ["inline.csv", "one.csv"]
