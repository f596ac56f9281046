import ast
import contextlib
import copy
import dataclasses
import errno
import functools
import hashlib
import io
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bs_oracle import bs_call
from itoarb import cli, fdsolver, pricing, tables


def write_cfg(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return p


def run(args):
    return cli.main([str(a) for a in args])


BASE_CALL = {"strike": 100.0, "maturity": 1.0, "sigma": 0.2, "rho": 0.0, "rate": 0.0}


def sim_cfg(alpha=(0.05, 0.05), **estimator):
    return {
        "schema_version": 1,
        "seed": 77,
        "market": {
            "alpha": list(alpha),
            "sigma": [[0.2], [0.1]],
            "short_rate": [0.0, 0.0],
        },
        "estimator": {
            "paths": 512,
            "dt": 0.01,
            "horizon": 1.0,
            "lag_steps": 5,
            "report_times": [0.3, 0.5, 0.7],
            "export_csv_paths": 2,
            **estimator,
        },
    }


# ---------------------------------------------------------------- config


def test_unknown_key_rejected(tmp_path):
    cfg = write_cfg(tmp_path, "bad.json", {"schema_version": 1, "bogus": 1})
    assert run(["check-zc", "--config", cfg, "--out", tmp_path / "o"]) == 2
    # unknown keys nested inside a section are rejected too
    nested = sim_cfg()
    nested["estimator"]["neighbors"] = 16
    cfg = write_cfg(tmp_path, "nested.json", nested)
    assert run(["simulate", "--config", cfg, "--out", tmp_path / "o"]) == 2
    # compare.mismatch_tolerance was accepted once but never read
    tolerance = {"schema_version": 1, "call": BASE_CALL,
                 "compare": {"mismatch_tolerance": 1e-3}}
    cfg = write_cfg(tmp_path, "tol.json", tolerance)
    assert run(["compare", "--config", cfg, "--out", tmp_path / "o"]) == 2


def test_schema_is_valid():
    jsonschema.validators.validator_for(cli.CONFIG_SCHEMA).check_schema(cli.CONFIG_SCHEMA)


def subschemas(schema):
    """``schema`` and every schema nested in it."""
    yield schema
    for child in [*schema.get("properties", {}).values(), *schema.get("oneOf", ())]:
        yield from subschemas(child)
    if "items" in schema:
        yield from subschemas(schema["items"])


def schema_fields(schema, path=()):
    """``(key path, schema)`` of every config field, found through ``properties``."""
    for key, sub in schema.get("properties", {}).items():
        yield path + (key,), sub
        yield from schema_fields(sub, path + (key,))


# the keywords cli._violation implements
WALKER_KEYWORDS = {"type", "const", "minimum", "maximum", "exclusiveMinimum", "required",
                   "properties", "additionalProperties", "items", "minItems", "uniqueItems",
                   "oneOf"}


def test_schema_uses_only_keywords_the_checker_implements():
    # a keyword the checker does not know would be ignored without a word
    for schema in subschemas(cli.CONFIG_SCHEMA):
        assert set(schema) <= WALKER_KEYWORDS, schema
        assert schema.get("type", "number") in cli._TYPES, schema
        assert schema.get("additionalProperties", False) is False, schema


@pytest.mark.parametrize("section, grid", [("pricing_grid", pricing.TransformGrid),
                                           ("pde_grid", fdsolver.PdeGrid)])
def test_grid_fields_are_their_config_section(section, grid):
    # a config field the grid ignores, or a grid knob no config can set,
    # breaks the one-to-one map from the section to the grid
    fields = [f.name for f in dataclasses.fields(grid)]
    assert fields == list(cli.CONFIG_SCHEMA["properties"][section]["properties"])


@pytest.mark.parametrize("section, grid, field, floor", [
    ("pricing_grid", pricing.TransformGrid, "n_tau", pricing.MIN_N_TAU),
    ("pricing_grid", pricing.TransformGrid, "n_y", pricing.MIN_N_Y),
    ("pricing_grid", pricing.TransformGrid, "n_time_quad", pricing.MIN_N_TIME_QUAD),
    ("pricing_grid", pricing.TransformGrid, "n_space_quad", pricing.MIN_N_SPACE_QUAD),
    ("pde_grid", fdsolver.PdeGrid, "n_x", fdsolver.MIN_N_X),
    ("pde_grid", fdsolver.PdeGrid, "n_t", fdsolver.MIN_N_T),
], ids=lambda v: v if isinstance(v, str) else None)
def test_schema_minimum_is_the_grid_floor(section, grid, field, floor):
    # the schema refuses exactly the sizes the grid refuses
    assert cli.CONFIG_SCHEMA["properties"][section]["properties"][field]["minimum"] == floor
    grid(**{field: floor})
    with pytest.raises(ValueError):
        grid(**{field: floor - 1})


# every section and every field of the schema, each at a valid value
FULL_CFG = {
    "schema_version": 1,
    "seed": 7,
    "zc_tolerance": 1e-8,
    "market": {"times": [0.0, 0.5], "alpha": [[0.05, 0.05], [0.04, 0.05]],
               "sigma": [[[0.2], [0.1]], [[0.2], [0.1]]], "short_rate": [0.0, 0.0]},
    "call": dict(BASE_CALL, rho=0.02),
    "pricing_grid": {"n_tau": 48, "n_y": 129, "y_half": 0.8,
                     "n_time_quad": 64, "n_space_quad": 161},
    "pde_grid": {"n_x": 257, "n_t": 256, "x_min": 20.0, "x_max": 500.0},
    "surface_output": {"times": [0.0, 0.5, 1.0], "moneyness": [0.9, 1.0, 1.1]},
    "compare": {"rhos": [0.01, 0.02, 0.04], "probe_moneyness": [0.9, 1.0]},
    "estimator": {"paths": 20000, "dt": 0.005, "horizon": 1.0, "lag_steps": 5,
                  "report_times": [0.3, 0.5], "export_csv_paths": 2},
}
INTEGER_FIELDS = [path for path, sub in schema_fields(cli.CONFIG_SCHEMA)
                  if sub.get("type") == "integer"]


@pytest.mark.parametrize("field", INTEGER_FIELDS, ids=".".join)
def test_integral_float_in_integer_field_is_usage_error(tmp_path, capsys, field):
    # JSON Schema counts 512.0 as an integer, but the library needs an int
    # (an array size, a seed, a slice bound): such a config once passed the
    # schema and crashed its command with a TypeError
    payload = copy.deepcopy(FULL_CFG)
    assert cli._violation(cli.CONFIG_SCHEMA, payload, "") is None
    *sections, key = field
    section = functools.reduce(dict.__getitem__, sections, payload)
    section[key] = float(section[key])
    cfg = write_cfg(tmp_path, "float.json", payload)
    command = {"pricing_grid": "price", "pde_grid": "solve-pde",
               "estimator": "simulate"}.get(field[0], "check-zc")
    out = tmp_path / "o"
    assert run([command, "--config", cfg, "--out", out]) == 2
    assert capsys.readouterr().err == (f"error: config schema violation: {'.'.join(field)}: "
                                       f"{section[key]!r} is not of type 'integer'\n")
    assert not out.exists()


@pytest.mark.parametrize("payload, message", [
    ({"call": dict(BASE_CALL, rho=-5.0)}, "call.rho: -5.0 is less than the minimum of 0"),
    ({"seed": True}, "seed: True is not of type 'integer'"),
    ({"market": {"alpha": [0.05], "sigma": [[0.2]]}},
     "market.short_rate: required key is missing"),
    ({"estimator": dict(sim_cfg()["estimator"], neighbors=16)},
     "estimator.neighbors: unknown key"),
    ({"compare": {"rhos": [0.01, -0.02]}},
     "compare.rhos[1]: -0.02 is less than or equal to the minimum of 0"),
    ({"compare": {"rhos": [0.02, 0.02]}}, "compare.rhos: [0.02, 0.02] has non-unique elements"),
    ({"market": {"alpha": [0.05], "sigma": [0.2], "short_rate": [0.0]}},
     "market.sigma: matches 0 of the 2 allowed forms"),
    ({"surface_output": {"times": []}}, "surface_output.times: [] has fewer than 1 items"),
], ids=["minimum", "bool", "required", "unknown", "item", "unique", "one-of", "min-items"])
def test_schema_violation_names_the_field(tmp_path, payload, message):
    cfg = write_cfg(tmp_path, "bad.json", {"schema_version": 1, **payload})
    with pytest.raises(cli.ConfigError) as info:
        cli.load_config(cfg)
    assert str(info.value) == f"config schema violation: {message}"


# jsonschema is the oracle; with "integer" read as a JSON integer (an int
# that is not a bool) it must agree with the checker on every config
_Draft = jsonschema.validators.validator_for(cli.CONFIG_SCHEMA)
STOCK = _Draft(cli.CONFIG_SCHEMA)
STRICT = jsonschema.validators.extend(_Draft, type_checker=_Draft.TYPE_CHECKER.redefine(
    "integer", lambda _, v: isinstance(v, int) and not isinstance(v, bool)))(cli.CONFIG_SCHEMA)
BOUNDS = sorted({s[k] for s in subschemas(cli.CONFIG_SCHEMA)
                 for k in ("minimum", "maximum", "exclusiveMinimum") if k in s})
NUMBERS = [v for b in BOUNDS for v in (b, b - 1, b + 1, float(b), b - 0.5, b + 0.5, -b)]
NUMBERS += [-0.0, 1e-300, 0.25, 2**40, 1e300]
ODD_VALUES = ["x", None, True, False, {}, [], {"a": 1}, [1.0], [[1.0]]]


def _slots(value, parent, key):
    """``(container, key)`` of ``value`` and of everything nested in it."""
    yield parent, key
    if isinstance(value, (dict, list)):
        for k, child in (value.items() if isinstance(value, dict) else enumerate(value)):
            yield from _slots(child, value, k)


def _mutate(box, rng):
    """Apply one random mutation somewhere in the config held in ``box[0]``."""
    slots = list(_slots(box[0], box, 0))
    op = rng.choice(["odd", "number", "float", "delete", "unknown", "empty", "wrap",
                     "unwrap", "duplicate"])
    if op == "float":  # an int turned into the float of the same value
        slots = [(p, k) for p, k in slots if type(p[k]) is int] or slots
    parent, key = rng.choice(slots)
    value = parent[key]
    if op == "odd":
        parent[key] = rng.choice(ODD_VALUES)
    elif op == "number":
        parent[key] = rng.choice(NUMBERS)
    elif op == "float" and type(value) is int:
        parent[key] = float(value)
    elif op == "delete" and isinstance(value, (dict, list)) and value:
        del value[rng.choice(list(value) if isinstance(value, dict) else range(len(value)))]
    elif op == "unknown" and isinstance(value, dict):
        value["bogus"] = 1
    elif op == "empty":
        parent[key] = {} if isinstance(value, dict) else []
    elif op == "wrap":
        parent[key] = [value]
    elif op == "unwrap" and isinstance(value, list) and value:
        parent[key] = value[0]
    elif op == "duplicate" and isinstance(value, list) and value:
        value.append(copy.deepcopy(value[rng.randrange(len(value))]))


def test_one_of_means_exactly_one_branch():
    # CONFIG_SCHEMA's branches are disjoint, so only a schema of its own shows it
    schema = {"oneOf": [{"type": "number"}, {"type": "integer"}]}
    oracle = jsonschema.validators.validator_for(schema)(schema)
    for value in (2.5, 3, "x"):  # one branch, both, none
        assert (cli._violation(schema, value, "v") is None) == oracle.is_valid(value)


README_CALL = {"schema_version": 1, "call": dict(BASE_CALL, rho=0.02),
               "pricing_grid": {"n_tau": 48, "n_y": 129, "y_half": 0.8},
               "pde_grid": {"n_x": 257, "n_t": 256}, "compare": {"rhos": [0.01, 0.02, 0.04]},
               "surface_output": {"times": [0.0, 0.5, 1.0], "moneyness": [0.9, 1.0, 1.1]}}
BENCH_MARKET = {"schema_version": 1, "seed": 1234,
                "market": {"alpha": [0.0634, 0.0312], "sigma": [[0.3], [0.15]],
                           "short_rate": [0.0, 0.0]},
                "estimator": {"paths": 20000, "dt": 0.005, "horizon": 1.0}}


@pytest.mark.parametrize("seed, base", [(11, FULL_CFG), (12, README_CALL), (13, BENCH_MARKET),
                                        (14, sim_cfg())],
                         ids=["full", "readme-call", "bench-market", "sim-market"])
def test_checker_agrees_with_jsonschema(seed, base):
    rng = random.Random(seed)
    verdicts = {"accepted": 0, "rejected": 0, "integral float": 0}
    for _ in range(1000):
        box = [copy.deepcopy(base)]
        for _ in range(rng.randint(1, 3)):
            _mutate(box, rng)
        cfg = box[0]
        found = cli._violation(cli.CONFIG_SCHEMA, cfg, "")
        assert (found is None) == STRICT.is_valid(cfg), (cfg, found)
        if found is None:  # then the stock reading accepts it too
            verdicts["accepted"] += 1
        elif STOCK.is_valid(cfg):  # the one intended difference
            literal = found.split(": ", 1)[1].removesuffix(" is not of type 'integer'")
            value = ast.literal_eval(literal)
            assert isinstance(value, float) and value.is_integer(), (cfg, found)
            verdicts["integral float"] += 1
        else:
            verdicts["rejected"] += 1
    assert min(verdicts.values()) >= 20, verdicts


def test_malformed_json_rejected(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert run(["price", "--config", p, "--out", tmp_path / "o"]) == 2
    p.write_bytes(b"\xff\xfe{}")  # not UTF-8
    assert run(["price", "--config", p, "--out", tmp_path / "o"]) == 2


def test_wrong_schema_version_rejected(tmp_path):
    cfg = write_cfg(tmp_path, "v9.json", {"schema_version": 9})
    assert run(["price", "--config", cfg, "--out", tmp_path / "o"]) == 2


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_non_finite_number_rejected(tmp_path, literal):
    text = json.dumps(price_cfg()).replace('"rho": 0.0', f'"rho": {literal}')
    p = tmp_path / "nan.json"
    p.write_text(text)
    out = tmp_path / "o"
    assert run(["price", "--config", p, "--out", out]) == 2
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("command, payload", [
    ("solve-pde", {"call": BASE_CALL, "pde_grid": {"x_min": 200.0, "x_max": 50.0}}),
    ("compare", {"call": BASE_CALL, "compare": {"rhos": [0.02]}}),
    ("compare", {"call": BASE_CALL, "compare": {"rhos": [0.0, 0.02]}}),
    ("compare", {"call": BASE_CALL, "compare": {"rhos": [0.02, 0.02]}}),
    # outside the compare series grid, |log m| <= 0.6
    ("compare", {"call": BASE_CALL, "compare": {"probe_moneyness": [1.9]}}),
    ("check-zc", {"market": {"alpha": [0.05, 0.05, 0.05], "sigma": [[0.2], [0.1]],
                             "short_rate": [0.0, 0.0]}}),
    ("simulate", sim_cfg(dt=0.3)),  # horizon 1.0 is not a whole number of steps
    ("simulate", sim_cfg(report_times=[0.01])),  # below t_min = 10 dt
    ("simulate", sim_cfg(report_times=[0.98])),  # lag window past the horizon
    # step 3 < 10, however small dt is
    ("simulate", sim_cfg(dt=1e-14, horizon=1e-12, lag_steps=1, report_times=[3e-14])),
], ids=["pde-domain-reversed", "one-rho", "zero-rho", "repeated-rho",
        "probe-off-grid", "alpha-length", "horizon-steps", "before-t-min",
        "lag-past-horizon", "tiny-dt-before-t-min"])
def test_bad_config_value_is_usage_error(tmp_path, capsys, command, payload):
    cfg = write_cfg(tmp_path, "bad.json", {"schema_version": 1, **payload})
    out = tmp_path / "o"
    assert run([command, "--config", cfg, "--out", out]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("exc", [ValueError, RuntimeError, FloatingPointError, TypeError,
                                 KeyError])
def test_internal_failure_has_own_exit_code(tmp_path, monkeypatch, capsys, exc):
    def failing(cfg, out):
        raise exc("boom")

    monkeypatch.setitem(cli.COMMANDS, "solve-pde", failing)
    cfg = write_cfg(tmp_path, "s.json", {"schema_version": 1, "call": BASE_CALL})
    assert run(["solve-pde", "--config", cfg, "--out", tmp_path / "o"]) == 3
    # an exception the numerics do not raise on purpose is named by its type
    message = "boom" if exc in (ValueError, RuntimeError, FloatingPointError) \
        else f"{exc.__name__}: {exc('boom')}"
    assert f"error [solve-pde]: internal failure: {message}" in capsys.readouterr().err


def test_unwritable_out_is_usage_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "s.json", {"schema_version": 1, "call": BASE_CALL})
    out = tmp_path / "o"
    out.write_text("a file, not a directory")
    assert run(["solve-pde", "--config", cfg, "--out", out]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write output: ")
    assert out.read_text() == "a file, not a directory"


def pde_cfg(tmp_path, n_x=65, n_t=64):
    return write_cfg(tmp_path, f"pde{n_x}x{n_t}.json", {
        "schema_version": 1, "call": {**BASE_CALL, "rho": 0.02},
        "pde_grid": {"n_x": n_x, "n_t": n_t}})


def test_solve_pde_memory_does_not_grow_with_n_t(tmp_path):
    # the march spills each row as it comes out, so solve-pde holds rows of
    # n_x prices, never the (n_t + 1) x n_x surface the table lists from t = 0 up
    def peak(n_t):
        cfg, out = pde_cfg(tmp_path, 257, n_t), tmp_path / f"o{n_t}"
        tracemalloc.start()
        try:
            assert run(["solve-pde", "--config", cfg, "--out", out]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            shutil.rmtree(out)

    assert run(["solve-pde", "--config", pde_cfg(tmp_path), "--out", tmp_path / "warm"]) == 0
    short, long = peak(256), peak(4096)
    surface = 257 * 4097 * 8
    assert long - short < 1e6 and long < surface, (short, long, surface)


def test_solve_pde_failed_march_writes_nothing(tmp_path, monkeypatch, capsys):
    # the march ends before pde_surface.csv is opened, and the spill has no name
    march = fdsolver._march

    def failing(*args):
        for k, row in enumerate(march(*args)):
            if k == 10:
                raise RuntimeError("price row below the positivity floor")
            yield row

    monkeypatch.setattr(fdsolver, "_march", failing)
    out = tmp_path / "o"
    assert run(["solve-pde", "--config", pde_cfg(tmp_path), "--out", out]) == 3
    assert "internal failure: price row below" in capsys.readouterr().err
    assert not any(out.iterdir())


def test_solve_pde_spill_disk_full_writes_nothing(tmp_path, monkeypatch, capsys):
    calls = itertools.count(1)
    pwrite = os.pwrite

    def disk_full(fd, data, offset):
        if next(calls) == 10:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return pwrite(fd, data, offset)

    monkeypatch.setattr(os, "pwrite", disk_full)
    out = tmp_path / "o"
    assert run(["solve-pde", "--config", pde_cfg(tmp_path), "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output") and "Traceback" not in err
    assert next(calls) > 10  # the failing write was reached
    assert not any(out.iterdir())


def usable_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def test_forked_work_writes_the_same_files(tmp_path, monkeypatch, forked_pids):
    # with two CPUs compare marches its finer resolution in a child and
    # solve-pde formats half of its 257 x 513 surface (above 2 MIN_PART_CELLS)
    # in one; every file is the one a single process writes
    cfg = write_cfg(tmp_path, "c.json", dict(README_CALL, pde_grid={"n_x": 257, "n_t": 512}))
    digests = {}
    for cpus in (1, 2):
        usable_cpus(monkeypatch, cpus)
        for command in ("compare", "solve-pde"):
            out = tmp_path / f"{command}-{cpus}"
            assert run([command, "--config", cfg, "--out", out]) == 0
            digests[cpus, command] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                                      for p in out.iterdir()}
        assert len(forked_pids) == 2 * (cpus - 1)
    for command in ("compare", "solve-pde"):
        assert digests[1, command] == digests[2, command]
    assert sorted(digests[2, "solve-pde"]) == ["pde_surface.csv", "run_meta.json"]


def test_compare_forked_march_failure_writes_nothing(tmp_path, monkeypatch, capsys,
                                                     forked_pids):
    # the child's exception reaches the command with its type: exit 3
    usable_cpus(monkeypatch, 2)
    parent, march = os.getpid(), fdsolver._march

    def failing(spec, x, t, rate, rhos):
        if os.getpid() != parent and t.size - 1 == 2 * fdsolver.COMPARE_N_T:
            raise RuntimeError("price row below the positivity floor in the finer march")
        return march(spec, x, t, rate, rhos)

    monkeypatch.setattr(fdsolver, "_march", failing)
    out = tmp_path / "o"
    assert run(["compare", "--config", write_cfg(tmp_path, "c.json", README_CALL),
                "--out", out]) == 3
    assert ("error [compare]: internal failure: price row below the positivity floor in the "
            "finer march") in capsys.readouterr().err
    assert len(forked_pids) == 1
    assert not any(out.iterdir())


def test_solve_pde_disk_full_in_a_forked_part_writes_nothing(tmp_path, monkeypatch, capsys,
                                                              forked_pids):
    # the child's OSError is an output error (exit 2); the table's .partial,
    # the spill and the child's part file all go
    usable_cpus(monkeypatch, 2)
    parent, write_blocks = os.getpid(), tables._write_blocks

    def disk_full_in_child(fh, *args):
        if os.getpid() != parent:
            fh.write(b"0,1,2\n")
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        write_blocks(fh, *args)

    monkeypatch.setattr(tables, "_write_blocks", disk_full_in_child)
    out = tmp_path / "o"
    assert run(["solve-pde", "--config", pde_cfg(tmp_path, 257, 512), "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output: [Errno 28]") and "Traceback" not in err
    assert len(forked_pids) == 1
    assert not any(out.iterdir())


def test_missing_section_is_usage_error(tmp_path):
    cfg = write_cfg(tmp_path, "nocall.json", {"schema_version": 1})
    assert run(["price", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert run(["check-zc", "--config", cfg, "--out", tmp_path / "o"]) == 2


# ---------------------------------------------------------------- check-zc


def test_check_zc_single_asset_passes(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "zc1.json",
        {
            "schema_version": 1,
            "market": {"alpha": [0.08], "sigma": [[0.2]], "short_rate": [0.01]},
        },
    )
    out = tmp_path / "out1"
    assert run(["check-zc", "--config", cfg, "--out", out]) == 0
    report = (out / "zc_report.csv").read_text().splitlines()
    assert report[0].startswith("t,zc_residual,kernel_dim")
    assert float(report[1].split(",")[1]) < 1e-12


def test_check_zc_planted_rho_flags(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "zc2.json",
        {
            "schema_version": 1,
            "market": {
                "alpha": [0.05, 0.05],
                "sigma": [[0.2], [0.1]],
                "short_rate": [0.0, 0.0],
            },
        },
    )
    out = tmp_path / "out2"
    assert run(["check-zc", "--config", cfg, "--out", out]) == 1
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["arbitrage_flagged"] is True
    assert meta["max_zc_residual"] == pytest.approx(0.0223606797749979, abs=1e-9)


def test_check_zc_per_time_schedule(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "zc3.json",
        {
            "schema_version": 1,
            "zc_tolerance": 1e-6,
            "market": {
                "times": [0.0, 0.5],
                "alpha": [[0.06], [0.02]],
                "sigma": [[0.3]],
                "short_rate": [[0.0], [0.01]],
            },
        },
    )
    out = tmp_path / "out3"
    assert run(["check-zc", "--config", cfg, "--out", out]) == 0
    assert len((out / "zc_report.csv").read_text().splitlines()) == 3


def test_check_zc_huge_residual_is_finite(tmp_path):
    # a residual of about 1e300 squares past the float range: both norms scale
    # by the largest entry instead of reading inf, and run_meta.json stays
    # JSON (no Infinity)
    market = {"alpha": [1e300, 1e300], "sigma": [[1e300], [0.1]], "short_rate": [0.0, 0.0]}
    cfg = write_cfg(tmp_path, "huge.json", {"schema_version": 1, "market": market})
    out = tmp_path / "huge"
    assert run(["check-zc", "--config", cfg, "--out", out]) == 1
    row = (out / "zc_report.csv").read_text().splitlines()[1].split(",")
    assert float(row[1]) == pytest.approx(1e300, rel=1e-9)  # zc_residual
    assert float(row[3]) == pytest.approx(1e300, rel=1e-9)  # rho_norm

    def not_json(name):
        raise AssertionError(f"run_meta.json holds {name}, which JSON does not allow")

    meta = json.loads((out / "run_meta.json").read_text(), parse_constant=not_json)
    assert meta["max_zc_residual"] == pytest.approx(1e300, rel=1e-9)


@st.composite
def zc_configs(draw):
    """check-zc configs: constant or per-time arrays of 1-3 assets and
    drivers, entries down to 1e-300 and up to 1e300, and now and then a
    length or a tolerance that the config check or the model rejects."""
    def size(d):  # one draw in ten off by one
        return draw(st.sampled_from([d] * 9 + [d + 1, max(d - 1, 1)]))

    def nested(shape):
        if not shape:
            return _mostly(st.floats(-5.0, 5.0), [0.0, 1e-300, -1e-300, 1e300, -1e300])
        return st.lists(nested(shape[1:]), min_size=shape[0], max_size=shape[0])

    n, k = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    times = draw(st.none() | st.lists(st.floats(-1.0, 2.0), min_size=1, max_size=3))
    market = {} if times is None else {"times": times}
    for key, shape in (("alpha", [n]), ("sigma", [n, k]), ("short_rate", [n])):
        shape = [size(d) for d in shape]
        if times is not None and draw(st.booleans()):  # one entry per time
            shape = [size(len(times))] + shape
        market[key] = draw(nested(shape))
    cfg = {"schema_version": 1, "market": market}
    tolerance = draw(st.none() | _mostly(st.floats(1e-12, 1.0), [0.0, -1.0, 1e300]))
    if tolerance is not None:
        cfg["zc_tolerance"] = tolerance
    return cfg


@settings(max_examples=60, deadline=None)
@given(cfg=zc_configs())
@example(cfg={"schema_version": 1,  # ragged sigma rows
              "market": {"alpha": [0.05, 0.05], "sigma": [[0.2], [0.1, 0.3]],
                         "short_rate": [0.0, 0.0]}})
def test_check_zc_any_config(cfg):
    # every config ends in a documented exit code without a traceback; exit 2
    # writes no files, and exits 0 and 1 write the report and the verdict
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "zc"
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run(["check-zc", "--config", write_cfg(Path(tmp), "zc.json", cfg),
                        "--out", out])
        assert code in (0, 1, 2, 3)
        written = sorted(p.name for p in out.iterdir()) if out.exists() else []
        if code == 2:
            assert written == []
        if code in (0, 1):
            assert written == ["run_meta.json", "zc_report.csv"]
            meta = json.loads((out / "run_meta.json").read_text())
            assert meta["arbitrage_flagged"] == (code == 1)
    assert "Traceback" not in err.getvalue()


# ---------------------------------------------------------------- price


def price_cfg(rho=0.0):
    return {
        "schema_version": 1,
        "call": dict(BASE_CALL, rho=rho),
        "pricing_grid": {"n_tau": 16, "n_y": 33, "y_half": 0.3,
                         "n_time_quad": 16, "n_space_quad": 61},
        "surface_output": {"times": [0.0, 0.5, 1.0], "moneyness": [0.9, 1.0, 1.1]},
    }


def test_price_surface_and_metadata(tmp_path):
    cfg = write_cfg(tmp_path, "p.json", price_cfg())
    out = tmp_path / "pout"
    assert run(["price", "--config", cfg, "--out", out]) == 0
    rows = (out / "price_surface.csv").read_text().splitlines()
    assert rows[0] == "t,X,Phi"
    table = np.array([r.split(",") for r in rows[1:]], dtype=float)
    atm = table[(table[:, 0] == 0.0) & (table[:, 1] == 100.0), 2][0]
    assert atm == pytest.approx(bs_call(100.0, 100.0, 0.2, 1.0), abs=5e-3)
    # the expiry row is the exact payoff
    expiry = table[table[:, 0] == 1.0]
    np.testing.assert_array_equal(expiry[:, 2], np.maximum(expiry[:, 1] - 100.0, 0.0))
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["convergence"]["converged"] is True


def test_price_rerun_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, "p.json", price_cfg(rho=0.01))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["price", "--config", cfg, "--out", out1]) == 0
    assert run(["price", "--config", cfg, "--out", out2]) == 0
    for name in ("price_surface.csv", "run_meta.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@pytest.mark.parametrize("surface", [
    {"times": [0.0], "moneyness": [1.0, 2.0]},   # |log 2| > y_half = 0.3
    {"times": [0.0], "moneyness": [-1.0]},
    {"times": [0.0, 1.5], "moneyness": [1.0]},   # beyond maturity 1.0
    {"times": [-0.1], "moneyness": [1.0]},
])
def test_price_surface_outside_grid_rejected(tmp_path, surface):
    payload = price_cfg(rho=0.01)
    payload["surface_output"] = surface
    cfg = write_cfg(tmp_path, "p.json", payload)
    out = tmp_path / "pout"
    assert run(["price", "--config", cfg, "--out", out]) == 2
    assert not any(out.iterdir())


def test_price_non_finite_series_is_internal_failure(tmp_path, capsys):
    # u0 overflows on a y grid this wide: the non-finite tables are an internal
    # failure, not a failed refinement check (exit 1)
    payload = price_cfg(rho=0.01)
    payload["pricing_grid"]["y_half"] = 700.0
    cfg = write_cfg(tmp_path, "wide.json", payload)
    out = tmp_path / "wide"
    assert run(["price", "--config", cfg, "--out", out]) == 3
    err = capsys.readouterr().err
    assert "U1/U2 tables are not finite" in err
    assert "Traceback" not in err
    assert not any(out.iterdir())


def test_price_non_finite_price_is_internal_failure(tmp_path, capsys):
    # at maturity 1e300 u0 overflows to a nan price: an internal failure that
    # writes no files, not a failed refinement check (exit 1) with a NaN in
    # run_meta.json.  Run without the suite's error::RuntimeWarning filter,
    # under which the overflow itself already ends the run
    payload = price_cfg()
    payload["call"]["maturity"] = 1e300
    cfg = write_cfg(tmp_path, "long.json", payload)
    out = tmp_path / "long"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert run(["price", "--config", cfg, "--out", out]) == 3
    err = capsys.readouterr().err
    assert "series prices are not finite" in err
    assert "Traceback" not in err
    assert not any(out.iterdir())


@pytest.mark.parametrize("call, pricing_grid", [
    ({"maturity": 1e300}, {}),  # the kernel's reach over tau_max 2e298
    ({}, {"y_half": 1e-300}),   # 2.7e302 nodes at dy 1.6e-302
    ({}, {"y_half": 1e-307}),   # the node count overflows to inf at a subnormal dy
], ids=["maturity", "y_half-1e-300", "y_half-1e-307"])
def test_price_padded_grid_too_large_is_config_error(tmp_path, capsys, call, pricing_grid):
    # a padded series y grid too large for any array is a run too large to
    # allocate (exit 2, no files), and its node count raises no numpy warning
    payload = {"schema_version": 1, "call": dict(BASE_CALL, rho=0.02, **call),
               "pricing_grid": pricing_grid,
               "surface_output": {"times": [0.0], "moneyness": [1.0]}}
    cfg = write_cfg(tmp_path, "pad.json", payload)
    out = tmp_path / "pad"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["price", "--config", cfg, "--out", out]) == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert err.startswith("error: not enough memory for this config: the series y grid")
    assert "Traceback" not in err
    assert not any(out.iterdir())


def test_price_padded_grid_over_the_bound_exits_fast(tmp_path, capsys, monkeypatch):
    # y_half 1e-3 pads the README call's y grid to 268,929 nodes, above
    # pricing.MAX_PADDED_Y_NODES: a run too large to allocate (exit 2, no
    # files), refused before any table is built
    def no_build(*args):
        raise AssertionError("a correction table was built")

    monkeypatch.setattr(pricing, "compute_corrections", no_build)
    payload = {"schema_version": 1, "call": dict(BASE_CALL, rho=0.02),
               "pricing_grid": {"n_tau": 48, "n_y": 129, "y_half": 1e-3},
               "surface_output": {"times": [0.0], "moneyness": [1.0]}}
    cfg = write_cfg(tmp_path, "narrow.json", payload)
    out = tmp_path / "narrow"
    start = time.perf_counter()
    assert run(["price", "--config", cfg, "--out", out]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: not enough memory for this config: the series y grid")
    assert "Traceback" not in err
    assert not any(out.iterdir())


@pytest.mark.parametrize("command, call, named", [
    ("price", {"sigma": 1e300}, "sigma^2 * maturity / 2 overflows"),
    ("solve-pde", {"sigma": 1e300}, "sigma^2 * maturity / 2 overflows"),
    ("compare", {"sigma": 1e300}, "sigma^2 * maturity / 2 overflows"),
    ("solve-pde", {"maturity": 1e300}, "sigma * sqrt(maturity) = 2e+149 puts the default x"),
    ("compare", {"maturity": 1e300}, "sigma * sqrt(maturity) = 2e+149 puts the default x"),
], ids=["price-sigma", "solve-pde-sigma", "compare-sigma", "solve-pde-maturity",
        "compare-maturity"])
def test_huge_sigma_or_maturity_is_config_error(tmp_path, capsys, command, call, named):
    # sigma^2 T / 2 past the float range, or a default PDE domain past it,
    # is a config error that names sigma and maturity and writes no files
    payload = dict(price_cfg(), call=dict(BASE_CALL, **call))
    if "sigma" in call:  # the given domain of the case that overflowed in the march
        payload["pde_grid"] = {"n_x": 65, "n_t": 64, "x_min": 50.0, "x_max": 300.0}
    cfg = write_cfg(tmp_path, "huge.json", payload)
    out = tmp_path / "huge"
    assert run([command, "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not out.exists() or not any(out.iterdir())


def test_rho_warning_only_where_the_series_is_built(tmp_path):
    # |rho| T = 0.6 in the call: price builds the series and warns from a file
    # of the package; solve-pde never evaluates it, and compare builds it at
    # its own rhos (at most 0.04 here), so neither warns
    payload = dict(price_cfg(rho=0.6), pde_grid={"n_x": 65, "n_t": 64})
    cfg = write_cfg(tmp_path, "far.json", payload)
    for command, warns in (("price", True), ("solve-pde", False), ("compare", False)):
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always", UserWarning)
            assert run([command, "--config", cfg, "--out", tmp_path / command]) in (0, 1)
        got = [w for w in caught if issubclass(w.category, UserWarning)]
        assert bool(got) == warns, command
        assert all(Path(w.filename).parent.name == "itoarb" for w in got)


def _mostly(inside, edges):
    # four draws in five from inside the domain, the rest from values on or
    # just past its edges
    return st.one_of(*[inside] * 4, st.sampled_from(edges))


@settings(max_examples=50, deadline=None)
@given(
    times=st.lists(_mostly(st.floats(0.0, 1.0), [-0.5, -1e-9, -0.0, 1.0, 1.0 + 1e-9, 1.5]),
                   min_size=1, max_size=3),
    # exp(0.3) = 1.3499, exp(-0.3) = 0.7408
    moneyness=st.lists(_mostly(st.floats(0.75, 1.34), [-1.0, 0.0, 1e-300, 0.74, 1.35, 2.0]),
                       min_size=1, max_size=3),
)
@example(times=[1.0], moneyness=[2.0])  # at expiry: priced as the payoff
def test_price_input_domain(times, moneyness):
    # exit 2 with no files exactly when some surface point is off the
    # domain: a time outside [0, 1], a non-positive price, or a point before
    # expiry with |log m| > y_half = 0.3; otherwise exit 0
    payload = price_cfg(rho=0.01)
    payload["surface_output"] = {"times": times, "moneyness": moneyness}
    t = np.array(times)
    x = 100.0 * np.array(moneyness)
    with np.errstate(divide="ignore", invalid="ignore"):
        y = np.log(x / 100.0)
    before_expiry = ~np.isclose(t, 1.0, rtol=0.0, atol=1e-14)
    off = (np.any(t < 0) or np.any(t > 1.0) or np.any(x <= 0)
           or (np.any(before_expiry) and np.any(np.abs(y) > 0.3)))
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "pout"
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run(["price", "--config", write_cfg(Path(tmp), "p.json", payload),
                        "--out", out])
        assert code in (0, 2)
        assert (code == 2) == off
        assert any(out.iterdir()) == (code == 0)
    assert "Traceback" not in err.getvalue()


@settings(max_examples=40, deadline=None)
@given(
    dt=st.sampled_from([0.01, 0.02, 0.025, 0.05]),
    n_steps=st.integers(1, 60),
    # a horizon between grid nodes: this fraction of a step past node n_steps
    partial=st.one_of(st.just(0.0), st.floats(0.01, 0.99)),
    lag_steps=st.integers(1, 8),
    # report times as fractions of the horizon, inside and outside
    # [10 dt, horizon - lag]; None keeps the default times
    fractions=st.one_of(st.none(), st.lists(st.floats(-0.2, 1.2), min_size=1, max_size=4)),
    drivers=st.sampled_from([1, 2]),  # kernel dimension B = 1 or 0
)
@example(dt=0.01, n_steps=60, partial=0.0, lag_steps=5, fractions=[0.5], drivers=1)
@example(dt=0.01, n_steps=60, partial=0.0, lag_steps=5, fractions=None, drivers=2)
def test_simulate_input_domain(dt, n_steps, partial, lag_steps, fractions, drivers):
    # exit 2 with no files exactly when the horizon is not a whole number
    # of steps or a report step (the grid node nearest a report time) lies
    # before 10 dt or has its lag window off [0, horizon]; otherwise exit 0
    horizon = (n_steps + partial) * dt
    payload = sim_cfg(paths=64, dt=dt, horizon=horizon, lag_steps=lag_steps,
                      export_csv_paths=0)
    payload["market"]["sigma"] = [[0.2], [0.1]] if drivers == 1 else [[0.2, 0.0], [0.1, 0.1]]
    if fractions is None:
        del payload["estimator"]["report_times"]
        times = np.linspace(0.2, 0.8, 7) * horizon
    else:
        times = np.array(fractions) * horizon
        payload["estimator"]["report_times"] = times.tolist()
    steps = np.round(times / dt).astype(int)
    off = partial != 0.0 or np.any((steps < 10) | (steps - lag_steps < 0)
                                   | (steps + lag_steps > n_steps))
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "mout"
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run(["simulate", "--config", write_cfg(Path(tmp), "m.json", payload),
                        "--out", out])
        assert code in (0, 2)
        assert (code == 2) == off
        assert any(out.iterdir()) == (code == 0)
    assert "Traceback" not in err.getvalue()


# ---------------------------------------------------------------- solve-pde


def test_solve_pde_schema_matches_price(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "s.json",
        {
            "schema_version": 1,
            "call": BASE_CALL,
            "pde_grid": {"n_x": 129, "n_t": 128},
        },
    )
    out = tmp_path / "sout"
    assert run(["solve-pde", "--config", cfg, "--out", out]) == 0
    rows = (out / "pde_surface.csv").read_text().splitlines()
    assert rows[0] == "t,X,Phi"  # same schema as the pricing surface
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["probe_price_atm_t0"] == pytest.approx(7.9656, abs=5e-3)


def test_solve_pde_extreme_rho_prices_zero(tmp_path):
    # the source rate overflows to inf, an exact zero factor of the source flow
    payload = {"schema_version": 1, "call": dict(BASE_CALL, rho=1e306),
               "pde_grid": {"n_x": 65, "n_t": 64}}
    cfg = write_cfg(tmp_path, "inf.json", payload)
    out = tmp_path / "inf"
    assert run(["solve-pde", "--config", cfg, "--out", out]) == 0
    assert json.loads((out / "run_meta.json").read_text())["probe_price_atm_t0"] == 0.0


def test_solve_pde_negative_rho_is_config_error(tmp_path, capsys):
    # rho is a norm: a negative value fails the schema before anything is
    # built (the FD march would grow the price until it overflows)
    payload = {"schema_version": 1, "call": dict(BASE_CALL, rho=-5.0),
               "pde_grid": {"n_x": 65, "n_t": 64}}
    cfg = write_cfg(tmp_path, "grow.json", payload)
    out = tmp_path / "grow"
    assert run(["solve-pde", "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config schema violation: ")
    assert "-5.0 is less than the minimum of 0" in err
    assert "Traceback" not in err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("command", ["price", "solve-pde", "compare"])
def test_nonzero_call_rate_is_config_error(tmp_path, capsys, command):
    # every command prices the discounted call: a rate would be ignored
    cfg = write_cfg(tmp_path, "rate.json", dict(price_cfg(), call=dict(BASE_CALL, rate=0.05)))
    out = tmp_path / "rate"
    assert run([command, "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: call.rate 0.05 ")
    assert not out.exists() or not any(out.iterdir())


def test_solve_pde_low_sigma_stays_positive(tmp_path):
    # low sigma with rho T near 0.8: the source flow cannot push a price below 0
    call = {"strike": 79.84, "maturity": 2.923, "sigma": 0.0508, "rho": 0.2675}
    payload = {"schema_version": 1, "call": call, "pde_grid": {"n_x": 129, "n_t": 128}}
    cfg = write_cfg(tmp_path, "low.json", payload)
    out = tmp_path / "low"
    assert run(["solve-pde", "--config", cfg, "--out", out]) == 0
    phi = np.loadtxt(out / "pde_surface.csv", delimiter=",", skiprows=1)[:, 2]
    assert phi.min() >= 0.0


@st.composite
def pde_configs(draw):
    """solve-pde configs: a call of strike 1e-3 to 1e4, maturity 1e-3 to 50,
    sigma 1e-3 to 5 and rho 0 to 10 on an n_x 64-129 by n_t 64-128 grid,
    with or without x_min and x_max around the strike; now and then a value
    on or past the edge of its range."""
    strike = draw(_mostly(st.floats(1e-3, 1e4), [0.0, -1.0, 1e-300, 1e300]))
    call = {"strike": strike,
            "maturity": draw(_mostly(st.floats(1e-3, 50.0), [0.0, 1e-300, 1e300])),
            "sigma": draw(_mostly(st.floats(1e-3, 5.0), [0.0, 1e-300, 1e300]))}
    rho = draw(st.none() | _mostly(st.floats(0.0, 10.0), [-1.0, 1e300]))
    if rho is not None:
        call["rho"] = rho
    grid = {"n_x": draw(st.integers(64, 129)), "n_t": draw(st.integers(64, 128))}
    # as multiples of the strike, which must lie strictly inside (x_min, x_max)
    for key, inside, edges in (("x_min", st.floats(0.01, 0.95), [0.0, 1.0, 2.0]),
                               ("x_max", st.floats(1.05, 20.0), [1.0, 0.5, 1e300])):
        factor = draw(st.none() | _mostly(inside, edges))
        if factor is not None:
            grid[key] = strike * factor
    return {"schema_version": 1, "call": call, "pde_grid": grid}


@settings(max_examples=20, deadline=None)
@given(payload=pde_configs())
def test_solve_pde_any_config(payload):
    # every config ends in a documented exit code without a traceback; exit 2
    # writes no files, and exit 0 writes the surface and the metadata
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "pde"
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run(["solve-pde", "--config", write_cfg(Path(tmp), "pde.json", payload),
                        "--out", out])
        assert code in (0, 1, 2, 3)
        written = sorted(p.name for p in out.iterdir()) if out.exists() else []
        if code == 2:
            assert written == []
        if code == 0:
            assert written == ["pde_surface.csv", "run_meta.json"]
    assert "Traceback" not in err.getvalue()


# ---------------------------------------------------------------- compare


def test_compare_command_adjudicates(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "c.json",
        {
            "schema_version": 1,
            "call": dict(BASE_CALL, rho=0.02),
            "compare": {"rhos": [0.01, 0.02, 0.04]},
        },
    )
    out = tmp_path / "cout"
    assert run(["compare", "--config", cfg, "--out", out]) == 0
    meta = json.loads((out / "run_meta.json").read_text())
    table = meta["comparison"]["candidates"]
    assert meta["comparison"]["adopted_constant"] == "strike-free"
    assert table["strike-free"]["third_order"] is True
    assert table["strike-scaled"]["third_order"] is False
    # classical-limit agreement of the two routes, scaled by the strike
    assert meta["comparison"]["classical_max_abs_gap"] < 1e-3 * 100.0
    rows = (out / "compare_report.csv").read_text().splitlines()
    assert rows[0].startswith("rho,max_abs_error_adopted")
    assert len(rows) == 4


@pytest.mark.parametrize("rhos, adopted_orders, rejected_orders", [
    ([0.01, 0.03], [3.15], [2.38]),  # error ratio 31.74, exit 1 when judged as a halving
    ([0.01, 0.015, 0.02], [3.24, 3.12], [2.51, 2.37]),  # ratios 3.72 and 2.45
    ([0.01, 0.02, 0.04], [3.19, 3.07], [2.45, 2.21]),
])
def test_compare_judges_observed_order(tmp_path, rhos, adopted_orders, rejected_orders):
    # a rung is third order when log(e[i+1]/e[i]) / log(rho[i+1]/rho[i]) lies in
    # [log2 5.5, log2 10.5]: on a doubling ladder, a halving ratio in [5.5, 10.5]
    payload = {"schema_version": 1, "call": dict(BASE_CALL, rho=0.02), "compare": {"rhos": rhos}}
    cfg = write_cfg(tmp_path, "c.json", payload)
    out = tmp_path / "cout"
    assert run(["compare", "--config", cfg, "--out", out]) == 0
    table = json.loads((out / "run_meta.json").read_text())["comparison"]["candidates"]
    adopted, rejected = table["strike-free"], table["strike-scaled"]
    assert [round(p, 2) for p in adopted["observed_orders"]] == adopted_orders
    assert [round(p, 2) for p in rejected["observed_orders"]] == rejected_orders
    assert adopted["third_order"] and not rejected["third_order"]
    if rhos == [0.01, 0.02, 0.04]:
        assert [round(r, 2) for r in adopted["halving_ratios"]] == [9.13, 8.37]
        for row in (adopted, rejected):
            assert row["third_order"] == all(5.5 <= r <= 10.5 for r in row["halving_ratios"])


@st.composite
def compare_configs(draw):
    """compare configs: a call of strike 1e-3 to 1e4, maturity 0.05 to 5 and
    sigma^2 T 1e-3 to 0.5 (the series build grows with it), a ladder of 2-5
    rhos of which one may repeat, be zero or be negative, and probes of which
    one may lie outside the series grid (|log m| > 0.6) or the default FD
    domain."""
    maturity = draw(st.floats(0.05, 5.0))
    call = {"strike": draw(st.floats(1e-3, 1e4)), "maturity": maturity,
            "sigma": float(np.sqrt(draw(st.floats(1e-3, 0.5)) / maturity)),
            "rho": draw(st.floats(0.0, 0.1))}
    # one draw in three adds a bad rho (a repeat, zero or negative) or probe
    rhos = draw(st.lists(st.floats(0.005, 0.08), min_size=2, max_size=4, unique=True))
    compare = {"rhos": rhos + draw(st.sampled_from([[]] * 6 + [[rhos[0]], [0.0], [-0.01]]))}
    if draw(st.booleans()):
        probes = draw(st.lists(st.floats(0.8, 1.2), min_size=1, max_size=3))
        bad = draw(st.sampled_from([[]] * 6 + [[0.0], [0.5], [1.9]]))
        compare["probe_moneyness"] = probes + bad
    return {"schema_version": 1, "call": call, "compare": compare}


@settings(max_examples=8, deadline=None)
@given(payload=compare_configs())
@example(payload={"schema_version": 1, "call": dict(BASE_CALL, rho=0.02),
                  "compare": {"rhos": [0.04, 0.01, 0.02], "probe_moneyness": [1.0]}})
def test_compare_any_config(payload):
    # every config ends in a documented exit code without a traceback; exit 2
    # writes no files, and exits 0 and 1 write the report and the metadata.
    # The verdict is not asserted: compare can still read a false mismatch
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "cmp"
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run(["compare", "--config", write_cfg(Path(tmp), "cmp.json", payload),
                        "--out", out])
        assert code in (0, 1, 2, 3)
        written = sorted(p.name for p in out.iterdir()) if out.exists() else []
        if code == 2:
            assert written == []
        if code in (0, 1):
            assert written == ["compare_report.csv", "run_meta.json"]
    assert "Traceback" not in err.getvalue()


def test_compare_extreme_rho_is_mismatch(tmp_path, capsys):
    # at rho 1e8 the oracle prices 0 and the series is far off: a mismatch,
    # not an internal failure
    payload = {"schema_version": 1, "call": BASE_CALL, "compare": {"rhos": [0.01, 1e8]}}
    cfg = write_cfg(tmp_path, "far.json", payload)
    out = tmp_path / "far"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        assert run(["compare", "--config", cfg, "--out", out]) == 1
    captured = capsys.readouterr()
    assert "[MISMATCH]" in captured.out
    assert "Traceback" not in captured.err
    assert json.loads((out / "run_meta.json").read_text())["comparison"]["adjudication_ok"] is False


# ---------------------------------------------------------------- simulate


def test_simulate_command_outputs(tmp_path):
    cfg = write_cfg(tmp_path, "m.json", sim_cfg())
    out = tmp_path / "mout"
    assert run(["simulate", "--config", cfg, "--out", out]) == 0
    assert (out / "ensemble.gate").exists()
    assert (out / "ensemble.csv").exists()
    rows = (out / "rho_estimates.csv").read_text().splitlines()
    assert rows[0] == "t,rho_1,se_1"
    est = [float(r.split(",")[1]) for r in rows[1:]]
    # planted misalignment of the two-asset model is the hand value
    np.testing.assert_allclose(est, -0.0223606797749979, atol=1e-8)
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["kernel_dim"] == 1


def test_simulate_no_kernel_writes_nan_pair(tmp_path):
    # two drivers span both assets: B = 0, still one (rho, se) column pair
    payload = sim_cfg(export_csv_paths=0)
    payload["market"]["sigma"] = [[0.2, 0.0], [0.1, 0.1]]
    cfg = write_cfg(tmp_path, "b0.json", payload)
    out = tmp_path / "b0"
    assert run(["simulate", "--config", cfg, "--out", out]) == 0
    assert (out / "rho_estimates.csv").read_text() == "t,rho_1,se_1\n" + "".join(
        f"{t},nan,nan\n" for t in ("0.3", "0.5", "0.7"))
    assert json.loads((out / "run_meta.json").read_text())["kernel_dim"] == 0


@pytest.mark.parametrize("report_times, named", [
    # each message names the time as the config gives it
    ([0.001], "estimation time 0.001 below t_min 0.05"),  # nearest node is step 0
    ([0.999], "lag window of estimation time 0.999 leaves the simulated horizon"),
    ([1e300], "report time 1e+300 outside"),  # would overflow the int cast
    ([-0.5], "report time -0.5 outside"),
], ids=["before-t-min", "lag-past-horizon", "huge", "negative"])
def test_simulate_checks_report_times_before_simulating(tmp_path, monkeypatch, capsys,
                                                        report_times, named):
    calls = []

    def no_simulation(model, m_paths, dt, horizon, seed, path, lag_steps=None, t_indices=()):
        calls.append(path)
        raise AssertionError("simulate ran before the report times were checked")

    monkeypatch.setattr(cli.mc, "stream_ensemble", no_simulation)
    payload = sim_cfg(paths=20000, dt=0.005, report_times=report_times)
    cfg = write_cfg(tmp_path, "early.json", payload)
    out = tmp_path / "early"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["simulate", "--config", cfg, "--out", out]) == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not calls
    assert not any(out.iterdir())


def test_simulate_csv_export_is_the_head_of_the_ensemble(tmp_path):
    # ensemble.csv holds the first export_csv_paths paths of the ensemble,
    # read back from ensemble.gate: 600 paths span two 512-path sub-blocks,
    # and an export_csv_paths above paths exports every path
    model = cli.geometry.ItoCoefficients(np.array([0.05, 0.05]), np.array([[0.2], [0.1]]),
                                         np.zeros(2))
    for paths, exported in ((1500, 600), (100, 100)):
        cfg = write_cfg(tmp_path, "m.json", sim_cfg(paths=paths, export_csv_paths=600))
        out = tmp_path / f"mout{paths}"
        assert run(["simulate", "--config", cfg, "--out", out]) == 0
        ens = cli.mc.simulate(model, paths, 0.01, 1.0, 77)
        head = cli.mc.PathEnsemble(ens.states[:exported], ens.noise[:exported], ens.dt, ens.seed)
        cli.mc.ensemble_to_csv(head, tmp_path / "ref.csv")
        assert (out / "ensemble.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert len((out / "ensemble.csv").read_text().splitlines()) == 1 + exported * 101


def test_simulate_disk_full_leaves_no_ensemble(tmp_path, monkeypatch, capsys):
    # a write that fails mid-stream must not leave a file of the promised
    # size with zero-filled gaps, which load_ensemble would accept
    calls = itertools.count(1)
    pwrite = os.pwrite

    def disk_full(fd, data, offset):
        if next(calls) == 3:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return pwrite(fd, data, offset)

    monkeypatch.setattr(os, "pwrite", disk_full)
    cfg = write_cfg(tmp_path, "m.json", sim_cfg(paths=5000))
    out = tmp_path / "full"
    assert run(["simulate", "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output") and "Traceback" not in err
    assert next(calls) > 3  # the failing write was reached
    assert not list(out.glob("ensemble.gate*"))


@pytest.mark.parametrize("cpus", [2, 4])
def test_simulate_disk_full_stops_the_other_blocks(cpus, tmp_path, monkeypatch, capsys):
    # 40000 paths are 10 blocks of 4096, each written in 8 sub-blocks of two
    # pwrites.  The first write of block 1 fails; every other block then stops
    # before its next sub-block, so each running one makes at most two more
    # sub-blocks' writes, and no queued block writes at all
    offsets, failing = [], []
    pwrite = os.pwrite

    def disk_full(fd, data, offset):
        if offset == 0:  # the header: block 1 starts 4096 paths into the states section
            _, _, _, n, _, n_steps, _, _ = cli.mc._HEADER.unpack(data)
            failing.append(cli.mc._HEADER.size + cli.mc._CHUNK * (n_steps + 1) * n * 8)
        offsets.append(offset)
        if offset == failing[0]:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return pwrite(fd, data, offset)

    monkeypatch.setattr(os, "pwrite", disk_full)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    cfg = write_cfg(tmp_path, "m.json", sim_cfg(paths=40000))
    out = tmp_path / "full"
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)  # the blocks interleave as often as they can
        assert run(["simulate", "--config", cfg, "--out", out]) == 2
    finally:
        sys.setswitchinterval(interval)
    assert capsys.readouterr().err.startswith("error: cannot write output")
    assert not list(out.glob("ensemble.gate*"))
    after = len(offsets) - 1 - offsets.index(failing[0])
    assert after <= 2 * 2 * (cpus - 1), after


def test_simulate_seed_override_changes_ensemble(tmp_path):
    cfg = write_cfg(tmp_path, "m.json", sim_cfg())
    out1, out2, out3 = tmp_path / "s1", tmp_path / "s2", tmp_path / "s3"
    assert run(["simulate", "--config", cfg, "--out", out1]) == 0
    assert run(["simulate", "--config", cfg, "--out", out2]) == 0
    assert run(["simulate", "--config", cfg, "--out", out3, "--seed", "78"]) == 0
    b1 = (out1 / "ensemble.gate").read_bytes()
    assert b1 == (out2 / "ensemble.gate").read_bytes()
    assert b1 != (out3 / "ensemble.gate").read_bytes()


def test_simulate_rejects_market_schedule(tmp_path):
    # simulate runs a constant market; a second segment must not be dropped
    payload = sim_cfg()
    payload["market"].update(times=[0.0, 0.5], alpha=[[0.05, 0.05], [0.05, 0.7]])
    cfg = write_cfg(tmp_path, "sched.json", payload)
    out = tmp_path / "sched"
    assert run(["simulate", "--config", cfg, "--out", out]) == 2
    assert not (out / "rho_estimates.csv").exists()


def test_simulate_too_large_to_allocate(tmp_path, capsys):
    # 10**13 paths x 3 report times of float64 quotients (B = 1) are 240 TB,
    # more than any address space holds, so the allocation fails at once
    cfg = write_cfg(tmp_path, "huge.json", sim_cfg(paths=10**13, dt=0.005))
    out = tmp_path / "huge"
    assert run(["simulate", "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "memory" in err
    assert "Traceback" not in err
    assert not any(out.iterdir())


@pytest.mark.parametrize("command, section, change, named", [
    ("price", "pricing_grid", {"n_tau": 10**30}, "pricing_grid.n_tau"),
    ("price", "pricing_grid", {"n_y": 10**30}, "pricing_grid.n_y"),
    ("price", "pricing_grid", {"n_time_quad": 10**30}, "pricing_grid.n_time_quad"),
    ("price", "pricing_grid", {"n_space_quad": 10**30}, "pricing_grid.n_space_quad"),
    ("solve-pde", "pde_grid", {"n_x": 10**30}, "pde_grid.n_x"),
    ("solve-pde", "pde_grid", {"n_t": 10**30}, "pde_grid.n_t"),
    ("simulate", "estimator", {"paths": 10**30}, "estimator.paths"),
    ("simulate", "estimator", {"lag_steps": 10**30}, "estimator.lag_steps"),
    ("simulate", "estimator", {"dt": 1e-320}, "horizon / dt = inf steps"),
    ("simulate", "estimator", {"horizon": 1e300, "dt": 1e-10}, "horizon / dt = inf steps"),
    ("simulate", "estimator", {"horizon": 1e18, "dt": 1.0, "report_times": [20.0]},
     "horizon / dt = 1e+18 steps"),
    ("simulate", "estimator", {"horizon": 1e300, "dt": 1.0, "report_times": [20.0]},
     "horizon / dt = 1e+300 steps"),
    # each size within the schema, their product past what numpy can index
    ("simulate", "estimator", {"paths": 2**53, "dt": 0.005,
                               "report_times": [round(0.06 + 0.005 * i, 3) for i in range(180)]},
     "180 report times x 9007199254740992 paths"),
], ids=["n_tau", "n_y", "n_time_quad", "n_space_quad", "n_x", "n_t", "paths", "lag_steps",
        "tiny-dt", "inf-steps", "1e18-steps", "1e300-steps", "quotients"])
def test_size_no_array_holds_is_config_error(tmp_path, capsys, command, section, change, named):
    # a schema-valid size too large for any array is a run too large to
    # allocate: exit 2, a message naming the field or the size, no files
    payload = copy.deepcopy(README_CALL if section != "estimator" else sim_cfg())
    payload[section].update(change)
    cfg = write_cfg(tmp_path, "huge.json", payload)
    out = tmp_path / "huge"
    assert run([command, "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err, err
    assert "Traceback" not in err
    assert not out.exists() or not any(out.iterdir())


def test_seed_override_is_checked_by_the_schema(tmp_path, capsys):
    # --seed replaces the config's seed before the schema check, so a seed of
    # -1 is a config error on every command, as it is in the config
    cfg = write_cfg(tmp_path, "m.json", dict(sim_cfg(), call=BASE_CALL))
    for command in cli.COMMANDS:
        out = tmp_path / command
        assert run([command, "--config", cfg, "--out", out, "--seed", "-1"]) == 2
        assert capsys.readouterr().err == ("error: config schema violation: seed: -1 is less "
                                           "than the minimum of 0\n")
        assert not out.exists()


# ---------------------------------------------------------------- imports


NO_SCIPY_PROBE = """\
import json, sys
from itoarb import cli
codes = [cli.main(["check-zc", "--config", sys.argv[1], "--out", sys.argv[2] + "/zc"]),
         cli.main(["simulate", "--config", sys.argv[1], "--out", sys.argv[2] + "/mc"])]
print(json.dumps([codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def test_check_zc_and_simulate_load_no_scipy(tmp_path):
    # scipy is imported where it is used; the two cheap diagnostics use none of it
    cfg = write_cfg(tmp_path, "m.json", sim_cfg())
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_PROBE, str(cfg), str(tmp_path)],
                          capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    codes, scipy_modules = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [1, 0]  # the misaligned drift is flagged, and simulate runs
    assert scipy_modules == []


COMMAND_SCIPY_PROBE = """\
import json, sys
from itoarb import cli
code = cli.main(sys.argv[1:])
subpackages = {m.split(".")[1] for m in sys.modules if m.startswith("scipy.")}
print(json.dumps([code, sorted(p for p in subpackages if p != "version" and p[0] != "_")]))
"""


@pytest.mark.parametrize("command, subpackages", [
    ("price", ["special"]),  # ndtr
    ("solve-pde", ["linalg"]),  # gttrf/gttrs of the march and the spline
    ("compare", ["linalg", "special"]),
])
def test_pricing_commands_load_only_their_scipy_routines(tmp_path, command, subpackages):
    # the spline solves its slopes with the march's tridiagonal solver, so no
    # command loads scipy.interpolate (and with it optimize, sparse, spatial, fft)
    cfg = write_cfg(tmp_path, "c.json", dict(price_cfg(0.02), pde_grid={"n_x": 129, "n_t": 128}))
    src = Path(cli.__file__).resolve().parents[1]
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
    proc = subprocess.run([sys.executable, "-c", COMMAND_SCIPY_PROBE, *argv], capture_output=True,
                          text=True, check=True, env=dict(os.environ, PYTHONPATH=str(src)))
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, subpackages]


NO_JSONSCHEMA_PROBE = """\
import json, sys
from itoarb import cli
cli.load_config(sys.argv[1])
try:
    cli.load_config(sys.argv[2])
except cli.ConfigError as exc:
    error = str(exc)
print(json.dumps([error, sorted(m for m in sys.modules
                                if m.split(".")[0] in ("jsonschema", "referencing", "rpds"))]))
"""


def test_config_check_loads_no_jsonschema(tmp_path):
    # the CLI checks its schema itself; jsonschema is only the tests' oracle
    good = write_cfg(tmp_path, "good.json", sim_cfg())
    bad = write_cfg(tmp_path, "bad.json", sim_cfg(paths=512.0))
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", NO_JSONSCHEMA_PROBE, str(good), str(bad)],
                          capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    error, modules = json.loads(proc.stdout.splitlines()[-1])
    assert error.endswith("estimator.paths: 512.0 is not of type 'integer'")
    assert modules == []


NELSON_NO_SCIPY_PROBE = """\
import json, sys
from itoarb.simulate import brownian_paths, nelson_derivatives
w = brownian_paths(400, 0.01, 1.0, seed=3)
nelson_derivatives(w[:, :, 0], w, 0.01, 5, 8, [20, 50])
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_nelson_derivatives_loads_no_scipy():
    # the neighbourhood means come from one sorted window, not a k-d tree
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", NELSON_NO_SCIPY_PROBE], capture_output=True,
                          text=True, check=True, env=dict(os.environ, PYTHONPATH=str(src)))
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def test_cli_import_loads_no_thread_pool():
    # simulate imports its thread pool, and forked its signal module, when they
    # run, so start-up does not pay for them
    src = Path(cli.__file__).resolve().parents[1]
    probe = ("import sys, itoarb.cli; "
             "print('concurrent.futures' in sys.modules, 'signal' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True, env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.stdout.split() == ["False", "False"]
