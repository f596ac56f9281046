import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bs_oracle import bs_call
from itoarb import cli


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
], ids=["pde-domain-reversed", "one-rho", "zero-rho", "repeated-rho",
        "probe-off-grid", "alpha-length", "horizon-steps", "before-t-min",
        "lag-past-horizon"])
def test_bad_config_value_is_usage_error(tmp_path, capsys, command, payload):
    cfg = write_cfg(tmp_path, "bad.json", {"schema_version": 1, **payload})
    out = tmp_path / "o"
    assert run([command, "--config", cfg, "--out", out]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("exc", [ValueError, RuntimeError, FloatingPointError])
def test_internal_failure_has_own_exit_code(tmp_path, monkeypatch, capsys, exc):
    def failing(cfg, out):
        raise exc("boom")

    monkeypatch.setitem(cli.COMMANDS, "solve-pde", failing)
    cfg = write_cfg(tmp_path, "s.json", {"schema_version": 1, "call": BASE_CALL})
    assert run(["solve-pde", "--config", cfg, "--out", tmp_path / "o"]) == 3
    assert "error [solve-pde]: internal failure: boom" in capsys.readouterr().err


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


# ---------------------------------------------------------------- compare


@pytest.mark.slow
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
    ([0.001], "estimation time 0.0 below t_min"),  # nearest node is step 0
    ([1e300], "report time 1e+300 outside"),  # would overflow the int cast
    ([-0.5], "report time -0.5 outside"),
], ids=["before-t-min", "huge", "negative"])
def test_simulate_checks_report_times_before_simulating(tmp_path, monkeypatch, capsys,
                                                        report_times, named):
    calls = []

    def no_simulation(*args, **kwargs):
        calls.append(args)
        raise AssertionError("simulate ran before the report times were checked")

    monkeypatch.setattr(cli.mc, "simulate", no_simulation)
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
    # 10**12 paths x 201 nodes x 2 assets of float64 is 3.2 PB, more than
    # any address space holds, so the allocation fails at once
    cfg = write_cfg(tmp_path, "huge.json", sim_cfg(paths=10**12, dt=0.005))
    out = tmp_path / "huge"
    assert run(["simulate", "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "memory" in err
    assert "Traceback" not in err
    assert not any(out.iterdir())
