"""Batch front door: config-driven runs with CSV tables and JSON metadata.

Commands::

    itoarb check-zc   --config cfg.json --out DIR [--seed N]
    itoarb price      --config cfg.json --out DIR [--seed N]
    itoarb solve-pde  --config cfg.json --out DIR [--seed N]
    itoarb compare    --config cfg.json --out DIR [--seed N]
    itoarb simulate   --config cfg.json --out DIR [--seed N]

Configs are JSON trees checked against ``CONFIG_SCHEMA`` (unknown keys
rejected; integer fields take JSON integers only, sizes at most
``simulate.MAX_COUNT``; ``schema_version`` is 1), after ``--seed`` replaces
the config's ``seed``.
All randomness flows from the single ``seed`` field; outputs carry no
wall-clock entropy, so reruns are byte-identical.  Commands turn config
sections into library objects, write the tables the library returns and return
their findings; ``main`` alone writes ``run_meta.json``, after the tables,
prints the one summary line and sets the exit code.  Exit codes: 0 success /
no arbitrage flagged, 1 the analysis flags arbitrage or a cross-route mismatch,
2 usage or config error (including values the library rejects while building
its objects, runs too large to allocate, and an output directory that cannot
be written), 3 internal failure of the numerics or any other unexpected
exception.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import fdsolver, geometry, pricing, simulate as mc
from .fdsolver import comparison_report
from .tables import replacing, write_csv, write_long_csv

SCHEMA_VERSION = 1

ANALYSIS_FLAG = 1
USAGE_ERROR = 2
INTERNAL_FAILURE = 3

_NUMBER_ARRAY = {"type": "array", "items": {"type": "number"}, "minItems": 1}
_MATRIX = {"type": "array", "items": _NUMBER_ARRAY, "minItems": 1}
_SIZE = {"type": "integer", "maximum": mc.MAX_COUNT}  # a size field, less its "minimum"

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["schema_version"],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "seed": {"type": "integer", "minimum": 0},
        "zc_tolerance": {"type": "number", "exclusiveMinimum": 0},
        "market": {
            "type": "object",
            "additionalProperties": False,
            "required": ["alpha", "sigma", "short_rate"],
            "properties": {
                "times": _NUMBER_ARRAY,
                "alpha": {"oneOf": [_NUMBER_ARRAY, _MATRIX]},
                "sigma": {"oneOf": [_MATRIX, {"type": "array", "items": _MATRIX}]},
                "short_rate": {"oneOf": [_NUMBER_ARRAY, _MATRIX]},
            },
        },
        "call": {
            "type": "object",
            "additionalProperties": False,
            "required": ["strike", "maturity", "sigma"],
            "properties": {
                "strike": {"type": "number", "exclusiveMinimum": 0},
                "maturity": {"type": "number", "exclusiveMinimum": 0},
                "sigma": {"type": "number", "exclusiveMinimum": 0},
                "rho": {"type": "number", "minimum": 0},
                "rate": {"type": "number"},
            },
        },
        "pricing_grid": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "n_tau": {**_SIZE, "minimum": pricing.MIN_N_TAU},
                "n_y": {**_SIZE, "minimum": pricing.MIN_N_Y},
                "y_half": {"type": "number", "exclusiveMinimum": 0},
                "n_time_quad": {**_SIZE, "minimum": pricing.MIN_N_TIME_QUAD},
                "n_space_quad": {**_SIZE, "minimum": pricing.MIN_N_SPACE_QUAD},
            },
        },
        "pde_grid": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "n_x": {**_SIZE, "minimum": fdsolver.MIN_N_X},
                "n_t": {**_SIZE, "minimum": fdsolver.MIN_N_T},
                "x_min": {"type": "number", "exclusiveMinimum": 0},
                "x_max": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "surface_output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "times": _NUMBER_ARRAY,
                "moneyness": _NUMBER_ARRAY,
            },
        },
        "compare": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "rhos": {
                    "type": "array",
                    "items": {"type": "number", "exclusiveMinimum": 0},
                    "minItems": 2,
                    "uniqueItems": True,
                },
                "probe_moneyness": _NUMBER_ARRAY,
            },
        },
        "estimator": {
            "type": "object",
            "additionalProperties": False,
            "required": ["paths", "dt", "horizon"],
            "properties": {
                "paths": {**_SIZE, "minimum": 64},
                "dt": {"type": "number", "exclusiveMinimum": 0},
                "horizon": {"type": "number", "exclusiveMinimum": 0},
                "lag_steps": {**_SIZE, "minimum": 1},
                "report_times": _NUMBER_ARRAY,
                "export_csv_paths": {"type": "integer", "minimum": 0},
            },
        },
    },
}

# a bool is none of these; an integral float such as 512.0 is not an integer
_TYPES = {"object": dict, "array": list, "number": (int, float), "integer": int}


def _violation(schema: dict, value, path: str) -> str | None:
    """The first way ``value`` breaks ``schema``, as ``"<path>: <message>"``, or
    None.  Implements exactly the JSON Schema keywords ``CONFIG_SCHEMA`` uses."""
    where = path or "(top level)"
    kind = schema.get("type")
    if kind and (isinstance(value, bool) or not isinstance(value, _TYPES[kind])):
        return f"{where}: {value!r} is not of type {kind!r}"
    if "const" in schema and (value != schema["const"]
                              or isinstance(value, bool) != isinstance(schema["const"], bool)):
        return f"{where}: {schema['const']!r} was expected"
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if "minimum" in schema and value < schema["minimum"]:
            return f"{where}: {value!r} is less than the minimum of {schema['minimum']!r}"
        if "maximum" in schema and value > schema["maximum"]:
            return f"{where}: {value!r} is greater than the maximum of {schema['maximum']!r}"
        if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
            return (f"{where}: {value!r} is less than or equal to the minimum of "
                    f"{schema['exclusiveMinimum']!r}")
    if isinstance(value, dict):
        prefix = f"{path}." if path else ""
        for key in schema.get("required", ()):
            if key not in value:
                return f"{prefix}{key}: required key is missing"
        properties = schema.get("properties", {})
        for key, item in value.items():
            if key in properties:
                found = _violation(properties[key], item, prefix + key)
                if found:
                    return found
            elif schema.get("additionalProperties") is False:
                return f"{prefix}{key}: unknown key"
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            return f"{where}: {value!r} has fewer than {schema['minItems']} items"
        for i, item in enumerate(value if "items" in schema else ()):
            found = _violation(schema["items"], item, f"{path}[{i}]")
            if found:
                return found
        # after the item checks, so the items are numbers and hashable
        if schema.get("uniqueItems") and len(set(value)) < len(value):
            return f"{where}: {value!r} has non-unique elements"
    if "oneOf" in schema:
        matches = sum(_violation(branch, value, path) is None for branch in schema["oneOf"])
        if matches != 1:
            return f"{where}: matches {matches} of the {len(schema['oneOf'])} allowed forms"
    return None


class ConfigError(Exception):
    pass


@contextmanager
def _config_values():
    """A ``ValueError`` raised while config values become objects is a
    config error."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _finite_number(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise ConfigError(f"non-finite number {text} in config")
    return value


def load_config(path, seed: int | None = None) -> dict:
    """The config at ``path``, its ``seed`` replaced by ``seed`` if given,
    checked against ``CONFIG_SCHEMA``."""
    try:
        with open(path) as fh:
            cfg = json.load(fh, parse_float=_finite_number, parse_constant=_finite_number)
    except (OSError, ValueError) as exc:  # ValueError: undecodable text or bad JSON
        raise ConfigError(f"cannot read config: {exc}") from exc
    if seed is not None and isinstance(cfg, dict):
        cfg["seed"] = seed
    error = _violation(CONFIG_SCHEMA, cfg, "")
    if error is not None:
        raise ConfigError(f"config schema violation: {error}")
    return cfg


def _market_schedule(cfg: dict) -> tuple[np.ndarray, list[geometry.ItoCoefficients]]:
    m = cfg["market"]
    times = np.asarray(m.get("times", [0.0]), dtype=float)
    arrays = []
    for key, constant_ndim in (("alpha", 1), ("sigma", 2), ("short_rate", 1)):
        a = np.asarray(m[key], dtype=float)
        if a.ndim == constant_ndim:
            a = np.broadcast_to(a, (times.size,) + a.shape)
        if a.shape[0] != times.size:
            raise ConfigError("per-time market arrays must match the times axis")
        arrays.append(a)
    return times, [geometry.ItoCoefficients(alpha, sigma, rates, t=float(t))
                   for t, alpha, sigma, rates in zip(times, *arrays)]


def _call_spec(cfg: dict) -> pricing.CallSpec:
    if "call" not in cfg:
        raise ConfigError("this command requires a 'call' section")
    call = dict(cfg["call"])
    if call.pop("rate", 0.0) != 0.0:
        raise ConfigError(f"call.rate {cfg['call']['rate']} is not supported: the commands "
                          "price the discounted call, so only a rate of 0 is accepted")
    return pricing.CallSpec(**call)


# ---------------------------------------------------------------------------
# commands: each writes its tables and returns ``(flagged, found, summary)``:
# whether the analysis flags (exit 1), its own ``run_meta.json`` fields, and
# its stdout line after ``"<command>: "``


def cmd_check_zc(cfg: dict, out: Path) -> tuple[bool, dict, str]:
    if "market" not in cfg:
        raise ConfigError("check-zc requires a 'market' section")
    with _config_values():
        times, coeffs = _market_schedule(cfg)
    tol = cfg.get("zc_tolerance", 1e-8)
    worst = 0.0
    with replacing(out / "zc_report.csv") as fh:
        fh.write(b"t,zc_residual,kernel_dim,rho_norm,rho_components\n")
        for c in coeffs:
            vec = geometry.rho(c)
            res = geometry.zc_residual(c)
            worst = max(worst, res)
            comp = ";".join(f"{v:.12g}" for v in vec)
            fh.write(f"{c.t:.12g},{res:.12g},{vec.size},{geometry.norm(vec):.12g},{comp}\n"
                     .encode())
    flagged = bool(worst >= tol)
    return (flagged, {"max_zc_residual": worst, "tolerance": tol, "arbitrage_flagged": flagged},
            f"max residual {worst:.3e} (tolerance {tol:.1e})")


def cmd_price(cfg: dict, out: Path) -> tuple[bool, dict, str]:
    so = cfg.get("surface_output", {})
    with _config_values():
        spec = _call_spec(cfg)
        grid = pricing.TransformGrid(**cfg.get("pricing_grid", {}))
        t_nodes = np.asarray(so.get("times", np.linspace(0.0, spec.maturity, 9)), dtype=float)
        x_nodes = spec.strike * np.asarray(so.get("moneyness", np.linspace(0.85, 1.15, 13)),
                                           dtype=float)
        # reject surface points the solution cannot price before building it
        pricing.check_points(spec, grid, x_nodes[None, :], t_nodes[:, None])
    sol, conv = pricing.solve_with_refinement_check(spec, grid)
    surf = pricing.price_discounted(sol, x_nodes[None, :], t_nodes[:, None])
    write_long_csv(out / "price_surface.csv", ["t", "X", "Phi"], t_nodes, x_nodes,
                   surf.__getitem__)
    return (not conv["converged"], {"diagnostics": dict(sol.diagnostics), "convergence": conv},
            f"ATM probe {conv['probe_price']:.6f}, "
            f"doubling change {conv['relative_change_on_doubling']:.2e}")


def cmd_solve_pde(cfg: dict, out: Path) -> tuple[bool, dict, str]:
    with _config_values():
        spec = _call_spec(cfg)
        grid = fdsolver.PdeGrid(**cfg.get("pde_grid", {}))
        grid.nodes(spec)  # a strike off the domain, or a domain past the float range
    # the march ends, or raises, before pde_surface.csv is opened; the spill
    # has no name, so no exit leaves it behind
    with tempfile.TemporaryFile(dir=out) as spill:
        x, t, atm, row = fdsolver.spill(spec, grid, spill.fileno())
        write_long_csv(out / "pde_surface.csv", ["t", "X", "Phi"], t, x, row)
    grid = {"n_x": x.size, "n_t": t.size, "x_min": float(x[0]), "x_max": float(x[-1])}
    return False, {"grid": grid, "probe_price_atm_t0": atm}, f"ATM probe {atm:.6f}"


def cmd_compare(cfg: dict, out: Path) -> tuple[bool, dict, str]:
    compare = cfg.get("compare", {})
    with _config_values():
        spec = _call_spec(cfg)
        fdsolver.comparison_inputs(spec, **compare)
    report = comparison_report(spec, **compare)
    adopted = report["candidates"][report["adopted_constant"]]
    rejected = report["candidates"][pricing.SOURCE_STRIKE_SCALED]
    header = ["rho", "max_abs_error_adopted", "max_abs_error_rejected"]
    write_csv(out / "compare_report.csv", header, [np.column_stack(
        [adopted["rhos"], adopted["max_abs_error"], rejected["max_abs_error"]])])
    ok = report["adjudication_ok"]
    return not ok, {"comparison": report}, (
        "observed orders (adopted constant): "
        + ", ".join(f"{p:.2f}" for p in adopted["observed_orders"])
        + " (error ratios " + ", ".join(f"{r:.2f}" for r in adopted["halving_ratios"]) + ")"
        + ("  [third-order confirmed]" if ok else "  [MISMATCH]")
    )


def cmd_simulate(cfg: dict, out: Path) -> tuple[bool, dict, str]:
    if "market" not in cfg or "estimator" not in cfg:
        raise ConfigError("simulate requires 'market' and 'estimator' sections")
    est = cfg["estimator"]
    lag_steps = est.get("lag_steps", 5)
    with _config_values():
        times, coeffs = _market_schedule(cfg)
        n_times = mc.step_count(est["dt"], est["horizon"]) + 1
    try:
        idx = mc.estimation_steps(est["dt"], n_times, lag_steps, est.get(
            "report_times", np.linspace(0.2, 0.8, 7) * est["horizon"]))
    except ValueError as exc:
        default = "" if "report_times" in est else " (default 0.2-0.8 x horizon)"
        raise ConfigError(f"estimator.report_times{default}: {exc}") from exc
    if times.size > 1:
        raise ConfigError("simulate needs a constant market: 'market.times' "
                          f"has {times.size} entries, at most one is supported")
    result = mc.stream_ensemble(coeffs[0], est["paths"], est["dt"], est["horizon"],
                                cfg.get("seed", 0), out / "ensemble.gate", lag_steps, idx)
    if est.get("export_csv_paths", 0):
        mc.ensemble_to_csv(mc.load_ensemble(out / "ensemble.gate"), out / "ensemble.csv",
                           est["export_csv_paths"])
    pairs = np.dstack([result.estimate, result.se]).reshape(result.times.size, -1)
    if not result.B:  # B = 0 still writes one (nan, nan) pair
        pairs = np.full((result.times.size, 2), np.nan)
    header = ["t"] + [f"{c}_{b + 1}" for b in range(max(result.B, 1)) for c in ("rho", "se")]
    write_csv(out / "rho_estimates.csv", header, [np.column_stack([result.times, pairs])])
    found = {"kernel_dim": result.B}
    if result.B:
        found["rho_estimate_time_mean"] = [float(v) for v in result.estimate.mean(axis=0)]
        found["rho_se_time_mean"] = [float(v) for v in result.se.mean(axis=0)]
    return False, found, f"{est['paths']} paths, kernel dimension {result.B}"


COMMANDS = {
    "check-zc": cmd_check_zc,
    "price": cmd_price,
    "solve-pde": cmd_solve_pde,
    "compare": cmd_compare,
    "simulate": cmd_simulate,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="itoarb",
        description="Arbitrage quantification and nonlinear pricing for Ito market models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to JSON run config")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        cfg = load_config(args.config, args.seed)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        flagged, found, summary = COMMANDS[args.command](cfg, out)
        # after the tables, so a failed run writes no run_meta.json
        meta = {"schema_version": SCHEMA_VERSION, "command": args.command, "config": cfg,
                "package": "itoarb", **found}
        with replacing(out / "run_meta.json") as fh:
            fh.write((json.dumps(meta, indent=2, sort_keys=True) + "\n").encode())
        print(f"{args.command}: {summary}")
        return ANALYSIS_FLAG if flagged else 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except MemoryError as exc:
        print(f"error: not enough memory for this config: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except OSError as exc:  # the config was read in load_config, so this is the output
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        print(f"error [{args.command}]: internal failure: {exc}", file=sys.stderr)
        return INTERNAL_FAILURE
    except Exception as exc:  # a bug, not a finding: never the exit code of one
        print(f"error [{args.command}]: internal failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return INTERNAL_FAILURE


if __name__ == "__main__":
    sys.exit(main())
