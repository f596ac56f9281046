"""Batch front door: config-driven runs with CSV tables and JSON metadata.

Commands::

    itoarb check-zc   --config cfg.json --out DIR [--seed N]
    itoarb price      --config cfg.json --out DIR [--seed N]
    itoarb solve-pde  --config cfg.json --out DIR [--seed N]
    itoarb compare    --config cfg.json --out DIR [--seed N]
    itoarb simulate   --config cfg.json --out DIR [--seed N]

Configs are JSON trees validated against a published schema (unknown keys
rejected; ``schema_version`` is 1).  All randomness flows from the single
``seed`` field; outputs carry no wall-clock entropy, so reruns are
byte-identical.  Commands turn config sections into library objects and
write what the library returns.  Exit codes: 0 success / no arbitrage
flagged, 1 the analysis flags arbitrage or a cross-route mismatch, 2 usage
or config error (including values the library rejects while building its
objects, and runs too large to allocate), 3 internal failure of the numerics.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path

import jsonschema
import numpy as np

from . import fdsolver, geometry, pricing, simulate as mc
from .fdsolver import comparison_report
from .tables import write_csv

SCHEMA_VERSION = 1

ANALYSIS_FLAG = 1
USAGE_ERROR = 2
INTERNAL_FAILURE = 3

_NUMBER_ARRAY = {"type": "array", "items": {"type": "number"}, "minItems": 1}
_MATRIX = {"type": "array", "items": _NUMBER_ARRAY, "minItems": 1}

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
                "rho": {"type": "number"},
                "rate": {"type": "number"},
            },
        },
        "pricing_grid": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "n_tau": {"type": "integer", "minimum": 16},
                "n_y": {"type": "integer", "minimum": 16},
                "y_half": {"type": "number", "exclusiveMinimum": 0},
                "n_time_quad": {"type": "integer", "minimum": 8},
                "n_space_quad": {"type": "integer", "minimum": 21},
            },
        },
        "pde_grid": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "n_x": {"type": "integer", "minimum": 64},
                "n_t": {"type": "integer", "minimum": 64},
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
                "paths": {"type": "integer", "minimum": 64},
                "dt": {"type": "number", "exclusiveMinimum": 0},
                "horizon": {"type": "number", "exclusiveMinimum": 0},
                "lag_steps": {"type": "integer", "minimum": 1},
                "report_times": _NUMBER_ARRAY,
                "export_csv_paths": {"type": "integer", "minimum": 0},
            },
        },
    },
}


_VALIDATOR = jsonschema.validators.validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA)


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


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh, parse_float=_finite_number, parse_constant=_finite_number)
    except (OSError, ValueError) as exc:  # ValueError: undecodable text or bad JSON
        raise ConfigError(f"cannot read config: {exc}") from exc
    error = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(cfg))
    if error is not None:
        raise ConfigError(f"config schema violation: {error.message}")
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
    return pricing.CallSpec(**cfg["call"])


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_surface_csv(path: Path, t_nodes, x_nodes, surf) -> None:
    # one block per time row: the whole (n_t * n_x, 3) table is never built
    write_csv(path, ["t", "X", "Phi"],
              (np.column_stack([np.full(x_nodes.size, t), x_nodes, row])
               for t, row in zip(t_nodes, surf)))


def _meta_skeleton(cfg: dict, command: str) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": cfg,
        "package": "itoarb",
    }


# ---------------------------------------------------------------------------
# commands


def cmd_check_zc(cfg: dict, out: Path) -> int:
    if "market" not in cfg:
        raise ConfigError("check-zc requires a 'market' section")
    with _config_values():
        times, coeffs = _market_schedule(cfg)
    tol = cfg.get("zc_tolerance", 1e-8)
    rows = []
    worst = 0.0
    for c in coeffs:
        rho_vec = geometry.rho(c)
        res = geometry.zc_residual(c)
        worst = max(worst, res)
        rows.append((c.t, res, rho_vec.size, rho_vec))
    with open(out / "zc_report.csv", "w", newline="") as fh:
        fh.write("t,zc_residual,kernel_dim,rho_norm,rho_components\n")
        for t, res, b, vec in rows:
            comp = ";".join(f"{v:.12g}" for v in vec)
            fh.write(f"{t:.12g},{res:.12g},{b},{np.linalg.norm(vec):.12g},{comp}\n")
    meta = _meta_skeleton(cfg, "check-zc")
    meta["max_zc_residual"] = worst
    meta["tolerance"] = tol
    meta["arbitrage_flagged"] = bool(worst >= tol)
    _write_json(out / "run_meta.json", meta)
    print(f"check-zc: max residual {worst:.3e} (tolerance {tol:.1e})")
    return ANALYSIS_FLAG if worst >= tol else 0


def cmd_price(cfg: dict, out: Path) -> int:
    so = cfg.get("surface_output", {})
    with _config_values():
        spec = _call_spec(cfg)
        grid = pricing.TransformGrid.for_call(spec, **cfg.get("pricing_grid", {}))
        t_nodes = np.asarray(so.get("times", np.linspace(0.0, spec.maturity, 9)), dtype=float)
        x_nodes = spec.strike * np.asarray(so.get("moneyness", np.linspace(0.85, 1.15, 13)),
                                           dtype=float)
        # reject surface points the solution cannot price before building it
        pricing.check_points(spec, grid, x_nodes[None, :], t_nodes[:, None])
    sol, conv = pricing.solve_with_refinement_check(spec, grid)
    surf = pricing.surface(sol, t_nodes, x_nodes)
    _write_surface_csv(out / "price_surface.csv", t_nodes, x_nodes, surf)
    meta = _meta_skeleton(cfg, "price")
    meta["diagnostics"] = dict(sol.diagnostics)
    meta["convergence"] = conv
    _write_json(out / "run_meta.json", meta)
    print(f"price: ATM probe {conv['probe_price']:.6f}, "
          f"doubling change {conv['relative_change_on_doubling']:.2e}")
    return 0 if conv["converged"] else ANALYSIS_FLAG


def cmd_solve_pde(cfg: dict, out: Path) -> int:
    with _config_values():
        spec = _call_spec(cfg)
        grid = fdsolver.PdeGrid.for_call(spec, **cfg.get("pde_grid", {}))
    result, atm = fdsolver.solve_with_atm_probe(spec, grid)
    _write_surface_csv(out / "pde_surface.csv", result.t_nodes, result.x_nodes, result.surface)
    meta = _meta_skeleton(cfg, "solve-pde")
    meta["grid"] = {"n_x": result.n_x, "n_t": result.n_t,
                    "x_min": float(result.x_nodes[0]), "x_max": float(result.x_nodes[-1])}
    meta["probe_price_atm_t0"] = atm
    _write_json(out / "run_meta.json", meta)
    print(f"solve-pde: ATM probe {atm:.6f}")
    return 0


def cmd_compare(cfg: dict, out: Path) -> int:
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
    meta = _meta_skeleton(cfg, "compare")
    meta["comparison"] = report
    _write_json(out / "run_meta.json", meta)
    ok = report["adjudication_ok"]
    print(
        "compare: halving ratios (adopted constant): "
        + ", ".join(f"{r:.2f}" for r in adopted["halving_ratios"])
        + ("  [third-order confirmed]" if ok else "  [MISMATCH]")
    )
    return 0 if ok else ANALYSIS_FLAG


def cmd_simulate(cfg: dict, out: Path) -> int:
    if "market" not in cfg or "estimator" not in cfg:
        raise ConfigError("simulate requires 'market' and 'estimator' sections")
    est = cfg["estimator"]
    with _config_values():
        times, coeffs = _market_schedule(cfg)
        n_times = mc.step_count(est["dt"], est["horizon"]) + 1
        cfg_est = mc.EstimatorConfig.for_ensemble(est["dt"], est["paths"], est.get("lag_steps", 5))
        report_times = est.get("report_times", np.linspace(0.2, 0.8, 7) * est["horizon"])
        idx = mc.estimation_steps(est["dt"], n_times, cfg_est, report_times)
    if times.size > 1:
        raise ConfigError("simulate needs a constant market: 'market.times' "
                          f"has {times.size} entries, at most one is supported")
    model = coeffs[0]
    ens = mc.simulate(model, est["paths"], est["dt"], est["horizon"], cfg.get("seed", 0))
    mc.save_ensemble(ens, out / "ensemble.gate")
    if est.get("export_csv_paths", 0):
        mc.ensemble_to_csv(ens, out / "ensemble.csv", est["export_csv_paths"])
    result = mc.empirical_rho(ens, model, cfg_est, idx)
    pairs = np.dstack([result.estimate, result.se]).reshape(result.times.size, -1)
    if not result.B:  # B = 0 still writes one (nan, nan) pair
        pairs = np.full((result.times.size, 2), np.nan)
    header = ["t"] + [f"{c}_{b + 1}" for b in range(max(result.B, 1)) for c in ("rho", "se")]
    write_csv(out / "rho_estimates.csv", header, [np.column_stack([result.times, pairs])])
    meta = _meta_skeleton(cfg, "simulate")
    meta["kernel_dim"] = result.B
    if result.B:
        meta["rho_estimate_time_mean"] = [float(v) for v in result.estimate.mean(axis=0)]
        meta["rho_se_time_mean"] = [float(v) for v in result.se.mean(axis=0)]
    _write_json(out / "run_meta.json", meta)
    print(f"simulate: {est['paths']} paths, kernel dimension {result.B}")
    return 0


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
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command](cfg, out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except MemoryError as exc:
        print(f"error: not enough memory for this config: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        print(f"error [{args.command}]: internal failure: {exc}", file=sys.stderr)
        return INTERNAL_FAILURE


if __name__ == "__main__":
    sys.exit(main())
