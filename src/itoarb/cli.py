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
byte-identical.  Exit codes: 0 success / no arbitrage flagged, 1 the
analysis flags arbitrage or a cross-route mismatch, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import fdsolver, geometry, pricing, simulate as mc

SCHEMA_VERSION = 1

USAGE_ERROR = 2
ANALYSIS_FLAG = 1

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
                "rhos": _NUMBER_ARRAY,
                "probe_moneyness": _NUMBER_ARRAY,
                "mismatch_tolerance": {"type": "number", "exclusiveMinimum": 0},
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


class ConfigError(Exception):
    pass


def _finite_number(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise ConfigError(f"non-finite number {text} in config")
    return value


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh, parse_float=_finite_number, parse_constant=_finite_number)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    import jsonschema

    try:
        jsonschema.validate(cfg, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        raise ConfigError(f"config schema violation: {exc.message}") from exc
    return cfg


def _market_schedule(cfg: dict) -> tuple[np.ndarray, list[geometry.ItoCoefficients]]:
    m = cfg["market"]
    times = np.asarray(m.get("times", [0.0]), dtype=float)
    alpha = np.asarray(m["alpha"], dtype=float)
    sigma = np.asarray(m["sigma"], dtype=float)
    rates = np.asarray(m["short_rate"], dtype=float)
    if alpha.ndim == 1:
        alpha = np.broadcast_to(alpha, (times.size,) + alpha.shape)
    if sigma.ndim == 2:
        sigma = np.broadcast_to(sigma, (times.size,) + sigma.shape)
    if rates.ndim == 1:
        rates = np.broadcast_to(rates, (times.size,) + rates.shape)
    if alpha.shape[0] != times.size or sigma.shape[0] != times.size or rates.shape[0] != times.size:
        raise ConfigError("per-time market arrays must match the times axis")
    coeffs = [
        geometry.ItoCoefficients(alpha[i], sigma[i], rates[i], t=float(times[i]))
        for i in range(times.size)
    ]
    return times, coeffs


def _call_spec(cfg: dict) -> pricing.CallSpec:
    if "call" not in cfg:
        raise ConfigError("this command requires a 'call' section")
    c = cfg["call"]
    return pricing.CallSpec(
        strike=c["strike"],
        maturity=c["maturity"],
        sigma=c["sigma"],
        rho=c.get("rho", 0.0),
        rate=c.get("rate", 0.0),
    )


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_surface_csv(path: Path, t_nodes, x_nodes, surf) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("t,X,Phi\n")
        for i, t in enumerate(t_nodes):
            for j, x in enumerate(x_nodes):
                fh.write(f"{t:.12g},{x:.12g},{surf[i, j]:.12g}\n")


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


def _pricing_grid(cfg: dict, spec: pricing.CallSpec) -> pricing.TransformGrid:
    g = cfg.get("pricing_grid", {})
    return pricing.TransformGrid.for_call(
        spec,
        n_tau=g.get("n_tau", 48),
        n_y=g.get("n_y", 129),
        y_half=g.get("y_half", 0.8),
        n_time_quad=g.get("n_time_quad", 64),
        n_space_quad=g.get("n_space_quad", 161),
    )


def _surface_mesh(cfg: dict, spec: pricing.CallSpec):
    so = cfg.get("surface_output", {})
    times = np.asarray(
        so.get("times", np.linspace(0.0, spec.maturity, 9)), dtype=float
    )
    moneyness = np.asarray(so.get("moneyness", np.linspace(0.85, 1.15, 13)), dtype=float)
    return times, spec.strike * moneyness


def cmd_price(cfg: dict, out: Path) -> int:
    spec = _call_spec(cfg)
    grid = _pricing_grid(cfg, spec)
    t_nodes, x_nodes = _surface_mesh(cfg, spec)
    # reject surface points the solution cannot price before building it
    with np.errstate(divide="ignore", invalid="ignore"):
        y = np.log(x_nodes / spec.strike)
    if not np.all((grid.y_nodes[0] <= y) & (y <= grid.y_nodes[-1])):
        raise ConfigError("surface_output.moneyness must be positive with |log m| <= "
                          f"pricing_grid.y_half = {grid.y_nodes[-1]:g}")
    if np.any((t_nodes < 0) | (t_nodes > spec.maturity)):
        raise ConfigError(f"surface_output.times must lie in [0, maturity = {spec.maturity:g}]")
    sol = pricing.solve_perturbation(spec, grid)
    surf = pricing.surface(sol, t_nodes, x_nodes)
    _write_surface_csv(out / "price_surface.csv", t_nodes, x_nodes, surf)

    # refinement-doubling convergence check at an at-the-money probe: the
    # configured grid must agree with its half-resolution coarsening to 1e-4
    probe_t = 0.0
    probe_x = spec.strike
    base = float(pricing.price_discounted(sol, probe_x, probe_t))
    g = cfg.get("pricing_grid", {})
    coarse_grid = pricing.TransformGrid.for_call(
        spec,
        n_tau=max(g.get("n_tau", 48) // 2, 16),
        n_y=max((g.get("n_y", 129) - 1) // 2 + 1, 17),
        y_half=g.get("y_half", 0.8),
        n_time_quad=max(g.get("n_time_quad", 64) // 2, 8),
        n_space_quad=max((g.get("n_space_quad", 161) - 1) // 2 + 1, 21),
    )
    coarse = float(
        pricing.price_discounted(pricing.solve_perturbation(spec, coarse_grid), probe_x, probe_t)
    )
    rel_change = abs(base - coarse) / max(abs(base), 1e-300)
    converged = rel_change < 1e-4

    meta = _meta_skeleton(cfg, "price")
    meta["diagnostics"] = dict(sol.diagnostics)
    meta["convergence"] = {
        "probe_price": base,
        "probe_price_half_resolution": coarse,
        "relative_change_on_doubling": rel_change,
        "threshold": 1e-4,
        "converged": converged,
    }
    _write_json(out / "run_meta.json", meta)
    print(f"price: ATM probe {base:.6f}, doubling change {rel_change:.2e}")
    return 0 if converged else ANALYSIS_FLAG


def cmd_solve_pde(cfg: dict, out: Path) -> int:
    spec = _call_spec(cfg)
    g = cfg.get("pde_grid", {})
    grid = fdsolver.PdeGrid.for_call(
        spec,
        n_x=g.get("n_x", 257),
        n_t=g.get("n_t", 256),
        x_min=g.get("x_min"),
        x_max=g.get("x_max"),
    )
    result = fdsolver.solve(spec, grid)
    _write_surface_csv(out / "pde_surface.csv", result.t_nodes, result.x_nodes, result.surface)
    meta = _meta_skeleton(cfg, "solve-pde")
    meta["grid"] = {"n_x": result.n_x, "n_t": result.n_t,
                    "x_min": float(result.x_nodes[0]), "x_max": float(result.x_nodes[-1])}
    atm = float(fdsolver.evaluate(result, 0.0, spec.strike))
    meta["probe_price_atm_t0"] = atm
    _write_json(out / "run_meta.json", meta)
    print(f"solve-pde: ATM probe {atm:.6f}")
    return 0


def comparison_report(
    spec0: pricing.CallSpec,
    rhos,
    probe_moneyness=(0.95, 1.0, 1.05),
    n_x: int = 513,
    n_t: int = 1024,
    pricing_grid: pricing.TransformGrid | None = None,
) -> dict:
    """Cross-validate the series against the finite-difference oracle.

    For each requested ``rho`` the change from the classical price is
    computed on both routes; the finite-difference change is Richardson
    extrapolated in time and the classical solve is shared across rhos.
    The residual table is produced for both source constants so the
    printed-constant ambiguity is adjudicated by the data: the adopted
    constant must show third-order decay (halving ratio near 8), the
    rejected one does not.
    """
    rhos = sorted(float(r) for r in rhos)
    if len(rhos) < 2:
        raise ValueError("need at least two rho values to form ratios")
    probes = np.asarray(probe_moneyness, dtype=float) * spec0.strike

    base_spec = pricing.CallSpec(spec0.strike, spec0.maturity, spec0.sigma, 0.0, spec0.rate)
    base_values = {}

    def fd_change(rho: float, nt: int) -> np.ndarray:
        spec = pricing.CallSpec(spec0.strike, spec0.maturity, spec0.sigma, rho, spec0.rate)
        grid = fdsolver.PdeGrid.for_call(spec, n_x=n_x, n_t=nt)
        if nt not in base_values:
            base_values[nt] = fdsolver.evaluate(
                fdsolver.solve(base_spec, grid), 0.0, probes
            )
        v1 = fdsolver.evaluate(fdsolver.solve(spec, grid), 0.0, probes)
        return np.asarray(v1 - base_values[nt])

    fd = {}
    for rho in rhos:
        coarse = fd_change(rho, n_t)
        fine = fd_change(rho, 2 * n_t)
        fd[rho] = 2.0 * fine - coarse  # first-order Richardson in time

    # one quadrature build suffices: the corrections are exactly homogeneous
    # in the source constant (U1 linear, U2 quadratic), so the strike-scaled
    # candidate is the strike-free one rescaled by K and K^2
    spec_probe = pricing.CallSpec(
        spec0.strike, spec0.maturity, spec0.sigma, max(rhos), spec0.rate
    )
    grid = pricing_grid or pricing.TransformGrid.for_call(
        spec_probe, n_tau=32, n_y=97, y_half=0.6, n_time_quad=48, n_space_quad=161
    )
    sol = pricing.solve_perturbation(
        spec_probe, grid, convention=pricing.SOURCE_STRIKE_FREE, compute_corrections=True
    )
    taus = 0.5 * spec0.sigma**2 * spec0.maturity * np.ones(probes.size)
    ys = np.log(probes / spec0.strike)
    u1_free, u2_free = sol.correction_values(taus, ys)
    pref = spec0.strike * np.exp(ys / 2 - taus / 4)

    scale = {pricing.SOURCE_STRIKE_FREE: 1.0, pricing.SOURCE_STRIKE_SCALED: spec0.strike}
    table = {}
    for convention, c in scale.items():
        u1 = c * u1_free
        u2 = c * c * u2_free
        errors = []
        for rho in rhos:
            series_change = pref * (-rho * u1 + rho * rho * u2)
            errors.append(float(np.max(np.abs(series_change - fd[rho]))))
        # rhos ascend in a doubling ladder, so err[i+1]/err[i] is the
        # halving ratio (theoretical 8 for a third-order remainder)
        halving = [errors[i + 1] / errors[i] for i in range(len(errors) - 1)]
        table[convention] = {
            "rhos": rhos,
            "max_abs_error": errors,
            "halving_ratios": halving,
            "third_order": all(5.5 <= r <= 10.5 for r in halving),
        }
    # direct agreement of the two routes in the classical limit (the series
    # collapses to the closed form there)
    classical_series = pricing.price_discounted(
        pricing.solve_perturbation(base_spec, grid), probes, np.zeros(probes.size)
    )
    classical_gap = float(np.max(np.abs(classical_series - base_values[2 * n_t])))

    adopted = pricing.SOURCE_STRIKE_FREE
    report = {
        "series_sign_note": (
            "canonical-variable source is -(2 rho / sigma^2) sqrt(...); the "
            "series is assembled as u0 - rho U1 + rho^2 U2"
        ),
        "candidates": table,
        "adopted_constant": adopted,
        "adjudication_ok": bool(
            table[pricing.SOURCE_STRIKE_FREE]["third_order"]
            and not table[pricing.SOURCE_STRIKE_SCALED]["third_order"]
        ),
        "classical_max_abs_gap": classical_gap,
        "fd_reference": {"n_x": n_x, "n_t": [n_t, 2 * n_t], "richardson": "order-1 in time"},
        "probe_moneyness": list(np.asarray(probe_moneyness, dtype=float)),
    }
    return report


def cmd_compare(cfg: dict, out: Path) -> int:
    spec = _call_spec(cfg)
    cc = cfg.get("compare", {})
    rhos = cc.get("rhos", [0.01, 0.02, 0.04])
    report = comparison_report(spec, rhos, cc.get("probe_moneyness", (0.95, 1.0, 1.05)))
    adopted = report["candidates"][report["adopted_constant"]]
    with open(out / "compare_report.csv", "w", newline="") as fh:
        fh.write("rho,max_abs_error_adopted,max_abs_error_rejected\n")
        rej = report["candidates"][pricing.SOURCE_STRIKE_SCALED]
        for i, rho in enumerate(adopted["rhos"]):
            fh.write(f"{rho:.12g},{adopted['max_abs_error'][i]:.12g},"
                     f"{rej['max_abs_error'][i]:.12g}\n")
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
    times, coeffs = _market_schedule(cfg)
    if times.size > 1:
        raise ConfigError("simulate needs a constant market: 'market.times' "
                          f"has {times.size} entries, at most one is supported")
    model = coeffs[0]
    seed = cfg.get("seed", 0)
    ens = mc.simulate(model, est["paths"], est["dt"], est["horizon"], seed)
    mc.save_ensemble(ens, out / "ensemble.gate")
    if est.get("export_csv_paths", 0):
        mc.ensemble_to_csv(ens, out / "ensemble.csv", est["export_csv_paths"])
    cfg_est = mc.EstimatorConfig.for_ensemble(ens, est.get("lag_steps", 5))
    default_times = np.linspace(0.2, 0.8, 7) * est["horizon"]
    report_times = np.asarray(est.get("report_times", default_times), dtype=float)
    idx = np.unique(np.round(report_times / est["dt"]).astype(int))
    result = mc.empirical_rho(ens, model, cfg_est, idx)
    with open(out / "rho_estimates.csv", "w", newline="") as fh:
        fh.write("t," + ",".join(
            f"rho_{b + 1},se_{b + 1}" for b in range(max(result.B, 1))
        ) + "\n")
        for i, t in enumerate(result.times):
            if result.B:
                cells = [f"{result.estimate[i, b]:.12g},{result.se[i, b]:.12g}"
                         for b in range(result.B)]
            else:
                cells = ["nan,nan"]
            fh.write(f"{t:.12g}," + ",".join(cells) + "\n")
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
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    if args.seed is not None:
        cfg["seed"] = args.seed
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        return COMMANDS[args.command](cfg, out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, RuntimeError) as exc:
        print(f"error [{args.command}]: {exc}", file=sys.stderr)
        return ANALYSIS_FLAG


if __name__ == "__main__":
    sys.exit(main())
