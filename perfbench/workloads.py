"""Seeded inputs, command sequences and output checks of the three workloads.

A workload operation is a fixed sequence of ``itoarb`` commands run through
``itoarb.cli.main``.  The seed draws only values that leave the work per
operation unchanged (the strike, the planted ``rho`` of the market and the
``simulate`` seed); grids, ``sigma^2 T``, the compare ``rho`` ladder and the
path count are fixed, because ``sigma^2 T`` sets the padded y grid and so the
work.  The program sees nothing but the generated JSON configs.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from pathlib import Path

import numpy as np

# Volatility column of the README market; its kernel direction (the asset
# combination outside the range of sigma) is (1, -2)/sqrt(5), oriented so the
# first entry is positive as itoarb.geometry.kernel_basis does.
MARKET_SIGMA = (0.2, 0.1)
MARKET_KERNEL = (1 / math.sqrt(5), -2 / math.sqrt(5))
MARKET_RANGE_LOADING = 0.3  # README alpha = 0.3 * sigma - 0.02236 * J

SURFACE_OUTPUT = {"times": [0.0, 0.5, 1.0], "moneyness": [0.9, 1.0, 1.1]}

# command, config file, expected exit code (check-zc exits 1 by design on a
# market with a planted rho)
COMMANDS = {
    "series_price": [("price", "call.json", 0)],
    "route_compare": [("compare", "call.json", 0), ("solve-pde", "call.json", 0)],
    "mc_rho": [("check-zc", "market.json", 1), ("simulate", "market.json", 0)],
}

# files each command must write, besides run_meta.json
OUTPUTS = {
    "price": ["price_surface.csv"],
    "compare": ["compare_report.csv"],
    "solve-pde": ["pde_surface.csv"],
    "check-zc": ["zc_report.csv"],
    "simulate": ["rho_estimates.csv", "ensemble.gate"],
}


def _call(rng: random.Random) -> dict:
    return {
        "strike": round(rng.uniform(80.0, 125.0), 2),
        "maturity": 1.0,
        "sigma": 0.2,
        "rho": 0.02,
        "rate": 0.0,
    }


def make_inputs(workload: str, seed: int) -> tuple[dict[str, dict], dict]:
    """Return ``({file name: config}, facts)`` for one workload and seed.

    ``facts`` holds what the generator planted, for the output checks.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "series_price":
        # README call.json with the pricing grid and quadrature halved
        # together (48x129 / 64x161 -> 24x65 / 32x81), so that one operation
        # fits several times into a run and pricing stays nearly all of it
        call = {
            "schema_version": 1,
            "call": _call(rng),
            "pricing_grid": {"n_tau": 24, "n_y": 65, "y_half": 0.8,
                             "n_time_quad": 32, "n_space_quad": 81},
            "surface_output": SURFACE_OUTPUT,
        }
        return {"call.json": call}, {}
    if workload == "route_compare":
        # pde_grid at the compare reference resolution (n_x 513, n_t 2048)
        call = {
            "schema_version": 1,
            "call": _call(rng),
            "pde_grid": {"n_x": 513, "n_t": 2048},
            "compare": {"rhos": [0.01, 0.02, 0.04]},
            "surface_output": SURFACE_OUTPUT,
        }
        return {"call.json": call}, {}
    if workload == "mc_rho":
        # constant README market with a planted rho: alpha is a range part
        # plus rho along the kernel direction
        planted = rng.choice((-1.0, 1.0)) * rng.uniform(0.01, 0.05)
        alpha = [MARKET_RANGE_LOADING * s + planted * j
                 for s, j in zip(MARKET_SIGMA, MARKET_KERNEL)]
        market = {
            "schema_version": 1,
            "seed": rng.randrange(2**31),
            "market": {
                "alpha": alpha,
                "sigma": [[s] for s in MARKET_SIGMA],
                "short_rate": [0.0, 0.0],
            },
            "estimator": {"paths": 20000, "dt": 0.005, "horizon": 1.0},
        }
        return {"market.json": market}, {"planted_rho": planted}
    raise ValueError(f"unknown workload {workload!r}")


def write_inputs(configs: dict[str, dict], directory: Path) -> None:
    for name, cfg in configs.items():
        (directory / name).write_text(json.dumps(cfg, indent=2) + "\n")


# ---------------------------------------------------------------------------
# output checks


def csv_values(path: Path, block_lines: int = 100_000) -> tuple[np.ndarray, int]:
    """All numeric cells of a CSV file (``;``-joined lists split too) and the
    number of data rows, read in blocks to bound memory.  Raises
    ``ValueError`` on a cell that does not parse as a number."""
    chunks = []
    rows = 0
    with open(path) as fh:
        fh.readline()  # header
        while True:
            lines = list(itertools.islice(fh, block_lines))
            if not lines:
                break
            text = "".join(lines).replace(";", ",").replace("\n", ",").rstrip(",")
            chunks.append(np.array(text.split(","), dtype=float))
            rows += len(lines)
    return (np.concatenate(chunks) if chunks else np.empty(0)), rows


def digest(directory: Path) -> dict[str, str]:
    """SHA-256 of every file under ``directory``, keyed by relative path."""
    out = {}
    for p in sorted(directory.rglob("*")):
        if p.is_file():
            h = hashlib.sha256()
            with open(p, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    h.update(block)
            out[str(p.relative_to(directory))] = h.hexdigest()
    return out


def _finite_csvs(out: Path, problems: list[str]) -> dict[str, np.ndarray]:
    tables = {}
    for p in sorted(out.glob("*.csv")):
        try:
            vals, rows = csv_values(p)
        except ValueError as exc:
            problems.append(f"{p.name}: {exc}")
            continue
        if not np.isfinite(vals).all():
            problems.append(f"{p.name}: non-finite cell")
        if rows and vals.size % rows:
            problems.append(f"{p.name}: rows of unequal length")
            continue
        tables[p.name] = vals.reshape(rows, -1) if rows else vals.reshape(0, 0)
    return tables


def check_outputs(workload: str, out: Path, facts: dict) -> tuple[list[str], dict]:
    """Check one operation's outputs (``out/<command>/``).

    Returns the failures found and the accuracy figures the commands report
    (doubling change, route gap), for display.
    """
    problems: list[str] = []
    quality: dict = {}
    for command, _, _ in COMMANDS[workload]:
        quality.update(_check_command(command, out / command, facts, problems))
    return problems, quality


def _check_command(command: str, out: Path, facts: dict, problems: list[str]) -> dict:
    quality = {}
    for name in OUTPUTS[command]:
        if not (out / name).is_file():
            problems.append(f"{command}: {name} missing")
    tables = _finite_csvs(out, problems)
    try:
        meta = json.loads((out / "run_meta.json").read_text())
    except (OSError, ValueError) as exc:
        problems.append(f"{command}: run_meta.json unreadable: {exc}")
        return quality
    for name in ("price_surface.csv", "pde_surface.csv"):
        if name not in tables:
            continue
        if tables[name].ndim != 2 or tables[name].shape[1] != 3:  # t, X, Phi
            problems.append(f"{name}: unexpected columns")
        elif (tables[name][:, 2] < 0).any():
            problems.append(f"{name}: negative price")
    if command == "price":
        conv = meta.get("convergence", {})
        if conv.get("converged") is not True:
            problems.append("price: convergence.converged is not true")
        quality["doubling_change"] = conv.get("relative_change_on_doubling", float("nan"))
    elif command == "compare":
        comp = meta.get("comparison", {})
        if comp.get("adjudication_ok") is not True:
            problems.append("compare: adjudication_ok is not true")
        adopted = comp.get("candidates", {}).get(comp.get("adopted_constant"), {})
        errors = adopted.get("max_abs_error") or [float("nan")]
        quality["route_gap"] = errors[-1]  # rhos ascend: last is the largest
    elif command == "check-zc":
        if meta.get("arbitrage_flagged") is not True:
            problems.append("check-zc: planted rho not flagged")
        zc = tables.get("zc_report.csv")
        # row: t, zc_residual, kernel_dim, rho_norm, rho_1
        if zc is None or zc.shape != (1, 5) or abs(zc[0, 4] - facts["planted_rho"]) > 1e-12:
            problems.append("check-zc: reported rho differs from the planted one")
    elif command == "simulate":
        est = tables.get("rho_estimates.csv")
        if est is None or est.ndim != 2 or est.shape[1] != 3 or not len(est):
            problems.append("simulate: rho_estimates.csv has an unexpected shape")
        else:
            tol = np.maximum(3.0 * est[:, 2], 1e-9)
            if (np.abs(est[:, 1] - facts["expected_rho"]) > tol).any():
                problems.append("simulate: estimate outside max(3 SE, 1e-9) of geometry.rho")
    return quality
