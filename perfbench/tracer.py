"""Span tracer built from outside the program.

It replaces listed public functions of the ``itoarb`` modules by timing
wrappers, in every ``itoarb`` module that binds them (``from .geometry import
kernel_basis`` makes a second binding), and restores the originals on
``uninstall``.  Spans stay in memory until the run ends.  A listed name that
no longer exists is reported as missing.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

import numpy as np

# layer -> (module, public functions wrapped)
LAYERS = {
    "cli": ("itoarb.cli", ["main", "load_config", "comparison_report"]),
    "pricing": ("itoarb.pricing", [
        "source_coefficient", "heat_kernel", "u0_and_prime", "u0", "u0_prime",
        "u0_by_quadrature", "nonlinear_f", "nonlinear_f_gradient",
        "duhamel_integral", "compute_u1", "compute_u2", "solve_perturbation",
        "price_discounted", "price_undiscounted", "surface", "bss_consistency",
    ]),
    "fdsolver": ("itoarb.fdsolver", ["solve", "solve_undiscounted", "evaluate"]),
    "simulate": ("itoarb.simulate", [
        "simulate", "brownian_paths", "nelson_derivatives", "instantaneous_return",
        "empirical_rho", "self_financing_residual", "save_ensemble",
        "load_ensemble", "ensemble_to_csv",
    ]),
    "geometry": ("itoarb.geometry", [
        "diag_of", "range_projections", "kernel_basis", "rho", "zc_residual",
        "curvature_spread", "implied_beta", "rho_tilde", "load_matrix_csv",
    ]),
    "gauges": ("itoarb.gauges", [
        "dirac", "convolve", "gauge_transform", "forward_rate", "short_rate",
        "term_structure_from_forward", "portfolio_gauge", "portfolio_short_rate",
        "write_deflator_csv", "read_deflator_csv", "write_term_structure_csv",
        "read_term_structure_csv", "write_intensity_csv", "read_intensity_csv",
    ]),
}


def _size(*arrays) -> int:
    return int(np.broadcast(*[np.asarray(a) for a in arrays]).size)


def _cells(a, result):
    grid = a["grid"]
    return {"fdsolver.solves": 1, "fdsolver.cells": grid.n_x * grid.n_t}


def _neighbour_reads(a, result):
    # every report time gathers k neighbours of each of the M paths for the
    # forward and the backward quotient of each of the N assets
    if not result.B:
        return {}
    ens = a["ens"]
    n_times = np.atleast_1d(a["t_indices"]).size
    return {"simulate.neighbour_reads":
            n_times * ens.n_paths * a["cfg"].neighbors * 2 * ens.n_assets}


# (layer, function) -> counts(bound arguments, result); counts depend only on
# the call, so they repeat exactly for the same inputs
COUNTS = {
    ("pricing", "solve_perturbation"): lambda a, r: {"pricing.solve_perturbation.calls": 1},
    ("pricing", "u0_and_prime"): lambda a, r: {"pricing.u0_and_prime.evals": _size(a["tau"], a["y"])},
    ("pricing", "nonlinear_f"): lambda a, r: {"pricing.nonlinear_f.evals": _size(a["v1"], a["v2"])},
    ("pricing", "price_discounted"): lambda a, r: {"pricing.price_discounted.points": _size(a["x"], a["t"])},
    ("fdsolver", "solve"): _cells,
    ("fdsolver", "solve_undiscounted"): _cells,
    ("fdsolver", "evaluate"): lambda a, r: {"fdsolver.evaluate.points": _size(a["t"], a["x"])},
    ("simulate", "simulate"): lambda a, r: {
        "simulate.path_steps": r.n_paths * (r.states.shape[1] - 1) * r.n_assets},
    ("simulate", "empirical_rho"): _neighbour_reads,
    ("simulate", "save_ensemble"): lambda a, r: {
        "simulate.save_ensemble.bytes": os.path.getsize(a["path"])},
    ("geometry", "kernel_basis"): lambda a, r: {"geometry.calls": 1},
    ("geometry", "rho"): lambda a, r: {"geometry.calls": 1},
    ("geometry", "zc_residual"): lambda a, r: {"geometry.calls": 1},
}
COUNTS.update({("gauges", name): (lambda a, r: {"gauges.calls": 1})
               for name in LAYERS["gauges"][1]})

# every counter an operation reports, zero when nothing adds to it;
# cli.bytes_written is added by the worker from the files an operation wrote
COUNTERS = (
    "cli.bytes_written",
    "pricing.solve_perturbation.calls", "pricing.u0_and_prime.evals",
    "pricing.nonlinear_f.evals", "pricing.price_discounted.points",
    "fdsolver.solves", "fdsolver.cells", "fdsolver.evaluate.points",
    "simulate.path_steps", "simulate.neighbour_reads", "simulate.save_ensemble.bytes",
    "geometry.calls", "gauges.calls",
)


class Tracer:
    """Records ``(id, parent, op, layer, name, start, end)`` spans and
    per-operation counts while installed."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(lambda: defaultdict(int))
        self.missing: list[str] = []
        self.op = 0
        self._stack: list[int] = []
        self._saved: list = []

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "itoarb" or n.startswith("itoarb."))]
        self.missing = []
        for layer, (modname, names) in LAYERS.items():
            owner = sys.modules.get(modname)
            for name in names:
                fn = getattr(owner, name, None)
                if not inspect.isfunction(fn):
                    self.missing.append(f"{modname}.{name}")
                    continue
                wrapper = self._wrap(layer, name, fn)
                for m in modules:
                    for attr in [k for k, v in vars(m).items() if v is fn]:
                        self._saved.append((m, attr, fn))
                        setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, fn in reversed(self._saved):
            setattr(m, attr, fn)
        self._saved = []

    def _wrap(self, layer: str, name: str, fn):
        count = COUNTS.get((layer, name))
        signature = inspect.signature(fn)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid] = (sid, parent, self.op, layer, name, start, end)
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in count(bound.arguments, result).items():
                    self.counts[self.op][key] += value
            return result

        return wrapper

    def op_metrics(self, op: int) -> dict[str, float]:
        """Self time per layer, inclusive time per function and counts of one
        operation.  A layer's self time is the time in its spans that no span
        of another layer covers."""
        spans = [s for s in self.spans if s is not None and s[2] == op]
        by_id = {s[0]: s for s in spans}
        covered = defaultdict(float)
        for s in spans:
            if s[1] is not None:
                covered[s[1]] += s[6] - s[5]
        out: dict[str, float] = dict.fromkeys(COUNTERS, 0)
        for layer, (_, names) in LAYERS.items():
            out[f"{layer}.self_s"] = 0.0
            out.update((f"{layer}.{name}.s", 0.0) for name in names)
        for s in spans:
            out[f"{s[3]}.self_s"] += (s[6] - s[5]) - covered[s[0]]
            # inclusive time: outermost span of each function only
            p = s[1]
            while p is not None and by_id[p][3:5] != s[3:5]:
                p = by_id[p][1]
            if p is None:
                out[f"{s[3]}.{s[4]}.s"] += s[6] - s[5]
        out.update(self.counts[op])
        return out
