"""Run one workload in this fresh interpreter and write its result as JSON.

    python3 perfbench/worker.py --workload NAME --workdir DIR --seconds S \
        --trace 0|1 --result FILE [--trace-file FILE]

``DIR`` holds the generated configs.  Operations run in a closed loop, one
at a time, until the next one would end after ``S`` seconds (at least one
runs).  Each operation calls ``itoarb.cli.main`` once per command, in
process.  The first completed operation's outputs are kept in
``DIR/reference`` for the parent's content checks.
With ``--trace 1`` untraced and traced operations alternate, so the tracing
overhead is the difference of their medians.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from itoarb import cli, geometry  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def provenance() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


def run_operation(workload: str, workdir: Path, out: Path) -> dict:
    """Run the workload's command sequence once and check the exit codes.

    The content checks run in the parent process on the first completed
    operation's outputs, so they add nothing to this process's peak RSS;
    every operation must write the same bytes as that one.
    """
    if out.exists():
        shutil.rmtree(out)
    gc.collect()
    commands = workloads.COMMANDS[workload]
    start = time.perf_counter()
    try:
        codes = [cli.main([cmd, "--config", str(workdir / cfg), "--out", str(out / cmd)])
                 for cmd, cfg, _ in commands]
    except Exception:  # an escaped exception fails the operation, not the run
        traceback.print_exc()
        return {"wall_s": None, "problems": ["uncaught exception"]}
    wall = time.perf_counter() - start
    problems = [f"{cmd}: exit code {code}, expected {expected}"
                for (cmd, _, expected), code in zip(commands, codes) if code != expected]
    return {
        "wall_s": wall,
        "problems": problems,
        "digest": workloads.digest(out),
        "bytes": sum(p.stat().st_size for p in out.rglob("*") if p.is_file()),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.COMMANDS))
    ap.add_argument("--workdir", required=True, type=Path)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", required=True, type=Path)
    ap.add_argument("--trace-file", type=Path)
    args = ap.parse_args()

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"itoarb imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    expected = {}
    if args.workload == "mc_rho":
        m = json.loads((args.workdir / "market.json").read_text())["market"]
        model = geometry.ItoCoefficients(m["alpha"], m["sigma"], m["short_rate"])
        expected["expected_rho"] = float(geometry.rho(model)[0])
    # lazy imports inside the first command (jsonschema) belong to setup_s,
    # which the benchmark measures on its own
    cli.load_config(args.workdir / workloads.COMMANDS[args.workload][0][1])

    tracer = Tracer()
    out = args.workdir / "out"
    reference = args.workdir / "reference"
    reference_digest = None
    ops = []
    step = 2 if args.trace else 1  # a traced run measures untraced/traced pairs
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        traced = bool(args.trace) and len(ops) % 2 == 1
        if traced:
            tracer.op = len(ops)
            tracer.install()
        try:
            op = run_operation(args.workload, args.workdir, out)
        finally:
            tracer.uninstall()
        op["traced"] = traced
        if "digest" in op:
            if reference_digest is None:
                out.rename(reference)
                reference_digest = op["digest"]
            elif op["digest"] != reference_digest:
                op["problems"].append("outputs differ from the first operation's")
        if traced:
            counts = tracer.counts[tracer.op]
            counts["cli.bytes_written"] = (op.get("bytes", 0)
                                           - counts["simulate.save_ensemble.bytes"])
        ops.append(op)
        for problem in op["problems"]:
            print(f"operation {len(ops)} failed: {problem}", file=sys.stderr)
        took = time.perf_counter() - began
        if len(ops) % step == 0 and time.perf_counter() - start + step * took > args.seconds:
            break
    if out.exists():
        shutil.rmtree(out)

    result = {
        "attempted": len(ops),
        "failed": sum(1 for op in ops if op["problems"]),
        "wall_s": [op["wall_s"] for op in ops if not op["traced"] and op["wall_s"] is not None],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "expected": expected,
        "provenance": provenance(),
    }
    if args.trace:
        per_op = [tracer.op_metrics(i) for i, op in enumerate(ops) if op["traced"]]
        layer = {}
        for k, first in per_op[0].items():
            if isinstance(first, int):  # a count, the same for every operation
                if len({m[k] for m in per_op}) > 1:
                    print(f"warning: count {k} differs between operations", file=sys.stderr)
                layer[k] = first
            else:
                layer[k] = statistics.median(m[k] for m in per_op)
        traced_wall = [op["wall_s"] for op in ops if op["traced"] and op["wall_s"] is not None]
        layer["trace.wall_s"] = statistics.median(traced_wall)
        layer["trace.overhead_s"] = layer["trace.wall_s"] - statistics.median(result["wall_s"])
        layer["trace.missing"] = len(tracer.missing)
        result["per_layer"] = layer
        result["missing"] = tracer.missing
        if args.trace_file:
            args.trace_file.parent.mkdir(parents=True, exist_ok=True)
            args.trace_file.write_text(json.dumps({
                "workload": args.workload,
                "provenance": result["provenance"],
                "missing": tracer.missing,
                "span_fields": ["id", "parent", "op", "layer", "name", "start", "end"],
                "spans": tracer.spans,
            }))
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
