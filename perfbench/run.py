"""Benchmark of the itoarb command line on generated workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The seed generates the workload's
JSON configs in a temporary directory under the checkout (removed at the
end).  With ``--trace 0`` the set-up time is taken from several fresh
interpreters, then one fresh worker process runs the operations in a closed
loop (one client, one operation at a time) and reports wall time and peak
RSS.  With ``--trace 1`` the worker alternates untraced and traced
operations and reports the per-layer metrics; its spans are written to
``.bench_trace/``.  Metric names and units come from ``BENCHMARK.json``.
The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
DEADLINE_S = 170  # a run must end within 180 s

# time for a fresh interpreter to import itoarb.cli and load one config
SETUP_PROBE = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import itoarb.cli
itoarb.cli.load_config(sys.argv[2])
print(repr(time.perf_counter() - start))
"""


def setup_seconds(config: Path, deadline: float) -> float:
    runs = []
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(config)],
            capture_output=True, text=True, cwd=ROOT, check=True,
            timeout=max(deadline - time.monotonic(), 1),
        )
        if i:  # the first run compiles byte code and warms the file cache
            runs.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(runs)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.COMMANDS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "itoarb" / "cli.py").is_file():
        print(f"error: no itoarb sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    configs, facts = workloads.make_inputs(args.workload, args.seed)
    workdir = Path(tempfile.mkdtemp(prefix=".bench_tmp_", dir=ROOT))
    try:
        workloads.write_inputs(configs, workdir)
        first_config = workdir / workloads.COMMANDS[args.workload][0][1]
        setup = None if args.trace else setup_seconds(first_config, deadline)
        result_file = workdir / "result.json"
        cmd = [sys.executable, str(Path(__file__).with_name("worker.py")),
               "--workload", args.workload, "--workdir", str(workdir),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--result", str(result_file)]
        if args.trace:
            cmd += ["--trace-file",
                    str(ROOT / ".bench_trace" / f"{args.workload}-seed{args.seed}.json")]
        # the worker's own output (the commands' progress lines) goes to stderr
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=sys.stderr,
                       timeout=max(deadline - time.monotonic(), 1))
        res = json.loads(result_file.read_text())
        reference = workdir / "reference"
        problems, quality = (workloads.check_outputs(args.workload, reference,
                                                     {**facts, **res["expected"]})
                             if reference.exists() else (["no operation completed"], {}))
    except (OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not res["wall_s"]:
        print("error: no operation completed", file=sys.stderr)
        return 1
    attempted, failed = res["attempted"], res["failed"]
    for problem in problems:
        print(f"output check failed: {problem}", file=sys.stderr)
    if problems:
        # every operation wrote the reference bytes or already failed
        failed = attempted

    measured = res.get("per_layer", {})
    if not args.trace:
        measured = {
            "setup_s": setup,
            "wall_s": statistics.median(res["wall_s"]),
            "peak_rss_mb": res["peak_rss_mb"],
        }
    unknown = [m["name"] for m in wanted if m["name"] not in measured]
    if unknown:
        print(f"error: metrics not measured: {unknown}", file=sys.stderr)
        return 1

    walls = res["wall_s"]
    print(f"provenance: {json.dumps(res['provenance'], sort_keys=True)}")
    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} operations, {failed} failed, failed_ratio {failed / attempted:.3g}")
    print(f"  untraced wall_s per operation (n {len(walls)}): "
          + " ".join(f"{w:.4g}" for w in walls))
    for name, value in sorted(quality.items()):
        print(f"  {name}: {value:.6g}")
    if res.get("missing"):
        print(f"  traced functions missing: {', '.join(res['missing'])}")
    for m in wanted:
        print(f"  {m['name']}: {measured[m['name']]:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
