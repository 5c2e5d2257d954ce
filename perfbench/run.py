"""Benchmark of jetsid: run one workload and print its metrics.

    python3 perfbench/run.py --workload teacher_fit --seed 1 --seconds 30 --trace 0

Workloads: teacher_fit, identify_duffing, sweep_linear_k (see README.md).
With --trace 0 the last line of standard output is a JSON object holding
every end-to-end metric; with --trace 1 it holds the per-layer metrics of a
traced run.  Run it from anywhere inside a checkout of the repository: it
imports jetsid from the checkout's src/ and writes only under
.perfbench_runs/ at the checkout's root.

Each run starts fresh interpreters: SETUP_PROBES processes that only set up
(each gives one setup_s sample), then one process that sets up and runs the
workload's rounds for --seconds.  Exit status is 0 when the run finished,
whether or not its output checks passed (see "correct" in the result), and
2 when the program or the workload cannot be run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("teacher_fit", "identify_duffing", "sweep_linear_k")
DEFAULT_SEED = 1
SETUP_PROBES = 4
# The whole run must end within 180 s.
RUN_LIMIT_S = 170.0
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "generate_pairs_per_s": "pairs/s",
    "evaluate_s": "s",
    "peak_rss_mb": "MB",
}
# numpy's BLAS pool would add threads of its own; the workloads use at most 2
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def start_worker(args, run_dir: Path, result: Path, setup_only: bool) -> tuple[float, dict]:
    """Run worker.py to completion; returns its start time and its result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--run-dir", str(run_dir), "--result", str(result)]
    if setup_only:
        cmd.append("--setup-only")
    remaining = RUN_LIMIT_S - (time.monotonic() - args.started)
    spawned = time.time()
    proc = subprocess.Popen(cmd, stdout=sys.stderr, env=dict(os.environ, **THREAD_ENV))
    try:
        rc = proc.wait(timeout=max(1.0, remaining))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker still running after the {RUN_LIMIT_S:.0f} s run limit")
    if rc != 0:
        raise RuntimeError(f"worker exited with status {rc}")
    return spawned, json.loads(result.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed; every input is drawn from it (default {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="how long the rounds of the workload run (default 35)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    args = parser.parse_args(argv)
    args.started = time.monotonic()

    if not (ROOT / "src" / "jetsid" / "__init__.py").is_file():
        print(f"no jetsid sources under {ROOT / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    run_dir = ROOT / ".perfbench_runs" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        setup = []
        probes = 0 if args.trace else SETUP_PROBES
        for i in range(probes):
            spawned, res = start_worker(args, run_dir, run_dir / f"setup{i}.json", True)
            setup.append((res["ready"] - spawned) * res["setup_scale"])
        spawned, res = start_worker(args, run_dir, run_dir / "result.json", False)
        setup.append((res["ready"] - spawned) * res["setup_scale"])
    except RuntimeError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    details = res["details"]
    if args.trace:
        units = {name: _layer_unit(name) for name in res["metrics"]}
    else:
        units = END_TO_END_UNITS
        res["metrics"]["setup_s"] = statistics.median(setup)
        details["setup_s"] = {"median": statistics.median(setup), "n": len(setup),
                              "max": max(setup)}
    metrics = {name: {"value": res["metrics"][name], "unit": unit}
               for name, unit in units.items() if name in res["metrics"]}
    for failure in res["failures"]:
        print(f"check failed: {failure}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "details": details}))
    print(json.dumps({"correct": not res["failures"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".mean_risk") or name.endswith(".final_risk"):
        return "risk"
    return "count"


if __name__ == "__main__":
    raise SystemExit(main())
