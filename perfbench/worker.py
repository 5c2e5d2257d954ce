"""One benchmark process: set up a workload, run its rounds, check outputs.

run.py starts this script in a fresh interpreter, several times per run:
with --setup-only it sets up and exits, which gives one `setup_s` sample;
without it, it also runs rounds for --seconds and writes every metric.
The result goes to the JSON file named by --result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# the checkout's own jetsid, never an installed copy
sys.path.insert(0, str(ROOT / "src"))
SETUP_KERNELS = 20


def summary(samples: list[float]) -> dict:
    """Median and sample count; the highest percentile with at least ten
    samples beyond it, once there are enough samples for one above the median."""
    out = {"median": statistics.median(samples), "n": len(samples), "max": max(samples)}
    if len(samples) >= 20:
        pct = int(100 * (1 - 10 / len(samples)))
        out[f"p{pct}"] = statistics.quantiles(samples, n=100)[pct - 1]
    return out


def code_hash() -> str:
    """Digest of the program and benchmark sources, which key the work counts."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "jetsid").glob("*.py"), *HERE.glob("*.py")]):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _duration(span) -> float:
    return span[1] - span[0]


def _round_metrics(rnd, duration) -> dict:
    """A round's end-to-end times: its wall time, the pairs per second over
    all its dataset builds, and the mean time of its scoring operations."""
    return {
        "wall_s": duration(rnd.wall),
        "generate_pairs_per_s": sum(x[2] for x in rnd.generate)
                                / sum(duration(x) for x in rnd.generate),
        "evaluate_s": statistics.fmean(duration(x) for x in rnd.evaluate),
    }


def _op_samples(rounds, duration) -> dict:
    """Summary of every single operation's time over the run."""
    samples = {
        "wall_s": [duration(r.wall) for r in rounds],
        "train_s": [duration(x) for r in rounds for x in r.train],
        "generate_pairs_per_s": [x[2] / duration(x) for r in rounds for x in r.generate],
        "evaluate_s": [duration(x) for r in rounds for x in r.evaluate],
    }
    return {name: summary(v) for name, v in samples.items()}


def run_rounds(wl, seconds: float, trace: bool, run_dir: Path, seed: int) -> dict:
    """Rounds for `seconds`, output checks, and the run's metrics: end-to-end
    ones, or with `trace` the per-layer ones of the traced rounds."""
    from spans import Tracer
    from speed import SpeedProbe
    from workloads import Round

    rounds: list[Round] = []
    failures: list[str] = []
    layer_rounds: list[dict] = []
    tracer = None
    start = time.perf_counter()

    def one_round():
        rnd = Round()
        t0 = time.perf_counter()
        if tracer is None:
            wl.round(rnd)
        else:
            first = tracer.reset_round()
            with tracer.span("bench.round"):
                wl.round(rnd)
        rnd.wall = (t0, time.perf_counter())
        rounds.append(rnd)
        failures.extend(f"round {len(rounds)}: {f}" for f in rnd.failures)
        if tracer is not None:
            layer_rounds.append(tracer.round_metrics(first, "bench.round"))

    # end-to-end times are calibrated for the CPU's speed; traced runs stay raw
    probe = None if trace else SpeedProbe()
    try:
        if probe is not None:
            probe.start()
        one_round()
        if trace:
            tracer = Tracer()
            tracer.install()
            wl.on_op = lambda op: setattr(tracer, "op", op)
            one_round()
        while not failures:
            timed = rounds[1:] if trace else rounds
            mean_wall = statistics.mean(_duration(r.wall) for r in timed)
            if time.perf_counter() - start + mean_wall > seconds:
                break
            one_round()
    except Exception:
        traceback.print_exc()
        failures.append(f"round {len(rounds) + 1} raised: {traceback.format_exc(limit=1)}")
    finally:
        if probe is not None:
            probe.stop()
    if not rounds or (trace and not layer_rounds):
        return {"attempted": max(1, sum(r.ops for r in rounds)), "failed": 1,
                "failures": failures, "metrics": {}, "details": {}}

    failures += wl.check(rounds[0])
    for i, rnd in enumerate(rounds[1:], start=2):
        if rnd.outputs != rounds[0].outputs:
            failures.append(f"round {i} outputs differ from round 1 on the same inputs")
    details = {"rounds": len(rounds), **rounds[0].details}
    if trace:
        metrics = _per_layer(wl, rounds[0], layer_rounds, failures, run_dir, seed)
        details["top_self_s"] = layer_rounds[0]["top_self_s"]
        trace_file = run_dir.parent / f"trace-{wl.name}-seed{seed}.npz"
        tracer.save(trace_file)
        details["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        calibrated = lambda span: probe.seconds(*span[:2])
        per_round = [_round_metrics(r, calibrated) for r in rounds]
        metrics = {name: statistics.median(r[name] for r in per_round) for name in per_round[0]}
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        details["samples"] = _op_samples(rounds, calibrated)
        details["raw_samples"] = _op_samples(rounds, _duration)
        details["kernel_s"] = summary(probe.costs)
    attempted = sum(r.ops for r in rounds)
    return {"attempted": attempted, "failed": min(attempted, len(failures)),
            "failures": failures, "metrics": metrics, "details": details}


def _per_layer(wl, untraced, layer_rounds, failures, run_dir: Path, seed: int) -> dict:
    """Per-layer metrics of the traced rounds, after checking that their
    work counts repeat and their self times add up."""
    from spans import PER_LAYER, REPEATING_COUNTS

    counts = {c: layer_rounds[0][c] for c in REPEATING_COUNTS}
    for i, lr in enumerate(layer_rounds[1:], start=2):
        if any(lr[c] != counts[c] for c in REPEATING_COUNTS):
            failures.append(f"traced round {i} work counts differ from traced round 1")
    counts_file = run_dir.parent / "counts" / f"{wl.name}-seed{seed}-{code_hash()}.json"
    if counts_file.exists():
        earlier = json.loads(counts_file.read_text())
        if earlier != counts:
            failures.append(f"work counts {counts} differ from an earlier run of the same "
                            f"code and seed: {earlier} ({counts_file})")
    else:
        counts_file.parent.mkdir(parents=True, exist_ok=True)
        counts_file.write_text(json.dumps(counts, indent=2) + "\n")
    for i, lr in enumerate(layer_rounds, start=1):
        if abs(lr["trace.self_sum_s"] - lr["trace.wall_s"]) > 1e-6 * lr["trace.wall_s"]:
            failures.append(f"traced round {i}: span self times sum to {lr['trace.self_sum_s']} s, "
                            f"not the round's {lr['trace.wall_s']} s")

    metrics = {}
    for name in PER_LAYER:
        if name in layer_rounds[0]:
            values = [lr[name] for lr in layer_rounds]
            metrics[name] = values[0] if isinstance(values[0], int) else statistics.median(values)
    metrics["trace.untraced_wall_s"] = _duration(untraced.wall)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    return {name: metrics[name] for name in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import jetsid
    if Path(jetsid.__file__).resolve().parent != ROOT / "src" / "jetsid":
        print(f"imported jetsid from {jetsid.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    run_dir = Path(args.run_dir)
    wl = WORKLOADS[args.workload](args.seed, run_dir)
    result = {"ready": time.time()}
    # calibrates this process's setup time, as SpeedProbe does for the rounds
    from speed import REFERENCE_KERNEL_S, SpeedProbe
    probe = SpeedProbe()
    for _ in range(SETUP_KERNELS):
        probe.sample()
    result["setup_scale"] = statistics.fmean(REFERENCE_KERNEL_S / c for c in probe.costs)
    if not args.setup_only:
        result.update(run_rounds(wl, args.seconds, bool(args.trace), run_dir, args.seed))
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
