"""The fields of every committed `BENCH_<label>.json` at the repository root.

Each file records one measurement session of `perfbench/run.py` and of a few
in-process kernels: the commits measured (one role each, such as `parent` and
`change`), the exact commands, per workload the run count and each side's
`correct` and `failed` flags with the median and quartiles of every
end-to-end metric `BENCHMARK.json` lists, one traced run's per-layer metrics
per workload, and each kernel timing with the snippet that produced it.
No measured number is asserted here: only that the fields are there.
"""

import json
import numbers
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = [m["name"] for m in BENCHMARK["end_to_end"]]
PER_LAYER = [m["name"] for m in BENCHMARK["per_layer"]]
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
FILES = sorted(ROOT.glob("BENCH_*.json"))
# kernels every file times, and those the baseline adds
KERNELS = ("build_teacher_dataset_N256_k4", "sample_ensemble_256", "build_parser")
BASELINE_KERNELS = ("train_n8_N256_k12_default", "jet_and_series_L1_n8_N256_k12",
                    "jet_and_series_L4_n8_N256_k12")


def is_number(x):
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def test_baseline_is_committed():
    assert ROOT / "BENCH_baseline.json" in FILES


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_bench_file_fields(path):
    doc = json.loads(path.read_text())
    assert path.name == f"BENCH_{doc['label']}.json"
    roles = list(doc["commits"])
    assert roles and all(isinstance(doc["commits"][r], str) for r in roles)
    assert doc["commands"] and all(isinstance(c, str) for c in doc["commands"])
    assert isinstance(doc["run_count"], dict) and doc["run_count"]

    assert {entry["workload"] for entry in doc["workloads"]} == set(WORKLOADS)
    for entry in doc["workloads"]:
        assert entry["runs"] >= 1 and len(entry["seeds"]) == entry["runs"]
        for role in roles:
            side = entry[role]
            assert len(side["correct"]) == len(side["failed"]) == entry["runs"]
            assert all(isinstance(c, bool) for c in side["correct"])
            assert all(isinstance(f, int) for f in side["failed"])
            for name in E2E:
                assert all(is_number(side["metrics"][name][q]) for q in ("median", "q1", "q3"))

    assert set(doc["trace"]) == set(WORKLOADS)
    for workload, trace in doc["trace"].items():
        assert isinstance(trace["command"], str) and "--trace 1" in trace["command"]
        for role in roles:
            assert all(is_number(trace[role][name]) for name in PER_LAYER), (workload, role)

    required = KERNELS + (BASELINE_KERNELS if doc["label"] == "baseline" else ())
    assert set(required) <= set(doc["kernels"])
    for name, kernel in doc["kernels"].items():
        assert isinstance(kernel["setup"], str) and isinstance(kernel["stmt"], str), name
        assert any(role in kernel for role in roles), name
        for role in roles:
            if role in kernel:
                assert is_number(kernel[role]["best_us"]) and is_number(kernel[role]["median_us"])
    for name in required:
        assert all(role in doc["kernels"][name] for role in roles), name
