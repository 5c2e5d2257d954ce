"""Golden outputs of the five CLI commands (a characterization test).

Each case writes its config into an empty working directory and runs a
chain of commands through `cli.main` with a relative `--out`, so that the
echoed `out_dir` is the same wherever the test runs.  `run_case` returns
every command's exit code, the captured stdout and stderr, and the sha256
of every output file except the wall-clock `timings.json`;
`cli_pinned.json` holds that result per case, recorded with this numpy
build as `simulate_pinned.json` is.  A change that alters an output on
purpose re-records only the cases it names.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from jetsid.cli import main

PINNED = Path(__file__).with_name("cli_pinned.json")

FOURIER = {"kind": "fourier", "m_terms": 2, "R": 0.8, "L": 2.0}
# the configs of the benchmark's identify_duffing and sweep_linear_k workloads
DUFFING = {
    "ensemble": FOURIER,
    "ground_truth": {"kind": "named", "name": "duffing",
                     "params": {"damping": 0.5, "stiffness": 1.0, "saturation": 1.0}},
    "k": 4, "T": 1.0, "N": 32,
    "train": {"M": 1.0, "n": 2, "restarts": 1, "max_iters": 30, "rng_seed": 5},
    "delta": 0.1, "probe_count": 16,
}
SWEEP_LINEAR_K = {
    "ensemble": FOURIER,
    "ground_truth": {"kind": "named", "name": "linear"},
    "k": 4, "T": 1.0, "N": 16,
    "train": {"M": 1.0, "n": 1, "restarts": 1, "max_iters": 30},
    "delta": 0.1, "probe_count": 8,
    "sweep": {"param": "k", "values": [2, 4, 8, 12], "mode": "full"},
}
# the config of acceptance a7, and a8's two calculator-mode sweeps of it
PIPELINE = {
    "ensemble": FOURIER,
    "ground_truth": {"kind": "named", "name": "linear", "params": {}},
    "k": 3, "T": 1.0, "N": 8,
    "train": {"M": 1.0, "n": 1, "restarts": 2, "max_iters": 10},
    "sim": {"step": 1.0 / 256, "grid_size": 65},
    "delta": 0.1, "probe_count": 4, "rng_seed": 11,
}
A8 = dict(PIPELINE, k=2)
TEACHER = {"A": [0.3, -0.4, 0.2, 0.1], "b": [0.8, -0.3], "c": [0.5, 0.4], "xi": [0.1, -0.2],
           "n": 2}
TEACHER_FIT = dict(PIPELINE, ground_truth={"kind": "rnn", "params": TEACHER}, k=4, N=16,
                   train={"M": 1.0, "n": 2, "restarts": 2, "max_iters": 30})
# a teacher whose output modulus certificate overflows: evaluate exits 2
OVERFLOWING_TEACHER = dict(PIPELINE, ground_truth={
    "kind": "rnn", "params": {"A": [1000.0], "b": [1.0], "c": [1.0], "xi": [0.0], "n": 1}})

CHAIN = (("generate",), ("train",), ("evaluate",))
CASES = {
    **{f"identify_duffing_seed{s}": (DUFFING, tuple(c + ("--seed", str(s)) for c in CHAIN))
       for s in (1, 2, 3)},
    **{f"sweep_linear_k_seed{s}": (SWEEP_LINEAR_K, (("sweep", "--seed", str(s)),))
       for s in (1, 2, 3)},
    "a7_linear": (PIPELINE, CHAIN + (("bounds",),)),
    "a7_tanh_affine": (dict(PIPELINE, ground_truth={"kind": "named", "name": "tanh_affine",
                                                    "params": {}}), CHAIN + (("bounds",),)),
    "a8_k_sweep": (dict(A8, sweep={"param": "k", "values": [2, 4, 8, 16],
                                   "mode": "bounds_only"}), (("sweep",),)),
    "a8_N_sweep": (dict(A8, sweep={"param": "N", "values": [100, 1000, 10000],
                                   "mode": "bounds_only"}), (("sweep",),)),
    "teacher_fit_init": (TEACHER_FIT, (("generate",), ("train", "--init", "teacher.json"),
                                       ("evaluate",))),
    "overflowing_teacher": (OVERFLOWING_TEACHER, CHAIN),
}


def run_case(name: str) -> dict:
    """Run case `name` in the current working directory, which must be empty."""
    doc, commands = CASES[name]
    Path("config.json").write_text(json.dumps(doc))
    Path("teacher.json").write_text(json.dumps(TEACHER))
    codes = []
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        for command, *extra in commands:
            codes.append(main([command, "--config", "config.json", "--out", "run", *extra]))
    files = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
             for path in sorted(Path("run").iterdir()) if path.name != "timings.json"}
    return {"exit_codes": codes, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "files": files}


@pytest.mark.parametrize("name", CASES)
def test_cli_outputs_match_pins(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_case(name) == json.loads(PINNED.read_text())[name]
