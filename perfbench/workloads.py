"""The benchmark's three workloads.

A workload sets up once: it draws its inputs from the workload seed and
writes the config files the program reads.  It then runs identical rounds
of timed operations.  Each round appends one sample per operation to a
`Round`.  Rounds repeat the same inputs, so their outputs must agree bit for
bit.  `check` validates the outputs of the first round.

Why each workload exists is written up in README.md next to this file.
"""

from __future__ import annotations

import csv
import io
import json
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp

import jetsid
import jetsid.cli

from spans import Stopwatch

HERE = Path(__file__).resolve().parent

FOURIER = {"kind": "fourier", "m_terms": 2, "R": 0.8, "L": 2.0}
T = 1.0


def stream_seed(seed: int, stream: int) -> int:
    """64-bit child seed of the workload seed for one named input stream."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1, np.uint64)[0])


@dataclass
class Round:
    """Samples and outputs of one round.

    A sample is the (start, end) perf_counter interval of one operation;
    `generate` samples also carry the number of dataset pairs made."""

    train: list[tuple[float, float]] = field(default_factory=list)
    generate: list[tuple[float, float, int]] = field(default_factory=list)
    evaluate: list[tuple[float, float]] = field(default_factory=list)
    ops: int = 0
    failures: list[str] = field(default_factory=list)
    outputs: object = None
    details: dict = field(default_factory=dict)
    wall: tuple[float, float] = (0.0, 0.0)


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, (t0, time.perf_counter())


class TeacherFit:
    """Jet-space training only: `train` on a realizable teacher dataset."""

    name = "teacher_fit"
    N = 64
    K = 4
    # fixed feasible n=2 teacher: ||A||, |b|, |c|, |xi| all below M=1
    TEACHER = {"A": [0.3, -0.4, 0.2, 0.1], "b": [0.8, -0.3],
               "c": [0.5, 0.4], "xi": [0.1, -0.2], "n": 2}
    TRAINER_SEEDS = (11, 12, 13)
    TRAIN = {"M": 1.0, "n": 2, "restarts": 2, "max_iters": 30}
    N_HELDOUT = 256
    # the held-out build and scoring take ~30 ms each; repeating them gives
    # their medians enough samples
    SHORT_REPEATS = 5

    def __init__(self, seed: int, run_dir: Path):
        self.teacher = jetsid.RnnParams.from_json_dict(self.TEACHER)
        ens = jetsid.EnsembleConfig.from_json_dict(
            dict(FOURIER, horizon_T=T, rng_seed=stream_seed(seed, 1)))
        self.train_specs = jetsid.sample_ensemble(ens, self.N)
        self.heldout_specs = jetsid.sample_ensemble(ens.reseeded(stream_seed(seed, 2)),
                                                   self.N_HELDOUT)
        self.dataset = jetsid.build_teacher_dataset(self.train_specs, self.teacher, self.K, T)

    def _config(self, trainer_seed: int):
        return jetsid.TrainConfig.from_json_dict(dict(self.TRAIN, rng_seed=trainer_seed))

    def round(self, rnd: Round) -> None:
        # each train is followed by the data and scoring samples, so that the
        # short operations are sampled across the whole round
        results, heldout_risks = [], []
        for s in self.TRAINER_SEEDS:
            result, span = _timed(jetsid.train, self.dataset, self._config(s))
            rnd.train.append(span)
            results.append(result)
            for _ in range(self.SHORT_REPEATS):
                heldout, span = _timed(jetsid.build_teacher_dataset,
                                       self.heldout_specs, self.teacher, self.K, T)
                rnd.generate.append((*span, heldout.N))
                risk, span = _timed(jetsid.empirical_risk, result.params, heldout)
                rnd.evaluate.append(span)
            heldout_risks.append(risk)
            rnd.ops += 1 + 2 * self.SHORT_REPEATS
        warm, span = _timed(jetsid.train, self.dataset, self._config(self.TRAINER_SEEDS[0]),
                            init=self.teacher)
        rnd.train.append(span)
        rnd.ops += 1
        rnd.outputs = ([r.trajectory for r in results], heldout_risks, warm.risk)
        rnd.details = {
            "fit_risk": statistics.median(r.risk for r in results),
            "init_risk": statistics.median(r.trajectory[0] for r in results),
            "heldout_risk": statistics.median(heldout_risks),
            "teacher_init_risk": warm.risk,
        }

    def check(self, rnd: Round) -> list[str]:
        d = rnd.details
        failures = []
        if not d["teacher_init_risk"] <= 1e-9:
            failures.append(f"teacher-initialised risk {d['teacher_init_risk']:.3g} > 1e-9")
        if not 10.0 * d["fit_risk"] <= d["init_risk"]:
            failures.append(f"median final risk {d['fit_risk']:.4g} is not 10x below "
                            f"median initial risk {d['init_risk']:.4g}")
        if not all(math.isfinite(v) for v in d.values()):
            failures.append(f"non-finite risk in {d}")
        return failures


class _CliWorkload:
    """A workload that drives `jetsid.cli.main` in-process on a generated config."""

    # called with the command name before each command; the tracer sets it
    on_op = staticmethod(lambda op: None)

    def __init__(self, seed: int, run_dir: Path, doc: dict):
        self.out = run_dir / self.name
        self.cfg_path = run_dir / f"{self.name}.json"
        doc = dict(doc, rng_seed=seed, out_dir=str(self.out))
        self.cfg_path.write_text(json.dumps(doc, indent=2) + "\n")
        self.config = jetsid.cli.load_config(self.cfg_path)

    def _cli(self, rnd: Round, *argv: str) -> tuple[float, float]:
        self.on_op(argv[0])
        rc, span = _timed(jetsid.cli.main, [argv[0], "--config", str(self.cfg_path), *argv[1:]])
        rnd.ops += 1
        if rc != 0:
            rnd.failures.append(f"`jetsid {' '.join(argv)}` exited {rc}")
        return span


class IdentifyDuffing(_CliWorkload):
    """The user's `generate` -> `train` -> `evaluate` chain on the Duffing system."""

    name = "identify_duffing"
    DUFFING = {"damping": 0.5, "stiffness": 1.0, "saturation": 1.0}
    CONFIG = {
        "ensemble": FOURIER,
        "ground_truth": {"kind": "named", "name": "duffing", "params": DUFFING},
        "k": 4, "T": T, "N": 32,
        "train": {"M": 1.0, "n": 2, "restarts": 1, "max_iters": 30, "rng_seed": 5},
        "delta": 0.1, "probe_count": 16,
    }
    # Dataset jets against the independent solve_ivp reference, and against
    # the jets recorded for the default seed: |got - ref| <= tol * max(1, |ref|).
    REFERENCE_TOL = 1e-7
    RECORDED_TOL = 1e-9
    RECORDED = HERE / "reference" / "identify_duffing_seed1.json"

    def __init__(self, seed: int, run_dir: Path):
        super().__init__(seed, run_dir, self.CONFIG)
        self.seed = seed
        self.train_specs = jetsid.sample_ensemble(self.config.ensemble, self.config.N)

    def round(self, rnd: Round) -> None:
        rnd.generate.append((*self._cli(rnd, "generate", "--jobs", "1"), self.config.N))
        rnd.train.append(self._cli(rnd, "train", "--jobs", "1"))
        rnd.evaluate.append(self._cli(rnd, "evaluate", "--jobs", "1"))
        rnd.outputs = {f: (self.out / f).read_bytes()
                       for f in ("dataset.json", "model.json", "report.json")}
        report = json.loads(rnd.outputs["report.json"])
        rnd.details = {
            "fit_risk": report["approximation_error_upper_estimate"],
            "heldout_risk": report["empirical_risk"],
            "risk_standard_error": report["risk_standard_error"],
            "fixed_model_total": report["bounds"]["fixed_model"]["total"],
        }

    def check(self, rnd: Round) -> list[str]:
        failures = []
        d = rnd.details
        if not d["heldout_risk"] <= d["fixed_model_total"] + 3.0 * d["risk_standard_error"]:
            failures.append(f"held-out risk {d['heldout_risk']:.4g} above fixed-model bound "
                            f"{d['fixed_model_total']:.4g} + 3 standard errors")
        doc = json.loads(rnd.outputs["dataset.json"])
        got = np.array([p["v"] + p["z"] for p in doc["pairs"]])
        inputs = json.loads((self.out / "train_inputs.json").read_text())["inputs"]
        if inputs != [s.to_json_dict() for s in self.train_specs]:
            failures.append("train_inputs.json differs from the ensemble drawn at setup")
        ref = _duffing_reference_jets(self.train_specs, self.DUFFING, self.config.k)
        err = _jet_error(got, ref)
        d["reference_error"] = err
        if not err <= self.REFERENCE_TOL:
            failures.append(f"dataset jets differ from the solve_ivp reference by {err:.3g}")
        if self.seed == 1:
            rec = np.array(json.loads(self.RECORDED.read_text())["jets"])
            err = _jet_error(got, rec)
            d["recorded_error"] = err
            if not err <= self.RECORDED_TOL:
                failures.append(f"dataset jets differ from the recorded reference by {err:.3g}")
        return failures


def _jet_error(got: np.ndarray, ref: np.ndarray) -> float:
    if got.shape != ref.shape:
        return math.inf
    return float((np.abs(got - ref) / np.maximum(1.0, np.abs(ref))).max())


def _forward_difference_jet(values: np.ndarray) -> np.ndarray:
    """Derivatives at 0 of the Bernstein polynomial through samples at i*T/m."""
    m = values.size - 1
    return np.array([math.perm(m, ell) * np.diff(values, ell)[0] / T**ell
                     for ell in range(m + 1)])


def _duffing_reference_jets(specs, params: dict, k: int) -> np.ndarray:
    """Input and output jets of the Duffing dataset, recomputed with an
    adaptive high-order integrator in place of the program's fixed-step RK4."""
    d, s, b = params["damping"], params["stiffness"], params["saturation"]
    rows = []
    for spec in specs:
        c, w, a = spec.coefficients, spec.frequencies, spec.phases

        def u(t):
            return float(np.sum(c * np.sin(w * t + a)))

        def rhs(t, x):
            return [x[1], -d * x[1] - s * x[0] - b * math.tanh(x[0]) ** 3 + u(t)]

        v = _forward_difference_jet(np.array([u(t) for t in np.linspace(0.0, T, k)]))
        sol = solve_ivp(rhs, (0.0, T), [0.0, 0.0], method="DOP853",
                        t_eval=np.linspace(0.0, T, k + 1), rtol=1e-12, atol=1e-13)
        rows.append(np.concatenate([v, _forward_difference_jet(sol.y[0])]))
    return np.array(rows)


class SweepLinearK(_CliWorkload):
    """`sweep` in full mode over k on the linear system, with two worker threads."""

    name = "sweep_linear_k"
    VALUES = [2, 4, 8, 12]
    CONFIG = {
        "ensemble": FOURIER,
        "ground_truth": {"kind": "named", "name": "linear"},
        "k": 4, "T": T, "N": 16,
        "train": {"M": 1.0, "n": 1, "restarts": 1, "max_iters": 30},
        "delta": 0.1, "probe_count": 8,
        "sweep": {"param": "k", "values": VALUES, "mode": "full"},
    }

    def __init__(self, seed: int, run_dir: Path):
        super().__init__(seed, run_dir, self.CONFIG)
        self.watch = Stopwatch(("erm.train", "erm.build_dataset", "bounds.probe_risk_and_gap"))

    def round(self, rnd: Round) -> None:
        self._cli(rnd, "sweep", "--jobs", "2")
        rnd.train += [(t0, t1) for t0, t1, _ in self.watch.take("erm.train")]
        rnd.generate += self.watch.take("erm.build_dataset")
        rnd.evaluate += [(t0, t1) for t0, t1, _ in self.watch.take("bounds.probe_risk_and_gap")]
        rnd.outputs = (self.out / "sweep.csv").read_bytes()
        rows = list(csv.DictReader(io.StringIO(rnd.outputs.decode())))
        rnd.ops += len(rows)
        rnd.details = {"rows": rows}

    def check(self, rnd: Round) -> list[str]:
        rows = rnd.details.pop("rows")
        failures = []
        if [r["value"] for r in rows] != [str(v) for v in self.VALUES]:
            failures.append(f"sweep rows {[r['value'] for r in rows]} != values {self.VALUES}")
        for r in rows:
            if r["error"]:
                failures.append(f"sweep point k={r['value']} failed: {r['error']}")
            elif not all(math.isfinite(float(r[c])) for c in ("risk", "risk_se")):
                failures.append(f"sweep point k={r['value']} has a non-finite risk")
        if not failures:
            rnd.details["fit_risk"] = statistics.median(
                float(r["erm.approximation_error"]) for r in rows)
            rnd.details["heldout_risk"] = statistics.median(float(r["risk"]) for r in rows)
        return failures


WORKLOADS = {w.name: w for w in (TeacherFit, IdentifyDuffing, SweepLinearK)}
