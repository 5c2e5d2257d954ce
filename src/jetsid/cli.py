"""Batch experiment driver.

Commands: `generate` (dataset of jet pairs), `train` (constrained ERM),
`evaluate` (held-out Monte-Carlo risk plus the full bound report),
`sweep` (one CSV row per swept k or N value), and `bounds` (pure
calculator mode, no simulation).  One strict JSON config document
drives everything; unknown fields are errors and every report echoes
the fully resolved config.

Exit codes: 0 success, 2 validation error, 3 numerical divergence,
4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import bounds as bounds_mod
from .erm import (
    JetDataset,
    TrainConfig,
    build_dataset,
    empirical_risk,
    is_feasible,
    train,
)
from .errors import (
    ConfigError,
    DivergenceError,
    DomainError,
    JetsidError,
    PreconditionError,
    ShapeError,
    whole_number,
)
from .jets import RnnParams
from .rnn import (
    SimConfig,
    System,
    bibo_probes,
    output_modulus_bound,
    output_sup_bound,
    system_from_config,
)
from .signals import EnsembleConfig, InputSpec, sample_ensemble

# Seed streams derived from the master seed; only absent seeds are filled.
_STREAM_ENSEMBLE = 1
_STREAM_TRAINER = 2
_STREAM_EVAL = 3
_STREAM_PROBES = 4
_STREAM_SWEEP = 1000


def derive_seed(master: int, stream: int) -> int:
    """Deterministic 64-bit child seed for a named stream."""
    return int(np.random.SeedSequence([int(master), int(stream)]).generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class ExperimentConfig:
    ensemble: EnsembleConfig
    ground_truth: dict
    k: int
    T: float
    N: int
    train: TrainConfig
    sim: SimConfig
    delta: float
    probe_count: int
    rng_seed: int
    out_dir: str | None
    c_abs: float = 1.0
    sweep: dict | None = None

    def __post_init__(self):
        if self.k < 2:
            raise ConfigError(f"k must be >= 2, got {self.k}")
        if self.N < 1:
            raise ConfigError(f"N must be >= 1, got {self.N}")
        if not 0.0 < self.delta < 1.0:
            raise ConfigError(f"delta must lie in (0, 1), got {self.delta}")
        if not self.T > 0:
            raise ConfigError(f"T must be positive, got {self.T}")
        if self.probe_count < 1:
            raise ConfigError(f"probe_count must be >= 1, got {self.probe_count}")
        if self.ensemble.horizon_T != self.T:
            raise ConfigError(
                f"ensemble horizon_T={self.ensemble.horizon_T} != experiment T={self.T}"
            )
        system_from_config(self.ground_truth)  # validates eagerly

    def system(self) -> System:
        return system_from_config(self.ground_truth)

    def to_json_dict(self) -> dict:
        return {
            "ensemble": self.ensemble.to_json_dict(),
            "ground_truth": self.ground_truth,
            "k": self.k,
            "T": self.T,
            "N": self.N,
            "train": self.train.to_json_dict(),
            "sim": self.sim.to_json_dict(),
            "delta": self.delta,
            "probe_count": self.probe_count,
            "rng_seed": self.rng_seed,
            "out_dir": self.out_dir,
            "c_abs": self.c_abs,
            "sweep": self.sweep,
        }


_TOP_FIELDS = {
    "ensemble", "ground_truth", "k", "T", "N", "train", "sim",
    "delta", "probe_count", "rng_seed", "out_dir", "c_abs", "sweep",
}
_REQUIRED_FIELDS = {"ensemble", "ground_truth", "k", "T", "N", "train", "delta"}


def config_from_dict(doc: dict, seed_override: int | None = None,
                     out_override: str | None = None) -> ExperimentConfig:
    unknown = set(doc) - _TOP_FIELDS
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    missing = _REQUIRED_FIELDS - set(doc)
    if missing:
        raise ConfigError(f"missing config fields: {sorted(missing)}")

    try:
        master = whole_number("rng_seed", seed_override if seed_override is not None
                              else doc.get("rng_seed", 0))
        ens_doc = dict(doc["ensemble"])
        ens_doc.setdefault("horizon_T", doc["T"])
        ens_doc.setdefault("rng_seed", derive_seed(master, _STREAM_ENSEMBLE))
        train_doc = dict(doc["train"])
        train_doc.setdefault("rng_seed", derive_seed(master, _STREAM_TRAINER))

        return ExperimentConfig(
            ensemble=EnsembleConfig.from_json_dict(ens_doc),
            ground_truth=doc["ground_truth"],
            k=whole_number("k", doc["k"]),
            T=float(doc["T"]),
            N=whole_number("N", doc["N"]),
            train=TrainConfig.from_json_dict(train_doc),
            sim=SimConfig.from_json_dict(doc.get("sim", {})),
            delta=float(doc["delta"]),
            probe_count=whole_number("probe_count", doc.get("probe_count", 32)),
            rng_seed=master,
            out_dir=out_override if out_override is not None else doc.get("out_dir"),
            c_abs=float(doc.get("c_abs", 1.0)),
            sweep=doc.get("sweep"),
        )
    except JetsidError:
        raise
    except KeyError as exc:
        raise ConfigError(f"config lacks field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed config value: {exc}") from exc


def load_config(path, seed_override: int | None = None,
                out_override: str | None = None) -> ExperimentConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error in {path}: line {exc.lineno} col {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config root must be a JSON object, got {type(doc).__name__}")
    try:
        return config_from_dict(doc, seed_override, out_override)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _write_json(path: Path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _csv_cell(v) -> str:
    if v is None or v == "":
        return ""
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v)).lower()
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def _write_csv(path: Path, columns: list[str], rows: list[dict]) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_csv_cell(row.get(c)) for c in columns) + "\n")


def _out_dir(config: ExperimentConfig) -> Path:
    if not config.out_dir:
        raise ConfigError("no output directory: set out_dir in the config or pass --out")
    path = Path(config.out_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _declared_output_modulus(config: ExperimentConfig, system: System):
    """Analytic output modulus handle, or None when not declared."""
    R = config.ensemble.R
    if isinstance(system, RnnParams):
        return bounds_mod.linear_modulus(output_modulus_bound(system, config.T, 1.0))
    if system.output_lipschitz is not None:
        return bounds_mod.linear_modulus(system.output_lipschitz(R))
    return None


def _declared_gamma(config: ExperimentConfig, system: System) -> float | None:
    """Declared output sup bound gamma(R), or None when not declared."""
    if isinstance(system, RnnParams):
        return output_sup_bound(system, config.T)
    if system.gamma_bound is not None:
        return system.gamma_bound(config.ensemble.R, config.T)
    return None


def _bound_report(
    config: ExperimentConfig,
    model_n: int,
    gap_mean: float,
    Lbar_star: float,
    fixed_params: RnnParams | None,
    omega_Y,
    moduli_source: str,
    gamma: float,
    gamma_probes: int | None,
) -> bounds_mod.BoundReport:
    """`gamma_probes` is None for a declared gamma, else the number of
    probes behind its estimate."""
    omega_U = bounds_mod.linear_modulus(config.ensemble.L)
    fixed = None
    if fixed_params is not None:
        fixed = bounds_mod.fixed_model_risk_bound(
            omega_Y, omega_U, fixed_params, config.k, config.T, gap_mean
        )
    erm_terms = bounds_mod.erm_risk_bound(
        M=config.train.M, n=model_n, k=config.k, T=config.T, N=config.N,
        delta=config.delta, gamma_R=gamma, Lbar_star_estimate=Lbar_star,
        c_abs=config.c_abs, omega_Y=omega_Y, omega_U=omega_U,
        waive_sample_size=True,
    )
    vc = bounds_mod.vc_dimension_bound(model_n, config.k)
    range_bound = config.train.M * (config.train.M + math.sqrt(model_n) * config.T) + gamma
    rademacher = (
        bounds_mod.rademacher_bound(range_bound, vc, config.N, config.c_abs)
        if config.N >= vc else None
    )
    return bounds_mod.BoundReport(
        fixed_model=fixed,
        erm=erm_terms,
        vc_bound=vc,
        rademacher=rademacher,
        c_abs=config.c_abs,
        gamma=gamma,
        gamma_is_estimate=gamma_probes is not None,
        gamma_probe_count=gamma_probes,
        moduli_source=moduli_source,
    )


class _Score(NamedTuple):
    eval_seed: int
    eval_specs: list[InputSpec]
    risk: float
    risk_se: float
    gap_mean: float
    bounds: bounds_mod.BoundReport
    timings: dict[str, float]


def _score(config: ExperimentConfig, system: System, model: RnnParams,
           dataset: JetDataset) -> _Score:
    """Held-out risk and the bound report of a model trained on `dataset`.

    The one scoring path of `evaluate` and of `sweep` points, in two
    simulations: one ground-truth batch and one model batch.  Probes
    come from the eval seed stream.  The output modulus is the declared
    one, else the envelope of the first 8 probe outputs; gamma is the
    declared one, else the largest |y| over `bibo_probes` run in the
    same ground-truth batch.  `timings` holds the wall time of each
    stage, keyed as in timings.json.
    """
    t0 = time.perf_counter()
    Lbar_star = empirical_risk(model, dataset)
    t1 = time.perf_counter()
    eval_seed = derive_seed(config.rng_seed, _STREAM_EVAL)
    eval_specs = sample_ensemble(config.ensemble.reseeded(eval_seed), config.probe_count)
    gamma = _declared_gamma(config, system)
    gain_probes = []
    if gamma is None:
        gain_probes = bibo_probes(config.ensemble.R, config.probe_count, config.T,
                                  derive_seed(config.rng_seed, _STREAM_PROBES))
    risks, gaps, truth = bounds_mod.probe_risk_and_gap(
        model, system, eval_specs, config.k, config.T, config.sim, gain_probes=gain_probes,
    )
    risk_se = float(risks.std(ddof=1) / math.sqrt(risks.size)) if risks.size > 1 else 0.0
    t2 = time.perf_counter()
    P = len(eval_specs)
    gamma_probes = None
    if gamma is None:
        gamma, gamma_probes = float(np.abs(truth[P:]).max()), len(gain_probes)
    omega_Y = _declared_output_modulus(config, system)
    moduli_source = "analytic"
    if omega_Y is None:
        omega_Y = bounds_mod.empirical_modulus(truth[:min(8, P)], config.T)
        moduli_source = "empirical"
    gap_mean = float(gaps.mean())
    report = _bound_report(config, model.n, gap_mean, Lbar_star, model, omega_Y,
                           moduli_source, gamma, gamma_probes)
    timings = {
        "dataset_and_risk": t1 - t0,
        "held_out_probes": t2 - t1,
        "bounds": time.perf_counter() - t2,
    }
    return _Score(eval_seed, eval_specs, float(risks.mean()), risk_se, gap_mean, report, timings)


def _load_model(path) -> RnnParams:
    with open(path) as fh:
        try:
            return RnnParams.from_json_dict(json.load(fh))
        except KeyError as exc:
            raise ConfigError(f"model file {path} lacks field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"model file {path} is malformed: {exc}") from exc


def cmd_generate(config: ExperimentConfig) -> Path:
    """Sample the training inputs, simulate the ground truth, and write
    dataset.json plus the input spec list."""
    out = _out_dir(config)
    specs = sample_ensemble(config.ensemble, config.N)
    dataset = build_dataset(specs, config.system(), config.k, config.T, config.sim)
    dataset.save(out / "dataset.json")
    _write_json(out / "train_inputs.json", {"inputs": [s.to_json_dict() for s in specs]})
    print(f"wrote {out / 'dataset.json'} ({dataset.N} pairs, k={dataset.k})")
    return out / "dataset.json"


def cmd_train(config: ExperimentConfig, dataset_path=None, init_path=None) -> Path:
    """Run constrained ERM on a dataset file; write model.json and the
    iter,risk training log.

    An optional init file warm-starts the first restart (e.g. a known
    teacher on a realizable dataset keeps its zero risk).
    """
    out = _out_dir(config)
    path = Path(dataset_path) if dataset_path else out / "dataset.json"
    dataset = JetDataset.load(path)
    init = None if init_path is None else _load_model(init_path)
    result = train(dataset, config.train, init=init)
    _write_json(out / "model.json", result.params.to_json_dict())
    _write_csv(
        out / "training_log.csv",
        ["iter", "risk"],
        [{"iter": i, "risk": r} for i, r in enumerate(result.trajectory)],
    )
    flag = " (stationary at start)" if result.stationary else ""
    print(f"wrote {out / 'model.json'} risk={result.risk:.6g} "
          f"restart={result.best_restart}{flag}")
    return out / "model.json"


def cmd_evaluate(config: ExperimentConfig, model_path=None) -> Path:
    """Held-out Monte-Carlo risk plus the full bound report.

    Scores the model on <out>/dataset.json, the dataset `generate` wrote
    (an I/O error when absent), whose k, T and N must match the config;
    <out>/train_inputs.json must hold the inputs the config draws, so a
    changed seed is caught.
    Held-out inputs come from a seed stream distinct from the training
    ensemble seed; both input lists are recorded so the separation can
    be audited.  Makes two simulations (see `_score`).  Wall-clock
    timings go to timings.json so report.json stays byte-identical
    across reruns: `dataset_and_risk` covers reading the model, log and
    dataset plus the training risk, `held_out_probes` the two
    simulations, and `bounds` the moduli and the bound calculators.
    """
    out = _out_dir(config)
    t0 = time.perf_counter()
    path = Path(model_path) if model_path else out / "model.json"
    model = _load_model(path)
    if not is_feasible(model, config.train.M):
        raise ConfigError(
            f"model at {path} violates the norm budget M={config.train.M}: {model.norms()}"
        )
    log_path = out / "training_log.csv"
    trajectory: list[float] = []
    if log_path.exists():
        try:
            rows = [line.split(",") for line in log_path.read_text().splitlines()[1:]]
            trajectory = [float(row[1]) for row in rows]
        except (ValueError, IndexError) as exc:
            raise ConfigError(f"training log {log_path} is malformed: {exc}") from exc
        if not trajectory:
            raise ConfigError(f"training log {log_path} has no rows")
    dataset_path = out / "dataset.json"
    dataset = JetDataset.load(dataset_path)
    for field in ("k", "T", "N"):
        if getattr(dataset, field) != getattr(config, field):
            raise ConfigError(f"dataset file {dataset_path} has {field}={getattr(dataset, field)}"
                              f", the config has {field}={getattr(config, field)}")
    train_inputs = [s.to_json_dict() for s in sample_ensemble(config.ensemble, config.N)]
    inputs_path = out / "train_inputs.json"
    with open(inputs_path) as fh:
        try:
            recorded = json.load(fh)
        except ValueError as exc:
            raise ConfigError(f"input list {inputs_path} is malformed: {exc}") from exc
    if not isinstance(recorded, dict) or recorded.get("inputs") != train_inputs:
        raise ConfigError(f"input list {inputs_path} differs from the {config.N} inputs the "
                          f"config draws at seed {config.rng_seed}")
    system = config.system()
    setup_s = time.perf_counter() - t0

    score = _score(config, system, model, dataset)
    score.timings["dataset_and_risk"] += setup_s

    report = {
        "config": config.to_json_dict(),
        "model": model.to_json_dict(),
        "loss_trajectory": trajectory,
        "empirical_risk": score.risk,
        "risk_standard_error": score.risk_se,
        "bernstein_gap_mean": score.gap_mean,
        "approximation_error_upper_estimate": score.bounds.erm.approximation_error,
        "bounds": score.bounds.to_json_dict(),
        "train_inputs": train_inputs,
        "eval_inputs": [s.to_json_dict() for s in score.eval_specs],
        "seeds": {
            "master": config.rng_seed,
            "ensemble": config.ensemble.rng_seed,
            "trainer": config.train.rng_seed,
            "eval": score.eval_seed,
        },
    }
    _write_json(out / "report.json", report)
    row = {"k": config.k, "N": config.N, "risk": score.risk, "risk_se": score.risk_se}
    row.update(score.bounds.to_flat_dict())
    _write_csv(out / "report_row.csv", list(row), [row])
    _write_json(out / "timings.json", score.timings)
    print(f"wrote {out / 'report.json'} risk={score.risk:.6g} "
          f"fixed-model bound={score.bounds.fixed_model.total:.6g}")
    return out / "report.json"


_SWEEP_COLUMNS = [
    "param", "value", "k", "N", "mode", "risk", "risk_se",
    "fixed_model.output_modulus_term", "fixed_model.input_modulus_term",
    "fixed_model.jet_truncation_term", "fixed_model.bernstein_gap_term",
    "fixed_model.total",
    "erm.output_modulus_term", "erm.input_modulus_term",
    "erm.jet_truncation_term", "erm.approximation_error",
    "erm.estimation_error", "erm.total",
    "erm.sample_size_ok", "erm.sample_size_threshold", "erm.sample_size_waived",
    "vc_bound", "rademacher_bound", "c_abs", "gamma", "gamma_is_estimate",
    "moduli_source", "error",
]


def _closed_form_report(config: ExperimentConfig) -> bounds_mod.BoundReport:
    """Calculator-mode report: declared handles only, no simulation.

    The fixed-model terms are evaluated at the boundary of the norm
    budget (all four norms equal to M), i.e. the worst case over the
    model class, with the gap term left at zero.
    """
    system = config.system()
    omega_Y = _declared_output_modulus(config, system)
    if omega_Y is None:
        raise ConfigError(
            f"ground truth {config.ground_truth.get('name')!r} declares no output "
            "modulus handle; calculator mode needs one (use linear, tanh_affine, or rnn)"
        )
    gamma = _declared_gamma(config, system)
    if gamma is None:
        raise ConfigError("calculator mode needs a declared output sup bound")
    n, M = config.train.n, config.train.M
    unit = np.zeros(n)
    unit[0] = M
    boundary = RnnParams(A=M * np.eye(n), b=unit, c=unit, xi=unit)
    return _bound_report(config, n, 0.0, 0.0, boundary, omega_Y, "analytic", gamma, None)


def _sweep_point(config: ExperimentConfig, param: str, value, mode: str, index: int) -> dict:
    row: dict = {"param": param, "value": value, "mode": mode, "error": ""}
    try:
        point_seed = derive_seed(config.rng_seed, _STREAM_SWEEP + index)
        base = config.to_json_dict()
        base[param] = value
        base["rng_seed"] = point_seed
        base["sweep"] = None
        base["ensemble"] = {k: v for k, v in base["ensemble"].items() if k != "rng_seed"}
        base["train"] = {k: v for k, v in base["train"].items() if k != "rng_seed"}
        point = config_from_dict(base)
        row["k"], row["N"] = point.k, point.N
        if mode == "bounds_only":
            report = _closed_form_report(point)
            row["risk"] = None
        else:
            specs = sample_ensemble(point.ensemble, point.N)
            system = point.system()
            dataset = build_dataset(specs, system, point.k, point.T, point.sim)
            score = _score(point, system, train(dataset, point.train).params, dataset)
            report = score.bounds
            row["risk"], row["risk_se"] = score.risk, score.risk_se
        row.update(report.to_flat_dict())
    except (ConfigError, PreconditionError, ShapeError, DomainError, DivergenceError) as exc:
        row["error"] = str(exc)
    return row


def cmd_sweep(config: ExperimentConfig) -> Path:
    """Run the configured k- or N-sweep and write one CSV row per point.

    Per-point failures are recorded in the `error` column and the sweep
    continues.
    """
    out = _out_dir(config)
    if not config.sweep:
        raise ConfigError("sweep command needs a sweep block in the config")
    unknown = set(config.sweep) - {"param", "values", "mode"}
    if unknown:
        raise ConfigError(f"unknown sweep fields: {sorted(unknown)}")
    param = config.sweep.get("param")
    if param not in ("k", "N"):
        raise ConfigError(f"sweep param must be 'k' or 'N', got {param!r}")
    values = config.sweep.get("values")
    if not values:
        raise ConfigError("sweep needs a nonempty values list")
    mode = config.sweep.get("mode", "full")
    if mode not in ("full", "bounds_only"):
        raise ConfigError(f"sweep mode must be 'full' or 'bounds_only', got {mode!r}")

    rows = [_sweep_point(config, param, v, mode, i) for i, v in enumerate(values)]
    _write_csv(out / "sweep.csv", _SWEEP_COLUMNS, rows)
    failures = sum(1 for r in rows if r["error"])
    print(f"wrote {out / 'sweep.csv'} ({len(rows)} points, {failures} failed)")
    return out / "sweep.csv"


def cmd_bounds(config: ExperimentConfig) -> Path:
    """Pure calculator mode: closed-form bound report, no simulation."""
    out = _out_dir(config)
    report = _closed_form_report(config)
    doc = {"config": config.to_json_dict(), "bounds": report.to_json_dict()}
    _write_json(out / "bounds.json", doc)
    flat = report.to_flat_dict()
    _write_csv(out / "bounds_row.csv", list(flat), [flat])
    print(f"wrote {out / 'bounds.json'}")
    return out / "bounds.json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jetsid",
        description="Identify continuous-time tanh recurrent-net models by "
                    "output-jet matching and report closed-form risk bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("generate", "sample inputs, simulate the ground truth, write the jet dataset"),
        ("train", "run constrained ERM on a dataset file"),
        ("evaluate", "held-out risk estimate plus the bound report"),
        ("sweep", "one CSV row of risk and bound terms per swept k or N"),
        ("bounds", "closed-form bound report only, no simulation"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the experiment JSON")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--seed", type=int, default=None, help="master seed (overrides config)")
        p.add_argument("--jobs", type=int, default=1,
                       help="accepted and ignored: every command runs serially")
        if name == "train":
            p.add_argument("--dataset", default=None, help="dataset file (default <out>/dataset.json)")
            p.add_argument("--init", default=None, help="model file to warm-start the first restart")
        if name == "evaluate":
            p.add_argument("--model", default=None, help="model file (default <out>/model.json)")
    return parser


def _dispatch(args) -> int:
    config = load_config(args.config, args.seed, args.out)
    if args.command == "generate":
        cmd_generate(config)
    elif args.command == "train":
        cmd_train(config, args.dataset, args.init)
    elif args.command == "evaluate":
        cmd_evaluate(config, args.model)
    elif args.command == "sweep":
        cmd_sweep(config)
    elif args.command == "bounds":
        cmd_bounds(config)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (ConfigError, PreconditionError, ShapeError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
