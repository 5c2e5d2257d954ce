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
import csv
import math
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import bounds as bounds_mod
from .bernstein import MAX_WELL_CONDITIONED_K
from .erm import (
    JetDataset,
    TrainConfig,
    build_dataset,
    empirical_risk,
    is_feasible,
    train,
)
from .errors import (
    MAX_COUNT,
    ConfigBlock,
    ConfigError,
    DivergenceError,
    JetsidError,
    read_json,
    real_number,
    whole_number,
    write_json,
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
class SweepConfig(ConfigBlock):
    """The points of the `sweep` command: one per entry of `values` put in
    for `param`, each trained and scored ("full") or run through the
    calculators alone ("bounds_only")."""

    SECTION = "sweep"

    param: str
    values: list
    mode: str = "full"

    def __post_init__(self):
        if self.param not in ("k", "N"):
            raise ConfigError(f"sweep param must be 'k' or 'N', got {self.param!r}")
        if not isinstance(self.values, list) or not self.values:
            raise ConfigError(f"sweep values must be a nonempty list, got {self.values!r}")
        if self.mode not in ("full", "bounds_only"):
            raise ConfigError(f"sweep mode must be 'full' or 'bounds_only', got {self.mode!r}")


@dataclass(frozen=True)
class ExperimentConfig(ConfigBlock):
    """One experiment.  The ensemble, train, sim and sweep blocks may be
    given as their JSON dicts, so `from_json_dict` reads back a resolved
    echo."""

    SECTION = "config"

    ensemble: EnsembleConfig
    ground_truth: dict
    k: int
    T: float
    N: int
    train: TrainConfig
    delta: float
    sim: SimConfig = SimConfig()
    probe_count: int = 32
    rng_seed: int = 0
    out_dir: str | None = None
    c_abs: float = 1.0
    sweep: SweepConfig | None = None

    def __post_init__(self):
        for name, block in (("ensemble", EnsembleConfig), ("train", TrainConfig), ("sim", SimConfig),
                            ("sweep", SweepConfig)):
            value = getattr(self, name)
            if not (isinstance(value, block) or name == "sweep" and value is None):
                object.__setattr__(self, name, block.from_json_dict(value))
        if not (self.out_dir is None or isinstance(self.out_dir, str)):
            raise ConfigError(f"out_dir must be a string or null, got {self.out_dir!r}")
        # the output lift takes k+1 samples, so k stops one short of the
        # conditioning limit of bernstein_jet
        for name, minimum, maximum in (("k", 2, MAX_WELL_CONDITIONED_K - 1), ("N", 1, MAX_COUNT),
                                       ("probe_count", 1, MAX_COUNT), ("rng_seed", 0, None)):
            object.__setattr__(self, name,
                               whole_number(name, getattr(self, name), minimum, maximum))
        for name, below in (("T", None), ("delta", 1), ("c_abs", None)):
            object.__setattr__(self, name, real_number(name, getattr(self, name), 0, below))
        if self.ensemble.horizon_T != self.T:
            raise ConfigError(
                f"ensemble horizon_T={self.ensemble.horizon_T} != experiment T={self.T}"
            )
        system_from_config(self.ground_truth)  # validates eagerly

    def system(self) -> System:
        return system_from_config(self.ground_truth)


def config_from_dict(doc: dict, seed_override: int | None = None,
                     out_override: str | None = None) -> ExperimentConfig:
    """The config a JSON document describes, after the --seed and --out
    overrides.  Absent ensemble and trainer seeds derive from the master
    seed, and an absent ensemble horizon is T."""
    ExperimentConfig.check_fields(doc)
    doc = dict(doc)
    if seed_override is not None:
        doc["rng_seed"] = seed_override
    if out_override is not None:
        doc["out_dir"] = out_override
    try:
        master = whole_number("rng_seed", doc.get("rng_seed", ExperimentConfig.rng_seed), 0)
        doc["ensemble"] = {"horizon_T": doc["T"], "rng_seed": derive_seed(master, _STREAM_ENSEMBLE),
                           **doc["ensemble"]}
        doc["train"] = {"rng_seed": derive_seed(master, _STREAM_TRAINER), **doc["train"]}
        return ExperimentConfig(**doc)
    except JetsidError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed config value: {exc}") from exc


def load_config(path, seed_override: int | None = None,
                out_override: str | None = None) -> ExperimentConfig:
    return read_json(path, "config", lambda doc: config_from_dict(doc, seed_override, out_override))


def _write_csv(path: Path, columns: list[str], rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([str(v).lower() if isinstance(v, bool) else v
                          for v in map(row.get, columns)] for row in rows)


def _out_dir(config: ExperimentConfig) -> Path:
    if not config.out_dir:
        raise ConfigError("no output directory: set out_dir in the config or pass --out")
    path = Path(config.out_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _declared(config: ExperimentConfig, system: System
              ) -> tuple[bounds_mod.Modulus | None, float | None]:
    """The analytic output modulus handle and the output sup bound
    gamma(R) of the ground truth, each None when it declares none."""
    R, T = config.ensemble.R, config.T
    if isinstance(system, RnnParams):
        return (bounds_mod.linear_modulus(output_modulus_bound(system, T, 1.0)),
                output_sup_bound(system, T))
    slope, gamma = system.output_lipschitz, system.gamma_bound
    return (None if slope is None else bounds_mod.linear_modulus(slope(R)),
            None if gamma is None else gamma(R, T))


def _bound_report(
    config: ExperimentConfig,
    model_n: int,
    gap_mean: float,
    Lbar_star: float,
    fixed_params: RnnParams,
    omega_Y,
    moduli_source: str,
    gamma: float,
    gamma_probes: int | None,
) -> bounds_mod.BoundReport:
    """`gamma_probes` is None for a declared gamma, else the number of
    probes behind its estimate.  The ERM bound comes first: its growth
    factor e^(MT) bounds the fixed model's e^(||A||T), so a certificate
    that overflows fails there, before the model's norms are taken."""
    omega_U = bounds_mod.linear_modulus(config.ensemble.L)
    erm_terms = bounds_mod.erm_risk_bound(
        M=config.train.M, n=model_n, k=config.k, T=config.T, N=config.N,
        delta=config.delta, gamma_R=gamma, Lbar_star_estimate=Lbar_star,
        c_abs=config.c_abs, omega_Y=omega_Y, omega_U=omega_U,
        waive_sample_size=True,
    )
    fixed = bounds_mod.fixed_model_risk_bound(
        omega_Y, omega_U, fixed_params, config.k, config.T, gap_mean
    )
    vc = bounds_mod.vc_dimension_bound(model_n, config.k)
    range_bound = bounds_mod.range_bound(config.train.M, model_n, config.T, gamma)
    rademacher = (
        bounds_mod.rademacher_bound(range_bound, vc, config.N, config.c_abs)
        if config.N >= vc else None
    )
    return bounds_mod.BoundReport(
        fixed_model=fixed,
        erm=erm_terms,
        vc_bound=vc,
        rademacher_bound=rademacher,
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
           Lbar_star: float) -> _Score:
    """Held-out risk and the bound report of a model whose training risk
    is `Lbar_star`.

    The one scoring path of `evaluate` and of `sweep` points, in one RK4
    loop that steps a ground-truth batch and a model batch together
    (`probe_risk_and_gap`).  Probes come from the eval seed stream.  The
    output modulus is the declared one, else the envelope of the first 8
    probe outputs; gamma is the declared one, else the largest |y| over
    `bibo_probes` run in the same ground-truth batch.  `timings` holds
    the wall time of the `held_out_probes` and `bounds` stages, keyed as
    in timings.json.
    """
    t0 = time.perf_counter()
    eval_seed = derive_seed(config.rng_seed, _STREAM_EVAL)
    eval_specs = sample_ensemble(config.ensemble.reseeded(eval_seed), config.probe_count)
    omega_Y, gamma = _declared(config, system)
    gain_probes = []
    if gamma is None:
        gain_probes = bibo_probes(config.ensemble.R, config.probe_count, config.T,
                                  derive_seed(config.rng_seed, _STREAM_PROBES))
    risks, gaps, truth = bounds_mod.probe_risk_and_gap(
        model, system, eval_specs, config.k, config.T, config.sim, gain_probes=gain_probes,
    )
    risk_se = float(risks.std(ddof=1) / math.sqrt(risks.size)) if risks.size > 1 else 0.0
    t1 = time.perf_counter()
    P = len(eval_specs)
    gamma_probes = None
    if gamma is None:
        gamma, gamma_probes = float(np.abs(truth[P:]).max()), len(gain_probes)
    moduli_source = "analytic"
    if omega_Y is None:
        omega_Y = bounds_mod.empirical_modulus(truth[:min(8, P)], config.T)
        moduli_source = "empirical"
    gap_mean = float(gaps.mean())
    report = _bound_report(config, model.n, gap_mean, Lbar_star, model, omega_Y,
                           moduli_source, gamma, gamma_probes)
    timings = {"held_out_probes": t1 - t0, "bounds": time.perf_counter() - t1}
    return _Score(eval_seed, eval_specs, float(risks.mean()), risk_se, gap_mean, report, timings)


def cmd_generate(config: ExperimentConfig) -> Path:
    """Sample the training inputs, simulate the ground truth, and write
    dataset.json plus the input spec list."""
    out = _out_dir(config)
    specs = sample_ensemble(config.ensemble, config.N)
    dataset = build_dataset(specs, config.system(), config.k, config.T, config.sim)
    dataset.save(out / "dataset.json")
    write_json(out / "train_inputs.json", {"inputs": [s.to_json_dict() for s in specs]})
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
    init = None if init_path is None else read_json(init_path, "model file", RnnParams.from_json_dict)
    result = train(dataset, config.train, init=init)
    write_json(out / "model.json", result.params.to_json_dict())
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
    be audited.  Runs one RK4 loop (see `_score`).  Wall-clock timings
    go to timings.json so report.json stays byte-identical across
    reruns: `dataset_and_risk` covers reading the model, log and dataset
    and the model's training risk on that dataset, `held_out_probes`
    the declared constants, drawing the held-out and gain probes and
    `probe_risk_and_gap` (their jets and predicted outputs, the RK4 loop
    of the ground truth and the model, the risks and gaps), and `bounds`
    the moduli and the bound calculators.
    """
    out = _out_dir(config)
    t0 = time.perf_counter()
    path = Path(model_path) if model_path else out / "model.json"
    model = read_json(path, "model file", RnnParams.from_json_dict)
    if not is_feasible(model, config.train.M):
        raise ConfigError(
            f"model at {path} violates the norm budget M={config.train.M}: {model.norms()}"
        )
    log_path = out / "training_log.csv"
    trajectory: list[float] = []
    if log_path.exists():
        with open(log_path, newline="") as fh:
            try:
                trajectory = [float(row["risk"]) for row in csv.DictReader(fh)]
            except (csv.Error, KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"training log {log_path} is malformed: {exc!r}") from exc
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
    if read_json(inputs_path, "input list", lambda doc: doc["inputs"]) != train_inputs:
        raise ConfigError(f"input list {inputs_path} differs from the {config.N} inputs the "
                          f"config draws at seed {config.rng_seed}")
    system = config.system()
    Lbar_star = empirical_risk(model, dataset)
    setup_s = time.perf_counter() - t0

    score = _score(config, system, model, Lbar_star)

    report = {
        "config": config.to_json_dict(),
        "model": model.to_json_dict(),
        "loss_trajectory": trajectory,
        "empirical_risk": score.risk,
        "risk_standard_error": score.risk_se,
        "bernstein_gap_mean": score.gap_mean,
        "approximation_error_upper_estimate": score.bounds.erm.approximation_error,
        "bounds": asdict(score.bounds),
        "train_inputs": train_inputs,
        "eval_inputs": [s.to_json_dict() for s in score.eval_specs],
        "seeds": {
            "master": config.rng_seed,
            "ensemble": config.ensemble.rng_seed,
            "trainer": config.train.rng_seed,
            "eval": score.eval_seed,
        },
    }
    write_json(out / "report.json", report)
    row = {"k": config.k, "N": config.N, "risk": score.risk, "risk_se": score.risk_se}
    row.update(score.bounds.to_flat_dict())
    _write_csv(out / "report_row.csv", list(row), [row])
    write_json(out / "timings.json", {"dataset_and_risk": setup_s, **score.timings})
    print(f"wrote {out / 'report.json'} risk={score.risk:.6g} "
          f"fixed-model bound={score.bounds.fixed_model.total:.6g}")
    return out / "report.json"


def _closed_form_report(config: ExperimentConfig) -> bounds_mod.BoundReport:
    """Calculator-mode report: declared handles only, no simulation.

    The fixed-model terms are evaluated at the boundary of the norm
    budget (all four norms equal to M), i.e. the worst case over the
    model class, with the gap term left at zero.
    """
    omega_Y, gamma = _declared(config, config.system())
    if omega_Y is None or gamma is None:
        raise ConfigError(
            f"ground truth {config.ground_truth.get('name')!r} declares no output "
            "modulus handle; calculator mode needs one (use linear, tanh_affine, or rnn)"
        )
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
        del base["ensemble"]["rng_seed"], base["train"]["rng_seed"]
        point = config_from_dict(base)
        row["k"], row["N"] = point.k, point.N
        if mode == "bounds_only":
            report = _closed_form_report(point)
            row["risk"] = None
        else:
            specs = sample_ensemble(point.ensemble, point.N)
            system = point.system()
            dataset = build_dataset(specs, system, point.k, point.T, point.sim)
            result = train(dataset, point.train)
            score = _score(point, system, result.params, result.risk)
            report = score.bounds
            row["risk"], row["risk_se"] = score.risk, score.risk_se
        row.update(report.to_flat_dict())
    except JetsidError as exc:
        row["error"] = str(exc)
    return row


def cmd_sweep(config: ExperimentConfig) -> Path:
    """Run the configured k- or N-sweep and write one CSV row per point.

    Per-point failures are recorded in the `error` column and the sweep
    continues.
    """
    out = _out_dir(config)
    sweep = config.sweep
    if sweep is None:
        raise ConfigError("sweep command needs a sweep block in the config")
    rows = [_sweep_point(config, sweep.param, v, sweep.mode, i) for i, v in enumerate(sweep.values)]
    columns = ["param", "value", "k", "N", "mode", "risk", "risk_se",
               *bounds_mod.BoundReport.flat_keys(), "error"]
    _write_csv(out / "sweep.csv", columns, rows)
    failures = sum(1 for r in rows if r["error"])
    print(f"wrote {out / 'sweep.csv'} ({len(rows)} points, {failures} failed)")
    return out / "sweep.csv"


def cmd_bounds(config: ExperimentConfig) -> Path:
    """Pure calculator mode: closed-form bound report, no simulation."""
    out = _out_dir(config)
    report = _closed_form_report(config)
    doc = {"config": config.to_json_dict(), "bounds": asdict(report)}
    write_json(out / "bounds.json", doc)
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
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 3
    except JetsidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
