"""Jet-pair datasets and constrained empirical risk minimization.

Training never advances inputs through the net: every input/output pair
is pulled back to t=0 as a (input jet, output jet) pair, the model's
predicted output jet is an explicit function of the weights, and the
loss compares the two reconstructed output polynomials on the grid
j*T/k, j=1..k.  The feasible set bounds the spectral norm of A and the
Euclidean norms of b, c and xi by M.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .bernstein import bernstein_jet, jet_poly_eval
from .errors import ConfigError, DomainError, ShapeError, whole_number
from .jets import RnnParams, output_jet
from .rnn import SimConfig, System, simulate
from .signals import InputSpec, _eval_array


@dataclass(frozen=True)
class JetDataset:
    """N jet pairs, one per row: input jets v of order k-1, shape (N, k),
    and output jets z of order k, shape (N, k+1)."""

    v: np.ndarray
    z: np.ndarray
    k: int
    T: float

    def __post_init__(self):
        v = np.asarray(self.v, dtype=float)
        z = np.asarray(self.z, dtype=float)
        if self.k < 2:
            raise ConfigError(f"k must be >= 2, got {self.k}")
        N = v.shape[0] if v.ndim else 0
        if N < 1:
            raise ConfigError("dataset needs at least one pair")
        if v.shape != (N, self.k) or z.shape != (N, self.k + 1):
            raise ShapeError(f"jet arrays of shapes {v.shape}, {z.shape}, expected "
                             f"({N}, {self.k}), ({N}, {self.k + 1})")
        if not (np.isfinite(v).all() and np.isfinite(z).all()):
            raise DomainError("dataset contains nonfinite jet entries")
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "z", z)

    @property
    def N(self) -> int:
        return self.v.shape[0]

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "T": self.T,
            "N": self.N,
            "pairs": [{"v": v.tolist(), "z": z.tolist()} for v, z in zip(self.v, self.z)],
        }

    @staticmethod
    def from_json_dict(doc: dict) -> "JetDataset":
        v, z = (np.array([p[key] for p in doc["pairs"]], dtype=float) for key in ("v", "z"))
        ds = JetDataset(v, z, whole_number("k", doc["k"]), float(doc["T"]))
        if ds.N != whole_number("N", doc["N"]):
            raise ConfigError(f"N field {doc['N']} != {ds.N} pairs")
        return ds

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")

    @staticmethod
    def load(path) -> "JetDataset":
        with open(path) as fh:
            try:
                return JetDataset.from_json_dict(json.load(fh))
            except KeyError as exc:
                raise ConfigError(f"dataset file {path} lacks field {exc}") from exc
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"dataset file {path} is malformed: {exc}") from exc


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer settings for multi-restart projected descent."""

    M: float
    n: int
    restarts: int = 4
    max_iters: int = 150
    step_size: float = 0.5
    fd_step: float = 1e-5
    rng_seed: int = 0
    tolerance: float = 1e-12

    def __post_init__(self):
        for name in ("n", "restarts", "max_iters", "rng_seed"):
            object.__setattr__(self, name, whole_number(f"train.{name}", getattr(self, name)))
        if not self.M > 0:
            raise ConfigError(f"M must be positive, got {self.M}")
        if self.n < 1:
            raise ConfigError(f"n must be >= 1, got {self.n}")
        if self.restarts < 1 or self.max_iters < 0:
            raise ConfigError("restarts >= 1 and max_iters >= 0 required")
        if not (self.step_size > 0 and self.fd_step > 0 and self.tolerance >= 0):
            raise ConfigError("step_size, fd_step must be positive; tolerance >= 0")

    def to_json_dict(self) -> dict:
        return {
            "M": self.M, "n": self.n, "restarts": self.restarts,
            "max_iters": self.max_iters, "step_size": self.step_size,
            "fd_step": self.fd_step, "rng_seed": self.rng_seed,
            "tolerance": self.tolerance,
        }

    @staticmethod
    def from_json_dict(doc: dict) -> "TrainConfig":
        known = {"M", "n", "restarts", "max_iters", "step_size", "fd_step", "rng_seed", "tolerance"}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown train fields: {sorted(unknown)}")
        if not {"M", "n"} <= set(doc):
            raise ConfigError("train config needs at least M and n")
        return TrainConfig(**doc)


def input_jets(inputs: list[InputSpec], k: int, T: float) -> np.ndarray:
    """(N, k) input jets of order k-1, one row per input: the jet of the
    degree-(k-1) lift of its samples at i*T/(k-1)."""
    ts = np.linspace(0.0, T, k)
    return bernstein_jet(np.array([_eval_array(spec, ts) for spec in inputs]).reshape(-1, k), k, T)


def _snap_grid(sim: SimConfig, k: int) -> tuple[SimConfig, int]:
    """`sim` with its dense grid snapped to k*round((grid_size-1)/k)+1
    points, so the k+1 nodes i*T/k of a degree-k lift are grid points,
    and the stride between those nodes."""
    per_node = max(1, round((sim.grid_size - 1) / k))
    return replace(sim, grid_size=k * per_node + 1), per_node


def build_dataset(
    inputs: list[InputSpec],
    ground_truth: System,
    k: int,
    T: float,
    sim: SimConfig = SimConfig(),
) -> JetDataset:
    """Sample each input on the k-node grid, simulate the ground truth,
    and pull both sides back to jets.

    The input is sampled at i*T/(k-1) (nodes of its degree-(k-1) lift)
    and the simulated output at i*T/k (nodes of the degree-k lift).
    All inputs are simulated in one batch; a DivergenceError names the
    first diverging `sample <idx>`.
    """
    if k < 2:
        raise ConfigError(f"k must be >= 2, got {k}")
    dense, per_node = _snap_grid(sim, k)
    v = input_jets(inputs, k, T)
    y_dense = simulate(ground_truth, list(inputs), T, dense)
    return JetDataset(v, bernstein_jet(y_dense[:, ::per_node], k + 1, T), k, T)


def build_teacher_dataset(
    inputs: list[InputSpec], teacher: RnnParams, k: int, T: float
) -> JetDataset:
    """Realizable dataset: output jets produced by the teacher's jet map.

    Because the jet map is exact, a student equal to the teacher attains
    empirical risk 0 on such data (up to roundoff).
    """
    if k < 2:
        raise ConfigError(f"k must be >= 2, got {k}")
    v = input_jets(inputs, k, T)
    return JetDataset(v, output_jet(teacher, v, k), k, T)


def empirical_risk(params: RnnParams, dataset: JetDataset) -> float:
    """Mean over the pairs of the sample loss: the largest mismatch
    |poly(output_jet(params, v) - z)(t_j)| between the predicted and the
    target output polynomial over the grid t_j = j*T/k, j=1..k."""
    k = dataset.k
    t = np.arange(1, k + 1) * (dataset.T / k)
    mismatch = jet_poly_eval(output_jet(params, dataset.v, k) - dataset.z, t)
    return float(np.abs(mismatch).max(axis=1).mean())


_FEASIBLE_SLACK = 1.0 + 1e-12


def is_feasible(params: RnnParams, M: float) -> bool:
    """All four norms within the budget, up to roundoff slack."""
    return all(v <= M * _FEASIBLE_SLACK for v in params.norms().values())


def project_feasible(params: RnnParams, M: float) -> RnnParams:
    """Euclidean projection onto the norm-budget set.

    Singular values of A are clipped at M (exact projection in the
    spectral-norm ball); b, c, xi are radially rescaled.  Feasible
    inputs are returned unchanged, so the map is exactly idempotent.
    """
    if not M > 0:
        raise ConfigError(f"M must be positive, got {M}")

    def clip_vec(v):
        nrm = float(np.linalg.norm(v))
        return v if nrm <= M * _FEASIBLE_SLACK else v * (M / nrm)

    A = params.A
    if float(np.linalg.norm(A, 2)) > M * _FEASIBLE_SLACK:
        U, s, Vt = np.linalg.svd(A)
        A = (U * np.minimum(s, M)) @ Vt
    return RnnParams(A, clip_vec(params.b), clip_vec(params.c), clip_vec(params.xi))


def _flatten(params: RnnParams) -> np.ndarray:
    return np.concatenate([params.A.ravel(), params.b, params.c, params.xi])


def _unflatten(theta: np.ndarray, n: int) -> RnnParams:
    return RnnParams(
        A=theta[: n * n].reshape(n, n),
        b=theta[n * n : n * n + n],
        c=theta[n * n + n : n * n + 2 * n],
        xi=theta[n * n + 2 * n :],
    )


def _random_init(config: TrainConfig, rng: np.random.Generator) -> RnnParams:
    n = config.n
    scale = config.M / math.sqrt(n)
    raw = RnnParams(
        A=rng.uniform(-scale, scale, (n, n)),
        b=rng.uniform(-scale, scale, n),
        c=rng.uniform(-scale, scale, n),
        xi=rng.uniform(-scale, scale, n),
    )
    return project_feasible(raw, config.M)


class SampleSizeCheck(NamedTuple):
    ok: bool
    threshold: int


def sample_size_check(N: int, n: int, k: int) -> SampleSizeCheck:
    """Whether N reaches k(6 n^6 + 10 n^3 log2 k) and that threshold."""
    if n < 1 or k < 1:
        raise ConfigError("n and k must be >= 1")
    threshold = math.ceil(k * (6.0 * n**6 + 10.0 * n**3 * math.log2(k)))
    return SampleSizeCheck(N >= threshold, threshold)


@dataclass(frozen=True)
class TrainResult:
    params: RnnParams
    trajectory: tuple[float, ...]
    risk: float
    stationary: bool
    best_restart: int


_MAX_HALVINGS = 20


def _descend(
    dataset: JetDataset, config: TrainConfig, start: RnnParams
) -> tuple[RnnParams, list[float], bool]:
    """Projected finite-difference descent from one starting point.

    Steps are accepted only if the risk strictly decreases; the returned
    trajectory is the accepted-risk sequence (nonincreasing).
    """
    theta = _flatten(project_feasible(start, config.M))
    risk = empirical_risk(_unflatten(theta, config.n), dataset)
    trajectory = [risk]
    accepted_any = False
    for _ in range(config.max_iters):
        grad = np.zeros_like(theta)
        for i in range(theta.size):
            h = config.fd_step * max(1.0, abs(theta[i]))
            bumped = theta.copy()
            bumped[i] += h
            grad[i] = (empirical_risk(_unflatten(bumped, config.n), dataset) - risk) / h
        gnorm = float(np.linalg.norm(grad))
        if gnorm == 0.0:
            break
        alpha = config.step_size
        improved = False
        for _ in range(_MAX_HALVINGS):
            cand = _flatten(project_feasible(_unflatten(theta - alpha * grad, config.n), config.M))
            cand_risk = empirical_risk(_unflatten(cand, config.n), dataset)
            if cand_risk < risk:
                theta, risk = cand, cand_risk
                improved = True
                break
            alpha *= 0.5
        if not improved:
            break
        accepted_any = True
        trajectory.append(risk)
        if len(trajectory) >= 2 and trajectory[-2] - trajectory[-1] < config.tolerance:
            break
    return _unflatten(theta, config.n), trajectory, not accepted_any


def train(dataset: JetDataset, config: TrainConfig, init: RnnParams | None = None) -> TrainResult:
    """Approximate risk minimizer over the norm-budget set.

    Runs `config.restarts` independent descents (the first from `init`
    when given, the rest from random feasible points) and returns the
    best final risk; ties break toward the lowest restart index.
    """
    children = np.random.SeedSequence(config.rng_seed).spawn(config.restarts)
    best: tuple[RnnParams, list[float], bool] | None = None
    best_risk = math.inf
    best_idx = -1
    for idx, child in enumerate(children):
        if idx == 0 and init is not None:
            start = init
        else:
            start = _random_init(config, np.random.default_rng(child))
        params, traj, stationary = _descend(dataset, config, start)
        if traj[-1] < best_risk:
            best = (params, traj, stationary)
            best_risk = traj[-1]
            best_idx = idx
    assert best is not None
    params, traj, stationary = best
    return TrainResult(
        params=params,
        trajectory=tuple(traj),
        risk=traj[-1],
        stationary=stationary,
        best_restart=best_idx,
    )
