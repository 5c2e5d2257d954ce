"""Jet-pair datasets and constrained empirical risk minimization.

Training never advances inputs through the net: every input/output pair
is pulled back to t=0 as a (input jet, output jet) pair, the model's
predicted output jet is an explicit function of the weights, and the
loss compares the two reconstructed output polynomials on the grid
j*T/k, j=1..k.  The feasible set bounds the spectral norm of A and the
Euclidean norms of b, c and xi by M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .bernstein import _taylor_horner, bernstein_jet
from .errors import (MAX_COUNT, MAX_STATES, ConfigBlock, ConfigError, DomainError, ShapeError,
                     read_json, real_array, real_number, whole_number, write_json)
from .jets import RnnParams, _jet_and_series, _vector_norms, output_jet
from .rnn import SimConfig, System, simulate
from .signals import InputSpec, sample_on_grid


@dataclass(frozen=True)
class JetDataset:
    """N jet pairs of finite reals, one per row: input jets v of order k-1,
    shape (N, k), and output jets z of order k, shape (N, k+1)."""

    v: np.ndarray
    z: np.ndarray
    k: int
    T: float

    def __post_init__(self):
        v, z = real_array("v", self.v), real_array("z", self.z)
        object.__setattr__(self, "k", whole_number("k", self.k, 2))
        object.__setattr__(self, "T", real_number("T", self.T, 0))
        N = v.shape[0] if v.ndim else 0
        if N < 1:
            raise ConfigError("dataset needs at least one pair")
        if v.shape != (N, self.k) or z.shape != (N, self.k + 1):
            raise ShapeError(f"jet arrays of shapes {v.shape}, {z.shape}, expected "
                             f"({N}, {self.k}), ({N}, {self.k + 1})")
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
        v, z = ([p[key] for p in doc["pairs"]] for key in ("v", "z"))
        ds = JetDataset(v, z, doc["k"], doc["T"])
        if ds.N != whole_number("N", doc["N"]):
            raise ConfigError(f"N field {doc['N']} != {ds.N} pairs")
        return ds

    def save(self, path) -> None:
        write_json(path, self.to_json_dict())

    @staticmethod
    def load(path) -> "JetDataset":
        return read_json(path, "dataset file", JetDataset.from_json_dict)


@dataclass(frozen=True)
class TrainConfig(ConfigBlock):
    """Optimizer settings for multi-restart projected descent."""

    SECTION = "train"

    M: float
    n: int
    restarts: int = 4
    max_iters: int = 150
    step_size: float = 0.5
    rng_seed: int = 0
    tolerance: float = 1e-12

    def __post_init__(self):
        for name, minimum, maximum in (("n", 1, MAX_STATES), ("restarts", 1, MAX_COUNT),
                                       ("max_iters", 0, MAX_COUNT), ("rng_seed", 0, None)):
            object.__setattr__(self, name, whole_number(f"train.{name}", getattr(self, name),
                                                        minimum, maximum))
        for name, above in (("M", 0), ("step_size", 0), ("tolerance", None)):
            object.__setattr__(self, name, real_number(f"train.{name}", getattr(self, name), above))
        if self.tolerance < 0:
            raise ConfigError(f"train.tolerance must be >= 0, got {self.tolerance}")


def input_jets(inputs: list[InputSpec], k: int, T: float) -> np.ndarray:
    """(N, k) input jets of order k-1, one row per input: the jet of the
    degree-(k-1) lift of its samples at i*T/(k-1)."""
    if k < 2:
        raise ConfigError(f"k must be >= 2, got {k}")
    return bernstein_jet(sample_on_grid(inputs, k - 1, T), k, T)


def _snap_grid(sim: SimConfig, k: int) -> tuple[SimConfig, int]:
    """`sim` with its dense grid snapped to k*p+1 points, p the nearest
    whole number to (grid_size-1)/k within [1, (MAX_COUNT-1)//k], so the
    k+1 nodes i*T/k of a degree-k lift are grid points and the grid stays
    within MAX_COUNT, and the stride p between those nodes."""
    per_node = min(max(1, round((sim.grid_size - 1) / k)), (MAX_COUNT - 1) // k)
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
    v = input_jets(inputs, k, T)
    dense, per_node = _snap_grid(sim, k)
    y_dense = simulate(ground_truth, list(inputs), T, dense)
    return JetDataset(v, bernstein_jet(y_dense[:, ::per_node], k + 1, T), k, T)


def build_teacher_dataset(
    inputs: list[InputSpec], teacher: RnnParams, k: int, T: float
) -> JetDataset:
    """Realizable dataset: output jets produced by the teacher's jet map.

    Because the jet map is exact, a student equal to the teacher attains
    empirical risk 0 on such data (up to roundoff).
    """
    v = input_jets(inputs, k, T)
    return JetDataset(v, output_jet(teacher, v, k), k, T)


def empirical_risk(params: RnnParams, dataset: JetDataset) -> float:
    """Mean over the pairs of the sample loss: the largest mismatch
    |poly(output_jet(params, v) - z)(t_j)| between the predicted and the
    target output polynomial over the grid t_j = j*T/k, j=1..k."""
    return float(_risk_forward(_flatten(params)[None], dataset.v, dataset.z, params.n,
                               dataset.k, dataset.T)[0][0])


def _split(thetas: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
    """Views A (L, n, n) and b, c, xi (L, n) of an (L, P) stack of flat
    weights, each row theta = (A row by row, b, c, xi)."""
    nn = n * n
    return (thetas[:, :nn].reshape(len(thetas), n, n), thetas[:, nn:nn + n],
            thetas[:, nn + n:nn + 2 * n], thetas[:, nn + 2 * n:])


@np.errstate(over="ignore", invalid="ignore")
def _risk_forward(thetas, v, z, n, k, T) -> tuple[np.ndarray, tuple]:
    """`empirical_risk` at each row of an (L, P) stack of flat weights,
    as an (L,) array, and the stacked tape whose `_tape_row` slices
    `_risk_backward` turns into gradients.  Each row's risk and tape
    equal bit for bit those of a stack of one; a non-finite risk is a DomainError."""
    A, b, c, xi = _split(thetas, n)
    y, series = _jet_and_series(A, b, c, xi, v)
    t = np.arange(1, k + 1) * (T / k)
    mismatch = _taylor_horner(y - z, t)
    # the sum and division of np.mean
    risks = np.add.reduce(np.abs(mismatch).max(axis=2), axis=1) / y.shape[1]
    if not np.isfinite(risks).all():
        raise DomainError("the risk on these jet pairs leaves the float range")
    return risks, (A, c, t, mismatch, series)


def _tape_row(tape: tuple, i: int) -> tuple:
    """The tape of row i of a stacked `_risk_forward`, as views."""
    A, c, t, mismatch, (u, *series) = tape
    return A[i], c[i], t, mismatch[i], (u, *(s[:, i] for s in series))


@np.errstate(over="ignore", invalid="ignore")
def _risk_backward(tape: tuple) -> np.ndarray:
    """Gradient of the risk from its forward tape, by the adjoint of the
    Taylor recurrence of `jets._jet_and_series`.

    Each sample's loss is a max over the grid; it is seeded at its
    arg-max node t_p (the first on a tie), a subgradient: sign/N * t_p^j
    on the j-th Taylor coefficient X_j.c of the output.  The sweep then
    runs j = k-1..0 back through X_{j+1} = S_j/(j+1), W_j = [j=0] -
    sum_i S_i S_{j-i}, the S_j convolution (S_0 = tanh(ARG_0)) and
    ARG_j = A X_j + b u_j.  A non-finite gradient is a DomainError.
    """
    A, c, t, mismatch, (u, X, ARG, S, W) = tape
    k, N, n = ARG.shape
    orders = np.arange(k + 1)
    worst = np.abs(mismatch).argmax(axis=1)
    seed = np.sign(mismatch[np.arange(N), worst]) / N
    ybar = seed * t[worst] ** orders[:, None]
    Xbar = ybar[..., None] * c
    Sbar, Wbar, ARGbar = np.zeros((3, *S.shape))
    for j in range(k - 1, -1, -1):
        Sbar[j] += Xbar[j + 1] / (j + 1)
        Sbar[: j + 1] -= 2.0 * Wbar[j] * S[j::-1]
        if j == 0:
            ARGbar[0] += Sbar[0] * W[0]
        else:
            weights = orders[j:0:-1, None, None] * (Sbar[j] / j)
            Wbar[:j] += weights * ARG[j:0:-1]
            ARGbar[j:0:-1] += weights * W[:j]
        Xbar[j] += ARGbar[j] @ A
    flat = ARGbar.reshape(k * N, n)
    grad = np.concatenate([
        (flat.T @ X[:k].reshape(k * N, n)).ravel(),
        u.ravel() @ flat,
        ybar.ravel() @ X.reshape((k + 1) * N, n),
        Xbar[0].sum(axis=0),
    ])
    if not np.isfinite(grad).all():
        raise DomainError("the gradient of the risk on these jet pairs leaves the float range")
    return grad


_FEASIBLE_SLACK = 1.0 + 1e-12


def is_feasible(params: RnnParams, M: float) -> bool:
    """All four norms within the budget, up to roundoff slack."""
    return all(v <= M * _FEASIBLE_SLACK for v in params.norms().values())


# A row whose squares of A / M sum to at most (1 - 1e-9)^2 has ||A||_F, and
# so the spectral norm, inside the budget, and skips the SVD; likewise for
# b, c and xi.  Each square of an entry over M is off by at most 3.3e-16
# relative and a sum of up to n^2 = MAX_STATES^2 of them by about 1.1e-10
# (a square that underflows loses under 2.3e-308); LAPACK's largest
# singular value is off by about 1e-13.  So a certified row's computed
# norms all stay under M * _FEASIBLE_SLACK, and every clip and rescale
# decision is that of the exact norms.
_CERTIFIED = 1.0 - 1e-9
_CERTIFIED_SQ = _CERTIFIED * _CERTIFIED


def _project(thetas: np.ndarray, n: int, M: float) -> np.ndarray:
    """Euclidean projection onto the norm-budget set of each row of an
    (L, P) stack of flat weights, rows equal bit for bit to those of a
    stack of one: the singular values of A are clipped at M (the exact
    projection onto the spectral-norm ball), and b, c, xi are radially
    rescaled.  One pass sums the squares of each row's four blocks divided
    by M; when it certifies every block inside the budget, the stack itself
    is returned with no exact norm taken, so the caller hands in an array
    it does not change afterwards.  Otherwise only the A that the pass
    leaves in doubt go through an SVD, and b, c, xi take exact norms."""
    L, nn = len(thetas), n * n
    with np.errstate(over="ignore"):
        scaled = thetas / M
        sq = np.add.reduceat(scaled * scaled, [0, nn, nn + n, nn + 2 * n], axis=1)
    if sq.max() <= _CERTIFIED_SQ:  # NaN: in doubt
        return thetas
    A = thetas[:, :nn].reshape(L, n, n)
    bound = M * _FEASIBLE_SLACK
    doubt = np.flatnonzero(~(sq[:, 0] <= _CERTIFIED_SQ))
    clip = (doubt[np.linalg.svd(A[doubt], compute_uv=False).max(axis=1) > bound]
            if doubt.size else doubt)
    # b, c, xi of each row
    vecs = thetas[:, nn:].reshape(L, 3, n)
    nrm = _vector_norms(vecs)
    out = nrm > bound
    if not (clip.size or out.any()):
        return thetas
    if clip.size:
        U, s, Vt = np.linalg.svd(A[clip])
        A = A.copy()
        A[clip] = (U * np.minimum(s, M)[:, None]) @ Vt
    vecs = vecs.copy()
    vecs[out] *= (M / nrm[out])[:, None]
    return np.concatenate([A.reshape(L, nn), vecs.reshape(L, 3 * n)], axis=1)


def _flatten(params: RnnParams) -> np.ndarray:
    return np.concatenate([params.A.ravel(), params.b, params.c, params.xi])


def _unflatten(theta: np.ndarray, n: int) -> RnnParams:
    return RnnParams(*(part[0] for part in _split(theta[None], n)))


def _random_init(config: TrainConfig, rng: np.random.Generator) -> RnnParams:
    """Weights uniform in [-M/sqrt(n), M/sqrt(n)], left to `_descend` to project."""
    n = config.n
    scale = config.M / math.sqrt(n)
    return _unflatten(rng.uniform(-scale, scale, n * (n + 3)), n)


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
    """Projected subgradient descent from one starting point, on flat
    weights, with the exact (sub)gradient `_risk_backward` takes from the
    accepted candidate's forward tape.

    Each step takes the first of the step sizes step_size * 2^-i,
    i < _MAX_HALVINGS, whose projected candidate strictly lowers the risk;
    the returned trajectory is the accepted-risk sequence (nonincreasing),
    and the flag is whether a first step was tried (max_iters > 0) and
    none was accepted.  The ladder is tried in stacked batches: the first
    holds as many step sizes as the larger need of the last two steps (one
    at the start), each later one the next step size alone.  A step costs one
    backward sweep and, per batch, one stacked forward sweep and one
    stacked projection; the candidates past the accepted one are the only
    work that halving one trial at a time would not do, and the accepted
    step is the same.
    """
    n, M = config.n, config.M
    data = (dataset.v, dataset.z, n, dataset.k, dataset.T)
    ladder = [config.step_size]
    for _ in range(_MAX_HALVINGS - 1):
        ladder.append(ladder[-1] * 0.5)
    ladder = np.array(ladder)[:, None]
    theta = _project(_flatten(start)[None], n, M)
    risks, tape = _risk_forward(theta, *data)
    theta, risk, tape = theta[0], float(risks[0]), _tape_row(tape, 0)
    trajectory = [risk]
    rungs = (0, 0)
    for _ in range(config.max_iters):
        grad = _risk_backward(tape)
        if not grad.any():
            break
        edges = [0, *range(max(rungs) + 1, _MAX_HALVINGS + 1)]
        for first, stop in zip(edges, edges[1:]):
            cands = _project(theta - ladder[first:stop] * grad, n, M)
            cand_risks, cand_tape = _risk_forward(cands, *data)
            lower = np.flatnonzero(cand_risks < risk)
            if lower.size:
                break
        else:
            break
        i = int(lower[0])
        rungs = (rungs[1], first + i)
        theta, risk, tape = cands[i], float(cand_risks[i]), _tape_row(cand_tape, i)
        trajectory.append(risk)
        if trajectory[-2] - trajectory[-1] < config.tolerance:
            break
    return _unflatten(theta, n), trajectory, config.max_iters > 0 and len(trajectory) == 1


def train(dataset: JetDataset, config: TrainConfig, init: RnnParams | None = None) -> TrainResult:
    """Approximate risk minimizer over the norm-budget set.

    Runs `config.restarts` independent descents (the first from `init`
    when given, the rest from random points) and returns the best final
    risk; ties break toward the lowest restart index.
    """
    if init is not None and init.n != config.n:
        raise ShapeError(f"init model has n={init.n}, train.n is {config.n}")
    children = np.random.SeedSequence(config.rng_seed).spawn(config.restarts)
    starts = (init if idx == 0 and init is not None
              else _random_init(config, np.random.default_rng(child))
              for idx, child in enumerate(children))
    best_idx, (params, traj, stationary) = min(
        enumerate(_descend(dataset, config, start) for start in starts),
        key=lambda run: run[1][1][-1])
    return TrainResult(
        params=params,
        trajectory=tuple(traj),
        risk=traj[-1],
        stationary=stationary,
        best_restart=best_idx,
    )
