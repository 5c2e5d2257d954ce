"""Time-domain simulation and closed-form flow certificates.

Fixed-step classical RK4 drives both the recurrent model and the
shipped ground-truth state-space systems; smooth bounded right-hand
sides need no stiffness handling and fixed stepping keeps runs exactly
reproducible.  The certificates bound the i/o Lipschitz constant, the
output sup norm, and the output modulus of continuity of any recurrent
model from its weight norms alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (MAX_COUNT, ConfigBlock, ConfigError, DivergenceError, DomainError, ShapeError,
                     real_number, whole_number)
from .jets import RnnParams
from .signals import FOURIER, InputSpec, _eval_array


@dataclass(frozen=True)
class SimConfig(ConfigBlock):
    """Fixed-step RK4 settings.

    step=None resolves to T/256 at simulation time, one step per
    interval of the default 257-point grid.  The actual substep is
    snapped to an integer subdivision of the dense output grid so
    recorded times are exact, and a coarser grid gets more substeps.
    """

    SECTION = "sim"

    step: float | None = None
    grid_size: int = 257

    def __post_init__(self):
        object.__setattr__(self, "grid_size",
                           whole_number("sim.grid_size", self.grid_size, 2, MAX_COUNT))
        if self.step is not None:
            object.__setattr__(self, "step", real_number("sim.step", self.step, 0))


@dataclass(frozen=True)
class ControlAffineSystem:
    """Ground truth dx/dt = f(x) + g(x) u, y = h^T x, x(0) = xi0.

    `drift` takes the states of a batch of inputs as an (n, B) array, one
    column per input, and returns a 2-d array that broadcasts to (n, B).
    `input_gain` is such a function too, or a constant 2-d array that
    broadcasts to (n, B), such as an (n, 1) column; a constant gain is
    multiplied into the stage inputs once per run, not at every stage.

    Shipped instances declare, where available in closed form, a slope
    for the output modulus of continuity (as a function of the input
    amplitude R) and an output sup-norm bound (function of R and T).
    """

    name: str
    drift: Callable[[np.ndarray], np.ndarray]
    input_gain: Callable[[np.ndarray], np.ndarray] | np.ndarray
    h: np.ndarray
    xi0: np.ndarray
    output_lipschitz: Callable[[float], float] | None = None
    gamma_bound: Callable[[float, float], float] | None = None

    @property
    def n(self) -> int:
        return np.atleast_1d(np.asarray(self.xi0)).size


System = RnnParams | ControlAffineSystem


def _run(system: System, u_stage: np.ndarray) -> tuple[np.ndarray, np.ndarray, Callable]:
    """Initial state, output vector and right-hand side of one run whose
    inputs take the (stages, B) values `u_stage`.  rhs(x, s, out) writes
    stage s into `out` in place: tanh(A x + b u_s) for a model, with the
    b u of every stage formed once, or f(x) + g(x) u_s for a
    control-affine system, with the g u of every stage formed once when
    the gain g is a constant array."""
    if isinstance(system, RnnParams):
        A, bu = system.A, system.b[:, None] * u_stage[:, None, :]

        def rnn(x, s, out):
            np.matmul(A, x, out)
            out += bu[s]
            np.tanh(out, out)
        return system.xi, system.c, rnn
    f, g = system.drift, system.input_gain
    xi, hvec = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (system.xi0, system.h))
    _check_batch_shapes(system, np.repeat(xi[:, None], u_stage.shape[1], axis=1))
    if callable(g):
        def affine(x, s, out):
            np.multiply(g(x), u_stage[s], out)
            out += f(x)
    else:
        gu = g * u_stage[:, None, :]

        def affine(x, s, out):
            np.add(f(x), gu[s], out)
    return xi, hvec, affine


def _check_batch_shapes(system: ControlAffineSystem, x: np.ndarray) -> None:
    """ShapeError unless drift and input_gain map the (n, B) state to 2-d
    arrays that broadcast to (n, B), or an array input_gain is one; a 1-d
    (n,) gain would broadcast against the batch axis when B == n and
    silently mix inputs."""
    g = system.input_gain
    for name, value in (("drift", system.drift(x)), ("input_gain", g(x) if callable(g) else g)):
        shape = np.shape(value)
        if len(shape) != 2 or any(d not in (1, s) for d, s in zip(shape, x.shape)):
            raise ShapeError(f"system {system.name}: {name} gives shape {shape} for a "
                             f"state of shape {x.shape}; it must broadcast to (n, B)")


def rk4_substeps(T: float, config: SimConfig = SimConfig()) -> int:
    """RK4 steps per interval of the dense output grid of `simulate`: the
    requested step (T/256 when `config.step` is None) snapped to an
    integer subdivision of the grid spacing T/(grid_size-1), at least 1.
    `simulate` takes (grid_size-1) times as many steps per input, at most
    MAX_COUNT; a larger count may read as MAX_COUNT + 1."""
    h_req = config.step if config.step is not None else T / 256.0
    return max(1, round(min(T / (config.grid_size - 1) / h_req, MAX_COUNT + 1)))


def simulate(system: System, input_u: list | tuple, T: float,
             config: SimConfig = SimConfig()) -> np.ndarray:
    """Outputs y on the dense grid of `config.grid_size` points over [0, T].

    `input_u` is a nonempty list or tuple of B inputs; the result is a
    (B, grid_size) array with one row per input.  All B inputs step
    together, the state held as an (n, B) array.  Each input is a
    closed-form `InputSpec`, evaluated exactly at every RK4 stage time.
    Raises DivergenceError naming the first bad time and the index of the
    first input whose state leaves the finite range.  The one-run call of
    `simulate_runs`.
    """
    return simulate_runs([(system, input_u)], T, config)[0]


@np.errstate(over="ignore", invalid="ignore")
def simulate_runs(runs: Sequence[tuple[System, list | tuple]], T: float,
                  config: SimConfig = SimConfig()) -> list[np.ndarray]:
    """`simulate` of several (system, inputs) runs in one RK4 loop, one
    (B, grid_size) output array per run.

    The runs share the horizon and the grid.  Their states are stacked in
    one flat array, so the RK4 combinations and the finiteness check are
    made once per step for all runs, and every update is made in place in
    preallocated buffers.  An input object that several runs share is
    evaluated at the stage times once.  Each run takes the same IEEE
    operations as alone, so its outputs are bit-identical to `simulate`
    of that run; a divergence names the first bad run's system and input.
    The state is checked once, after the last step (a non-finite entry
    stays non-finite under `x += ...`); only when that fails does the loop
    run again from the initial states, checking every step, to raise
    DivergenceError at the first bad time.  So a right-hand side must
    accept non-finite states; overflow and invalid operations warn nothing.
    """
    for _, inputs in runs:
        if not isinstance(inputs, (list, tuple)):
            raise ConfigError(f"simulate takes a list of inputs, got {type(inputs).__name__}")
        if not inputs:
            raise ConfigError("simulate needs at least one input")
        for u in inputs:
            if not isinstance(u, InputSpec):
                raise ConfigError(f"unsupported input type {type(u).__name__}")
    if not 0 < T < math.inf:
        raise DomainError(f"horizon must be positive, got {T}")
    if config.step is not None and config.step > T:
        raise ConfigError(f"step {config.step} exceeds horizon {T}")
    g = config.grid_size
    sub = rk4_substeps(T, config)
    h = T / (g - 1) / sub
    nsteps = (g - 1) * sub
    if nsteps > MAX_COUNT:
        raise ConfigError(f"sim.step {config.step} takes over {MAX_COUNT} RK4 steps on [0, {T}]")
    stage_times = np.arange(2 * nsteps + 1) * (h / 2.0)
    distinct = {id(u): u for _, inputs in runs for u in inputs}
    row = {key: i for i, key in enumerate(distinct)}
    u_all = _eval_array(list(distinct.values()), stage_times).T

    buf = np.empty((6, sum(system.n * len(inputs) for system, inputs in runs)))
    x, xs, k1, k2, k3, k4 = buf
    readout, stages = [], ([], [], [], [])
    end = 0
    for system, inputs in runs:
        B = len(inputs)
        xi, hvec, rhs = _run(system, np.ascontiguousarray(u_all[:, [row[id(u)] for u in inputs]]))
        xr, xsr, *kr = buf[:, end:end + xi.size * B].reshape(6, xi.size, B)
        end += xi.size * B
        xr[...] = xi[:, None]
        for stage, xin, k in zip(stages, (xr, xsr, xsr, xsr), kr):
            stage.append((rhs, xin, k))
        out = np.empty((g, B))
        np.matmul(hvec, xr, out[0])
        readout.append((system, hvec, xr, out))
    x_init = x.copy()
    half = 0.5 * h
    sixth = h / 6.0
    for checked in (False, True):
        x[...] = x_init
        gi = 1
        for i in range(nsteps):
            s = 2 * i
            for rhs, xin, k in stages[0]:
                rhs(xin, s, k)
            np.multiply(k1, half, xs)
            xs += x
            for rhs, xin, k in stages[1]:
                rhs(xin, s + 1, k)
            np.multiply(k2, half, xs)
            xs += x
            for rhs, xin, k in stages[2]:
                rhs(xin, s + 1, k)
            np.multiply(k3, h, xs)
            xs += x
            for rhs, xin, k in stages[3]:
                rhs(xin, s + 2, k)
            k2 += k3
            k2 *= 2.0
            k2 += k1
            k2 += k4
            k2 *= sixth
            x += k2
            if checked and not np.isfinite(x).all():
                for system, _, state, _ in readout:
                    finite = np.isfinite(state).all(axis=0)
                    if not finite.all():
                        name = getattr(system, "name", "rnn")
                        raise DivergenceError((i + 1) * h, detail=f"system {name}, "
                                              f"sample {int(np.argmin(finite))}")
            if (i + 1) % sub == 0:
                for _, hvec, state, out in readout:
                    np.matmul(hvec, state, out[gi])
                gi += 1
        if np.isfinite(x).all():
            break
    return [np.ascontiguousarray(out.T) for *_, out in readout]


def _exp_growth(rate: float, T: float, what: str) -> float:
    """e^(rate T), the growth factor `what` of a certificate; a DomainError
    naming it when it overflows a float."""
    try:
        return math.exp(rate * T)
    except OverflowError:
        raise DomainError(f"{what} overflows a float at {rate:.6g} * {T:.6g}") from None


def io_lipschitz_bound(params: RnnParams, T: float) -> float:
    """Certified i/o Lipschitz constant |c| |b| e^(||A|| T)."""
    nrm = params.norms()
    return nrm["c"] * nrm["b"] * _exp_growth(nrm["A"], T, "i/o Lipschitz bound e^(||A|| T)")


def output_modulus_bound(params: RnnParams, T: float, delta: float) -> float:
    """Certified output modulus sqrt(n) |c| e^(||A|| T) * delta."""
    if delta < 0:
        raise DomainError(f"delta must be >= 0, got {delta}")
    nrm = params.norms()
    growth = _exp_growth(nrm["A"], T, "output modulus bound e^(||A|| T)")
    return math.sqrt(params.n) * nrm["c"] * growth * delta


def output_sup_bound(params: RnnParams, T: float) -> float:
    """Certified output sup norm |c| (|xi| + sqrt(n) T).

    Uses the global bound sqrt(n) on the tanh right-hand side.
    """
    nrm = params.norms()
    return nrm["c"] * (nrm["xi"] + math.sqrt(params.n) * T)


def bibo_probes(R: float, count: int, T: float, rng_seed: int) -> list[InputSpec]:
    """The `count` probe inputs of the BIBO gain estimate, all with
    ||u|| <= R: the two constant inputs +-R first, then random Fourier
    inputs with amplitude budget exactly R."""
    if count < 1:
        raise ConfigError("probe_count must be >= 1")
    probes = [InputSpec("polynomial", np.array([v])) for v in [R, -R][: min(2, count)]]
    n_random = count - len(probes)
    if n_random > 0:
        children = np.random.SeedSequence([int(rng_seed), 0xB1B0]).spawn(n_random)
        for child in children:
            rng = np.random.default_rng(child)
            c = rng.uniform(-1.0, 1.0, 3)
            s = np.abs(c).sum()
            if s > 0:
                c = c * (R / s)
            w = rng.uniform(0.5, 3.0, 3) * (2.0 * math.pi / max(T, 1.0))
            a = rng.uniform(0.0, 2.0 * math.pi, 3)
            probes.append(InputSpec(FOURIER, c, w, a))
    return probes


_UNIT_GAIN = np.ones((1, 1))


def _make_linear(decay: float = 1.0, xi0: float = 0.0) -> ControlAffineSystem:
    a = real_number("ground_truth linear decay", decay, 0)
    x0 = real_number("ground_truth linear xi0", xi0)
    return ControlAffineSystem(
        name="linear",
        drift=lambda x: -a * x,
        input_gain=_UNIT_GAIN,
        h=np.array([1.0]),
        xi0=np.array([x0]),
        output_lipschitz=lambda R: a * abs(x0) + 2.0 * R,
        gamma_bound=lambda R, T: max(abs(x0), R / a),
    )


def _make_tanh_affine(xi0: float = 0.0) -> ControlAffineSystem:
    x0 = real_number("ground_truth tanh_affine xi0", xi0)
    return ControlAffineSystem(
        name="tanh_affine",
        drift=lambda x: -np.tanh(x),
        input_gain=lambda x: 1.0 / (1.0 + x**2),
        h=np.array([1.0]),
        xi0=np.array([x0]),
        output_lipschitz=lambda R: 1.0 + R,
        gamma_bound=lambda R, T: abs(x0) + T * (1.0 + R),
    )


def _make_duffing(
    damping: float = 0.5, stiffness: float = 1.0, saturation: float = 1.0,
    xi0: tuple[float, float] = (0.0, 0.0),
) -> ControlAffineSystem:
    d, s, b = (real_number(f"ground_truth duffing {name}", value) for name, value in
               (("damping", damping), ("stiffness", stiffness), ("saturation", saturation)))
    if not (isinstance(xi0, (list, tuple)) and len(xi0) == 2):
        raise ConfigError(f"ground_truth duffing xi0 must be two numbers, got {xi0!r}")
    x0 = np.array([real_number("ground_truth duffing xi0", v) for v in xi0])

    def drift(x):
        # a product cubes in about a third of the time np.power takes
        t = np.tanh(x[0])
        return np.array([x[1], -d * x[1] - s * x[0] - b * (t * t * t)])

    return ControlAffineSystem(
        name="duffing",
        drift=drift,
        input_gain=np.array([[0.0], [1.0]]),
        h=np.array([1.0, 0.0]),
        xi0=x0,
        output_lipschitz=None,
        gamma_bound=None,
    )


GROUND_TRUTHS: dict[str, Callable[..., ControlAffineSystem]] = {
    "linear": _make_linear,
    "tanh_affine": _make_tanh_affine,
    "duffing": _make_duffing,
}


def system_from_config(doc: dict) -> System:
    """Build a ground-truth system from its JSON declaration.

    {"kind": "named", "name": ..., "params": {...}} instantiates one of
    the shipped systems; {"kind": "rnn", "params": {...}} loads
    recurrent-model weights used as a teacher.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"ground_truth must be a JSON object, got {type(doc).__name__}")
    unknown = set(doc) - {"kind", "name", "params"}
    if unknown:
        raise ConfigError(f"unknown ground_truth fields: {sorted(unknown)}")
    kind = doc.get("kind")
    if kind == "named":
        name = doc.get("name")
        if name not in GROUND_TRUTHS:
            raise ConfigError(f"unknown ground truth {name!r}; have {sorted(GROUND_TRUTHS)}")
        try:
            return GROUND_TRUTHS[name](**doc.get("params", {}))
        except TypeError as exc:
            raise ConfigError(f"bad parameters for ground truth {name!r}: {exc}") from exc
    if kind == "rnn":
        if "params" not in doc:
            raise ConfigError("rnn ground truth needs a params block")
        return RnnParams.from_json_dict(doc["params"])
    raise ConfigError(f"ground_truth kind must be 'named' or 'rnn', got {kind!r}")
