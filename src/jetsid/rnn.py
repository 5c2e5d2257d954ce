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
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.interpolate import PchipInterpolator

from .errors import ConfigError, DivergenceError, DomainError, ShapeError, whole_number
from .jets import RnnParams
from .signals import FOURIER, InputSpec, SampledSignal, _eval_array


@dataclass(frozen=True)
class SimConfig:
    """Fixed-step RK4 settings.

    step=None resolves to T/4096 at simulation time.  The actual
    substep is snapped to an integer subdivision of the dense output
    grid so recorded times are exact.
    """

    step: float | None = None
    grid_size: int = 257

    def __post_init__(self):
        object.__setattr__(self, "grid_size", whole_number("sim.grid_size", self.grid_size))
        if self.step is not None and not self.step > 0:
            raise ConfigError(f"step must be positive, got {self.step}")
        if self.grid_size < 2:
            raise ConfigError(f"grid_size must be >= 2, got {self.grid_size}")

    def to_json_dict(self) -> dict:
        return {"step": self.step, "grid_size": self.grid_size}

    @staticmethod
    def from_json_dict(doc: dict) -> "SimConfig":
        unknown = set(doc) - {"step", "grid_size"}
        if unknown:
            raise ConfigError(f"unknown sim fields: {sorted(unknown)}")
        return SimConfig(**doc)


@dataclass(frozen=True)
class ControlAffineSystem:
    """Ground truth dx/dt = f(x) + g(x) u, y = h^T x, x(0) = xi0.

    `drift` and `input_gain` take the states of a batch of inputs as an
    (n, B) array, one column per input, and return 2-d arrays that
    broadcast to (n, B), such as an (n, 1) column for a constant gain.

    Shipped instances declare Lipschitz constants of their right-hand
    side, and, where available in closed form, a slope for the output
    modulus of continuity (as a function of the input amplitude R) and
    an output sup-norm bound (function of R and T).
    """

    name: str
    drift: Callable[[np.ndarray], np.ndarray]
    input_gain: Callable[[np.ndarray], np.ndarray]
    h: np.ndarray
    xi0: np.ndarray
    lipschitz: dict[str, float] = field(default_factory=dict)
    output_lipschitz: Callable[[float], float] | None = None
    gamma_bound: Callable[[float, float], float] | None = None
    params: dict[str, float] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return np.atleast_1d(np.asarray(self.xi0)).size


System = RnnParams | ControlAffineSystem


def _rhs(system: System) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    if isinstance(system, RnnParams):
        A, b = system.A, system.b[:, None]
        return lambda x, u: np.tanh(A @ x + b * u)
    f, g = system.drift, system.input_gain
    return lambda x, u: f(x) + g(x) * u


def _check_batch_shapes(system: ControlAffineSystem, x: np.ndarray) -> None:
    """ShapeError unless drift and input_gain map the (n, B) state to 2-d
    arrays that broadcast to (n, B); a 1-d (n,) result would broadcast
    against the batch axis when B == n and silently mix inputs."""
    for name in ("drift", "input_gain"):
        shape = np.shape(getattr(system, name)(x))
        if len(shape) != 2 or any(d not in (1, s) for d, s in zip(shape, x.shape)):
            raise ShapeError(f"system {system.name}: {name} returned shape {shape} for a "
                             f"state of shape {x.shape}; it must broadcast to (n, B)")


def _output_vector(system: System) -> np.ndarray:
    return system.c if isinstance(system, RnnParams) else np.atleast_1d(np.asarray(system.h, dtype=float))


def _initial_state(system: System) -> np.ndarray:
    return system.xi if isinstance(system, RnnParams) else np.atleast_1d(np.asarray(system.xi0, dtype=float))


def simulate(system: System, input_u: list | tuple, T: float,
             config: SimConfig = SimConfig()) -> np.ndarray:
    """Outputs y on the dense grid of `config.grid_size` points over [0, T].

    `input_u` is a nonempty list or tuple of B inputs; the result is a
    (B, grid_size) array with one row per input.  All B inputs step
    together, the state held as an (n, B) array.  Closed-form inputs are
    evaluated exactly at every RK4 stage time; sampled inputs are
    interpolated with a monotone piecewise cubic.  Raises DivergenceError
    naming the first bad time and the index of the first input whose
    state leaves the finite range.
    """
    if not isinstance(input_u, (list, tuple)):
        raise ConfigError(f"simulate takes a list of inputs, got {type(input_u).__name__}")
    inputs = list(input_u)
    if not inputs:
        raise ConfigError("simulate needs at least one input")
    if not T > 0:
        raise DomainError(f"horizon must be positive, got {T}")
    if config.step is not None and config.step > T:
        raise ConfigError(f"step {config.step} exceeds horizon {T}")
    g = config.grid_size
    dt_dense = T / (g - 1)
    h_req = config.step if config.step is not None else T / 4096.0
    sub = max(1, round(dt_dense / h_req))
    h = dt_dense / sub
    nsteps = (g - 1) * sub

    stage_times = np.arange(2 * nsteps + 1) * (h / 2.0)
    u_stage = np.empty((stage_times.size, len(inputs)))
    for j, u in enumerate(inputs):
        if isinstance(u, InputSpec):
            u_stage[:, j] = _eval_array(u, stage_times)
        elif isinstance(u, SampledSignal):
            interp = PchipInterpolator(u.grid, u.values)
            u_stage[:, j] = interp(np.clip(stage_times, 0.0, u.horizon_T))
        else:
            raise ConfigError(f"unsupported input type {type(u).__name__}")

    rhs = _rhs(system)
    hvec = _output_vector(system)
    x = np.repeat(_initial_state(system)[:, None], len(inputs), axis=1)
    if isinstance(system, ControlAffineSystem):
        _check_batch_shapes(system, x)
    outputs = np.empty((len(inputs), g))
    outputs[:, 0] = hvec @ x
    half = 0.5 * h
    sixth = h / 6.0
    gi = 1
    for i in range(nsteps):
        u0, um, u1 = u_stage[2 * i], u_stage[2 * i + 1], u_stage[2 * i + 2]
        k1 = rhs(x, u0)
        k2 = rhs(x + half * k1, um)
        k3 = rhs(x + half * k2, um)
        k4 = rhs(x + h * k3, u1)
        x = x + sixth * (k1 + 2.0 * (k2 + k3) + k4)
        if not np.isfinite(x).all():
            bad = int(np.argmin(np.isfinite(x).all(axis=0)))
            name = getattr(system, "name", "rnn")
            raise DivergenceError((i + 1) * h, detail=f"system {name}, sample {bad}")
        if (i + 1) % sub == 0:
            outputs[:, gi] = hvec @ x
            gi += 1
    return outputs


def write_trajectory_csv(path, u: SampledSignal, y: SampledSignal) -> None:
    """Export one input/output trajectory as `t,u,y` rows."""
    if u.values.size != y.values.size or u.horizon_T != y.horizon_T:
        raise DomainError("input and output trajectories must share the grid")
    with open(path, "w") as fh:
        fh.write("t,u,y\n")
        for t, ui, yi in zip(u.grid, u.values, y.values):
            fh.write(f"{float(t)!r},{float(ui)!r},{float(yi)!r}\n")


def io_lipschitz_bound(params: RnnParams, T: float) -> float:
    """Certified i/o Lipschitz constant |c| |b| e^(||A|| T)."""
    nrm = params.norms()
    return nrm["c"] * nrm["b"] * math.exp(nrm["A"] * T)


def output_modulus_bound(params: RnnParams, T: float, delta: float) -> float:
    """Certified output modulus sqrt(n) |c| e^(||A|| T) * delta."""
    if delta < 0:
        raise DomainError(f"delta must be >= 0, got {delta}")
    nrm = params.norms()
    return math.sqrt(params.n) * nrm["c"] * math.exp(nrm["A"] * T) * delta


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


def bibo_gain_estimate(
    system: System,
    R: float,
    probe_count: int,
    T: float,
    rng_seed: int,
    config: SimConfig = SimConfig(),
) -> float:
    """Monte-Carlo lower estimate of the worst output sup norm over ||u|| <= R.

    The largest |y| over the outputs of `bibo_probes`.  A lower bound by
    construction; report it together with probe_count.
    """
    probes = bibo_probes(R, probe_count, T, rng_seed)
    return float(np.abs(simulate(system, probes, T, config)).max())


def _make_linear(decay: float = 1.0, xi0: float = 0.0) -> ControlAffineSystem:
    a = float(decay)
    if not a > 0:
        raise ConfigError("linear system needs decay > 0")
    x0 = float(xi0)

    def gamma(R: float, T: float) -> float:
        return max(abs(x0), R / a)

    return ControlAffineSystem(
        name="linear",
        drift=lambda x: -a * x,
        input_gain=lambda x: np.ones_like(x),
        h=np.array([1.0]),
        xi0=np.array([x0]),
        lipschitz={"x": a, "u": 1.0, "h": 1.0},
        output_lipschitz=lambda R: a * abs(x0) + 2.0 * R,
        gamma_bound=lambda R, T: gamma(R, T),
        params={"decay": a, "xi0": x0},
    )


def _make_tanh_affine(xi0: float = 0.0) -> ControlAffineSystem:
    x0 = float(xi0)
    return ControlAffineSystem(
        name="tanh_affine",
        drift=lambda x: -np.tanh(x),
        input_gain=lambda x: 1.0 / (1.0 + x**2),
        h=np.array([1.0]),
        xi0=np.array([x0]),
        # |d/dx 1/(1+x^2)| peaks at 3*sqrt(3)/8 < 0.65
        lipschitz={"x": 1.65, "u": 1.0, "h": 1.0},
        output_lipschitz=lambda R: 1.0 + R,
        gamma_bound=lambda R, T: abs(x0) + T * (1.0 + R),
        params={"xi0": x0},
    )


def _make_duffing(
    damping: float = 0.5, stiffness: float = 1.0, saturation: float = 1.0,
    xi0: tuple[float, float] = (0.0, 0.0),
) -> ControlAffineSystem:
    d, s, b = float(damping), float(stiffness), float(saturation)
    x0 = np.asarray(xi0, dtype=float)

    def drift(x):
        return np.array([x[1], -d * x[1] - s * x[0] - b * np.tanh(x[0]) ** 3])

    gain_column = np.array([[0.0], [1.0]])

    return ControlAffineSystem(
        name="duffing",
        drift=drift,
        input_gain=lambda x: gain_column,
        h=np.array([1.0, 0.0]),
        xi0=x0,
        # tanh(x)^3 has slope at most 2/3
        lipschitz={"x": math.sqrt(1.0 + (d + s + 2.0 * b / 3.0) ** 2), "u": 1.0, "h": 1.0},
        output_lipschitz=None,
        gamma_bound=None,
        params={"damping": d, "stiffness": s, "saturation": b,
                "xi0": [float(v) for v in x0]},
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
