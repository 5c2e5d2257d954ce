"""Continuous-time scalar signals on [0, T].

Signals live on equispaced grids (both endpoints included), random input
ensembles are drawn from parametric Fourier / polynomial families with
hard sup-norm and slope budgets, and uniform regularity is estimated
directly from samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
import numpy as np

from .bernstein import _sample_rows
from .errors import (MAX_COUNT, ConfigBlock, ConfigError, DomainError, ShapeError, real_array,
                     real_number, whole_number)

FOURIER = "fourier"
POLYNOMIAL = "polynomial"

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class InputSpec:
    """Parametric description of one input signal.

    `fourier` inputs are sums of c_i*sin(w_i*t + a_i); `polynomial` inputs
    are sums of c_i*t^i.  Frequencies and phases apply to Fourier only.
    The parameters are packed once into `packed`, a (3, m) float array
    (coefficients, frequencies, phases) or a (1, m) one (coefficients),
    whose rows the three attributes view.  Empty, multi-dimensional or
    unequal parameters are a ShapeError, a non-real entry a ConfigError
    and a nonfinite one a DomainError.
    """

    kind: str
    coefficients: np.ndarray
    frequencies: np.ndarray | None = None
    phases: np.ndarray | None = None
    packed: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind == FOURIER:
            if self.frequencies is None or self.phases is None:
                raise ConfigError("fourier input needs frequencies and phases")
            rows = (self.coefficients, self.frequencies, self.phases)
        elif self.kind == POLYNOMIAL:
            rows = (self.coefficients,)
        else:
            raise ConfigError(f"unknown input kind {self.kind!r}")
        try:
            # lists go through object arrays, so that real_array sees each entry
            packed = np.array(rows, dtype=None if set(map(type, rows)) == {np.ndarray}
                              else object)
        except ValueError:  # unequal lengths
            packed = None
        if packed is None or packed.ndim != 2 or not packed.size:
            raise ShapeError("coefficients, frequencies, phases must share length and be "
                             "nonempty 1-d arrays" if self.kind == FOURIER
                             else "coefficients must be a nonempty 1-d array")
        packed = real_array("input parameters", packed)
        object.__setattr__(self, "packed", packed)
        object.__setattr__(self, "coefficients", packed[0])
        if len(rows) == 1:
            object.__setattr__(self, "frequencies", None)
            object.__setattr__(self, "phases", None)
        else:
            object.__setattr__(self, "frequencies", packed[1])
            object.__setattr__(self, "phases", packed[2])

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "coefficients": self.coefficients.tolist(),
            "frequencies": None if self.frequencies is None else self.frequencies.tolist(),
            "phases": None if self.phases is None else self.phases.tolist(),
        }


@dataclass(frozen=True)
class EnsembleConfig(ConfigBlock):
    """Distribution of random inputs with hard amplitude/slope budgets.

    Every drawn input satisfies sum|c_i| <= R and sum|c_i w_i| <= L
    (Fourier) or sum|c_i| T^i <= R and sum i|c_i| T^(i-1) <= L
    (polynomial), so the ensemble is uniformly bounded by R and has
    modulus of continuity at most L*delta.  Coefficients are drawn
    i.i.d. uniform on [-coef_scale, coef_scale] and the whole vector is
    rescaled by the binding budget ratio when a draw violates a budget.
    """

    SECTION = "ensemble"

    kind: str
    m_terms: int
    R: float
    L: float
    horizon_T: float
    rng_seed: int
    coef_scale: float = 1.0
    freq_range: tuple[float, float] = (0.5, 3.0)
    phase_range: tuple[float, float] = (0.0, _TWO_PI)

    def __post_init__(self):
        for name, minimum, maximum in (("m_terms", 1, MAX_COUNT), ("rng_seed", 0, None)):
            object.__setattr__(self, name, whole_number(f"ensemble.{name}", getattr(self, name),
                                                        minimum, maximum))
        if self.kind not in (FOURIER, POLYNOMIAL):
            raise ConfigError(f"unknown ensemble kind {self.kind!r}")
        for name in ("R", "L", "horizon_T", "coef_scale"):
            object.__setattr__(self, name, real_number(f"ensemble.{name}", getattr(self, name), 0))
        for name in ("freq_range", "phase_range"):
            lo, hi = pair = tuple(real_number(f"ensemble.{name}", x) for x in getattr(self, name))
            if not lo <= hi:
                raise ConfigError(f"bad {name} {pair}")
            object.__setattr__(self, name, pair)

    def reseeded(self, seed: int) -> "EnsembleConfig":
        return replace(self, rng_seed=int(seed))


def _eval_array(specs: list[InputSpec], ts: np.ndarray) -> np.ndarray:
    """(N, len(ts)) values of N closed-form inputs at the times ts, one
    row per input, no domain check.

    Inputs of one kind and term count, that is of one packed shape, are
    gathered into one (G, 3, m) or (G, 1, m) array and evaluated
    together.  Each element takes the same steps as in a batch of one
    (Fourier terms accumulated one by one, Horner for polynomials), so a
    row does not depend on the batch it is in.
    """
    groups: dict[tuple[int, int], tuple[list[int], list[np.ndarray]]] = {}
    for i, spec in enumerate(specs):
        packed = spec.packed
        group = groups.get(packed.shape)
        if group is None:
            group = groups[packed.shape] = ([], [])
        group[0].append(i)
        group[1].append(packed)
    out = np.empty((len(specs), ts.size))
    for rows, params in groups.values():
        P = np.array(params)
        if P.shape[1] == 3:
            C, W, A = P[:, 0], P[:, 1], P[:, 2]
            values = np.zeros((len(rows), ts.size))
            for j in range(C.shape[1]):
                values += C[:, j, None] * np.sin(W[:, j, None] * ts + A[:, j, None])
        else:
            values = np.polynomial.polynomial.polyval(ts, P[:, 0].T)
        if len(groups) == 1:
            return values
        out[rows] = values
    return out


def _draw_spec(config: EnsembleConfig, rng: np.random.Generator) -> InputSpec:
    T = config.horizon_T
    if config.kind == FOURIER:
        c = rng.uniform(-config.coef_scale, config.coef_scale, config.m_terms)
        w = rng.uniform(config.freq_range[0], config.freq_range[1], config.m_terms)
        rest = (w, rng.uniform(config.phase_range[0], config.phase_range[1], config.m_terms))
        # np.add.reduce is .sum() without its Python wrapper
        s_amp, s_slope = np.add.reduce(np.abs(c)), np.add.reduce(np.abs(c * w))
    else:
        c = rng.uniform(-config.coef_scale, config.coef_scale, config.m_terms + 1)
        rest = ()
        degrees = np.arange(1, config.m_terms + 1)
        s_amp = np.abs(c) @ (T ** np.arange(config.m_terms + 1))
        s_slope = (degrees * np.abs(c[1:])) @ (T ** (degrees - 1))
    scale = 1.0
    if s_amp > 0:
        scale = min(scale, config.R / s_amp)
    if s_slope > 0:
        scale = min(scale, config.L / s_slope)
    return InputSpec(config.kind, c * scale, *rest)


def sample_ensemble(config: EnsembleConfig, N: int) -> list[InputSpec]:
    """Draw N i.i.d. inputs; deterministic given config.rng_seed.

    Per-sample generators are spawned from one seed sequence, so samples
    keep their identity under any parallel evaluation order.
    """
    if N < 1:
        raise ConfigError("N must be >= 1")
    children = np.random.SeedSequence(config.rng_seed).spawn(N)
    return [_draw_spec(config, np.random.default_rng(child)) for child in children]


def sample_on_grid(specs: list[InputSpec], m: int, T: float) -> np.ndarray:
    """(N, m+1) samples of N inputs at the grid points i*T/m, i = 0..m,
    one row per input."""
    if m < 1:
        raise DomainError("grid degree m must be >= 1")
    if not 0 < T < math.inf:
        raise DomainError(f"horizon must be positive, got {T}")
    ts = np.linspace(0.0, T, m + 1)
    return _eval_array(specs, ts)


def estimate_modulus(values: np.ndarray, T: float, delta: float) -> float:
    """Largest |u(t1)-u(t2)| over grid pairs with |t1-t2| <= delta, over
    every row of a (B, m+1) array of signals sampled at i*T/m: the largest
    range (max - min) of a window of the grid points that delta spans.

    A lower bound on the true common modulus of continuity; nondecreasing
    in delta, exactly 0 at delta=0.  delta above the horizon clamps to it.
    """
    if delta < 0:
        raise DomainError(f"delta must be >= 0, got {delta}")
    vals = _sample_rows(values, T)
    m = vals.shape[1] - 1
    max_lag = int(math.floor(min(delta, T) / (T / m) * (1.0 + 1e-12) + 1e-12))
    windows = np.lib.stride_tricks.sliding_window_view(vals, max_lag + 1, axis=1)
    return float(np.ptp(windows, axis=2).max())
