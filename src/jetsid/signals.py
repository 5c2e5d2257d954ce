"""Continuous-time scalar signals on [0, T].

Signals live on equispaced grids (both endpoints included), random input
ensembles are drawn from parametric Fourier / polynomial families with
hard sup-norm and slope budgets, and uniform regularity is estimated
directly from samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
import numpy as np

from .bernstein import _sample_rows
from .errors import ConfigError, DomainError, ShapeError, whole_number

FOURIER = "fourier"
POLYNOMIAL = "polynomial"

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SampledSignal:
    """Signal values on the grid 0, T/m, ..., T (m+1 equispaced points)."""

    values: np.ndarray
    horizon_T: float

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 2:
            raise ShapeError(f"signal needs >= 2 samples, got shape {vals.shape}")
        if not np.isfinite(vals).all():
            raise DomainError("signal contains nonfinite values")
        if not (np.isfinite(self.horizon_T) and self.horizon_T > 0):
            raise DomainError(f"horizon must be positive, got {self.horizon_T}")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "horizon_T", float(self.horizon_T))

    @property
    def grid(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon_T, self.values.size)

    def to_json_dict(self) -> dict:
        return {"values": self.values.tolist(), "horizon_T": self.horizon_T}

    @staticmethod
    def from_json_dict(doc: dict) -> "SampledSignal":
        return SampledSignal(np.asarray(doc["values"], dtype=float), float(doc["horizon_T"]))

    def to_csv(self, path) -> None:
        """Write `t,value` rows at full float precision."""
        grid = self.grid
        with open(path, "w") as fh:
            fh.write("t,value\n")
            for t, v in zip(grid, self.values):
                fh.write(f"{float(t)!r},{float(v)!r}\n")

    @staticmethod
    def from_csv(path) -> "SampledSignal":
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        t, v = rows[:, 0], rows[:, 1]
        return SampledSignal(v, float(t[-1]))


@dataclass(frozen=True)
class InputSpec:
    """Parametric description of one input signal.

    `fourier` inputs are sums of c_i*sin(w_i*t + a_i); `polynomial` inputs
    are sums of c_i*t^i.  Frequencies and phases apply to Fourier only.
    """

    kind: str
    coefficients: np.ndarray
    frequencies: np.ndarray | None = None
    phases: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in (FOURIER, POLYNOMIAL):
            raise ConfigError(f"unknown input kind {self.kind!r}")
        c = np.atleast_1d(np.asarray(self.coefficients, dtype=float))
        object.__setattr__(self, "coefficients", c)
        if self.kind == FOURIER:
            if self.frequencies is None or self.phases is None:
                raise ConfigError("fourier input needs frequencies and phases")
            w = np.atleast_1d(np.asarray(self.frequencies, dtype=float))
            a = np.atleast_1d(np.asarray(self.phases, dtype=float))
            if w.shape != c.shape or a.shape != c.shape:
                raise ShapeError("coefficients, frequencies, phases must share length")
            object.__setattr__(self, "frequencies", w)
            object.__setattr__(self, "phases", a)
        else:
            object.__setattr__(self, "frequencies", None)
            object.__setattr__(self, "phases", None)

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "coefficients": self.coefficients.tolist(),
            "frequencies": None if self.frequencies is None else self.frequencies.tolist(),
            "phases": None if self.phases is None else self.phases.tolist(),
        }

    @staticmethod
    def from_json_dict(doc: dict) -> "InputSpec":
        return InputSpec(
            kind=doc["kind"],
            coefficients=np.asarray(doc["coefficients"], dtype=float),
            frequencies=None if doc.get("frequencies") is None else np.asarray(doc["frequencies"], dtype=float),
            phases=None if doc.get("phases") is None else np.asarray(doc["phases"], dtype=float),
        )


@dataclass(frozen=True)
class EnsembleConfig:
    """Distribution of random inputs with hard amplitude/slope budgets.

    Every drawn input satisfies sum|c_i| <= R and sum|c_i w_i| <= L
    (Fourier) or sum|c_i| T^i <= R and sum i|c_i| T^(i-1) <= L
    (polynomial), so the ensemble is uniformly bounded by R and has
    modulus of continuity at most L*delta.  Coefficients are drawn
    i.i.d. uniform on [-coef_scale, coef_scale] and the whole vector is
    rescaled by the binding budget ratio when a draw violates a budget.
    """

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
        for name in ("m_terms", "rng_seed"):
            object.__setattr__(self, name, whole_number(f"ensemble.{name}", getattr(self, name)))
        if self.kind not in (FOURIER, POLYNOMIAL):
            raise ConfigError(f"unknown ensemble kind {self.kind!r}")
        if self.m_terms < 1:
            raise ConfigError("m_terms must be >= 1")
        for name in ("R", "L", "horizon_T", "coef_scale"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise ConfigError(f"{name} must be finite and positive, got {v}")
        lo, hi = self.freq_range
        if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
            raise ConfigError(f"bad freq_range {self.freq_range}")
        lo, hi = self.phase_range
        if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
            raise ConfigError(f"bad phase_range {self.phase_range}")

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "m_terms": self.m_terms,
            "R": self.R,
            "L": self.L,
            "horizon_T": self.horizon_T,
            "rng_seed": self.rng_seed,
            "coef_scale": self.coef_scale,
            "freq_range": list(self.freq_range),
            "phase_range": list(self.phase_range),
        }

    @staticmethod
    def from_json_dict(doc: dict) -> "EnsembleConfig":
        known = {
            "kind", "m_terms", "R", "L", "horizon_T", "rng_seed",
            "coef_scale", "freq_range", "phase_range",
        }
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown ensemble fields: {sorted(unknown)}")
        missing = {"kind", "m_terms", "R", "L", "horizon_T", "rng_seed"} - set(doc)
        if missing:
            raise ConfigError(f"missing ensemble fields: {sorted(missing)}")
        kw = dict(doc)
        if "freq_range" in kw:
            kw["freq_range"] = tuple(float(x) for x in kw["freq_range"])
        if "phase_range" in kw:
            kw["phase_range"] = tuple(float(x) for x in kw["phase_range"])
        return EnsembleConfig(**kw)

    def reseeded(self, seed: int) -> "EnsembleConfig":
        return replace(self, rng_seed=int(seed))


def _eval_array(spec: InputSpec, ts: np.ndarray) -> np.ndarray:
    """Evaluate the closed-form input at arbitrary times, no domain check.

    Accumulates term by term so scalar and batched evaluations agree
    bitwise (grid sampling then pointwise re-evaluation round-trips).
    """
    ts = np.asarray(ts, dtype=float)
    if spec.kind == FOURIER:
        out = np.zeros_like(ts)
        for c, w, a in zip(spec.coefficients, spec.frequencies, spec.phases):
            out += c * np.sin(w * ts + a)
        return out
    return np.polynomial.polynomial.polyval(ts, spec.coefficients)


def eval_input(spec: InputSpec, t: float, horizon_T: float) -> float:
    """Value of the input at one time in [0, horizon_T]."""
    if not 0.0 <= t <= horizon_T:
        raise DomainError(f"t={t} outside [0, {horizon_T}]")
    return float(_eval_array(spec, np.asarray([t]))[0])


def input_jet(spec: InputSpec, order: int) -> np.ndarray:
    """Exact derivatives (u(0), u'(0), ..., u^(order)(0)) of the input."""
    if order < 0:
        raise DomainError("order must be >= 0")
    derivs = np.zeros(order + 1)
    if spec.kind == FOURIER:
        c, w, a = spec.coefficients, spec.frequencies, spec.phases
        for ell in range(order + 1):
            derivs[ell] = np.sum(c * w**ell * np.sin(a + ell * math.pi / 2.0))
    else:
        c = spec.coefficients
        for ell in range(min(order, c.size - 1) + 1):
            derivs[ell] = math.factorial(ell) * c[ell]
    return derivs


def _draw_spec(config: EnsembleConfig, rng: np.random.Generator) -> InputSpec:
    T = config.horizon_T
    if config.kind == FOURIER:
        c = rng.uniform(-config.coef_scale, config.coef_scale, config.m_terms)
        w = rng.uniform(config.freq_range[0], config.freq_range[1], config.m_terms)
        a = rng.uniform(config.phase_range[0], config.phase_range[1], config.m_terms)
        s_amp = np.abs(c).sum()
        s_slope = np.abs(c * w).sum()
        scale = 1.0
        if s_amp > 0:
            scale = min(scale, config.R / s_amp)
        if s_slope > 0:
            scale = min(scale, config.L / s_slope)
        return InputSpec(FOURIER, c * scale, w, a)
    c = rng.uniform(-config.coef_scale, config.coef_scale, config.m_terms + 1)
    powers = T ** np.arange(config.m_terms + 1)
    s_amp = np.abs(c) @ powers
    degrees = np.arange(1, config.m_terms + 1)
    s_slope = (degrees * np.abs(c[1:])) @ (T ** (degrees - 1))
    scale = 1.0
    if s_amp > 0:
        scale = min(scale, config.R / s_amp)
    if s_slope > 0:
        scale = min(scale, config.L / s_slope)
    return InputSpec(POLYNOMIAL, c * scale)


def sample_ensemble(config: EnsembleConfig, N: int) -> list[InputSpec]:
    """Draw N i.i.d. inputs; deterministic given config.rng_seed.

    Per-sample generators are spawned from one seed sequence, so samples
    keep their identity under any parallel evaluation order.
    """
    if N < 1:
        raise ConfigError("N must be >= 1")
    children = np.random.SeedSequence(config.rng_seed).spawn(N)
    return [_draw_spec(config, np.random.default_rng(child)) for child in children]


def sample_on_grid(spec: InputSpec, m: int, T: float) -> SampledSignal:
    """Sample the input at the m+1 grid points i*T/m, i = 0..m."""
    if m < 1:
        raise DomainError("grid degree m must be >= 1")
    ts = np.linspace(0.0, T, m + 1)
    return SampledSignal(_eval_array(spec, ts), T)


def estimate_modulus(values: np.ndarray, T: float, delta: float) -> float:
    """Largest |u(t1)-u(t2)| over grid pairs with |t1-t2| <= delta, over
    every row of a (B, m+1) array of signals sampled at i*T/m.

    A lower bound on the true common modulus of continuity; nondecreasing
    in delta, exactly 0 at delta=0.  delta above the horizon clamps to it.
    """
    if delta < 0:
        raise DomainError(f"delta must be >= 0, got {delta}")
    vals = _sample_rows(values, T)
    if delta == 0:
        return 0.0
    delta = min(delta, T)
    m = vals.shape[1] - 1
    h = T / m
    max_lag = int(math.floor(delta / h * (1.0 + 1e-12) + 1e-12))
    best = 0.0
    for lag in range(1, max_lag + 1):
        best = max(best, float(np.abs(vals[:, lag:] - vals[:, :-lag]).max()))
    return best


def sup_distance(a: SampledSignal, b: SampledSignal) -> float:
    """Max pointwise distance between two signals on identical grids."""
    if a.values.size != b.values.size or a.horizon_T != b.horizon_T:
        raise ShapeError(
            f"grid mismatch: {a.values.size} pts on [0,{a.horizon_T}] vs "
            f"{b.values.size} pts on [0,{b.horizon_T}]"
        )
    return float(np.abs(a.values - b.values).max())
