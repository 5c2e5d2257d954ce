"""Closed-form risk and generalization bound calculators.

Every calculator reports its additive terms separately so reports and
property tests can check each one.  Capacity terms use natural log for
log N and base-2 log for log2 k; the absolute constant in the
estimation term is not pinned down by the underlying analysis and is
exposed as c_abs (default 1.0), printed in every report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass
from functools import cache
from typing import Callable, NamedTuple, Sequence, get_type_hints

import numpy as np

from .bernstein import bernstein_error_bound, bernstein_eval, jet_poly_eval
from .erm import _snap_grid, input_jets
from .errors import ConfigError, DomainError, PreconditionError
from .jets import RnnParams, output_jet
from .rnn import SimConfig, System, _exp_growth, io_lipschitz_bound, simulate_runs
from .signals import InputSpec, estimate_modulus

Modulus = Callable[[float], float]


def linear_modulus(slope: float) -> Modulus:
    """Modulus handle delta -> slope * delta."""
    return lambda delta: slope * delta


def empirical_modulus(values: np.ndarray, T: float) -> Modulus:
    """Envelope of grid-estimated moduli over a (B, m+1) array of signals
    sampled on [0, T], one per row.

    A lower envelope of the true common modulus; reports must flag it
    as empirical.  Each delta is estimated once: the fixed-model and ERM
    bounds both read omega_Y(T / sqrt(k)).
    """
    return cache(lambda delta: 0.0 if delta <= 0 else estimate_modulus(values, T, delta))


def _check_finite(terms, what: str) -> None:
    """DomainError naming the first float term of the bound `terms` that
    overflowed a float (or is NaN), so no certificate is infinite."""
    for f in fields(terms):
        value = getattr(terms, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise DomainError(f"{what} term {f.name} overflows a float: {value}")


@dataclass(frozen=True)
class FixedModelBound:
    """Risk bound terms for one fixed model against an unknown system."""

    output_modulus_term: float
    input_modulus_term: float
    jet_truncation_term: float
    bernstein_gap_term: float
    total: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "total", self.output_modulus_term + self.input_modulus_term
                           + self.jet_truncation_term + self.bernstein_gap_term)
        _check_finite(self, "fixed-model bound")


@dataclass(frozen=True)
class ErmRiskBound:
    """High-probability risk bound terms for the trained minimizer."""

    output_modulus_term: float
    input_modulus_term: float
    jet_truncation_term: float
    approximation_error: float
    estimation_error: float
    total: float = field(init=False)
    sample_size_ok: bool
    sample_size_threshold: int
    sample_size_waived: bool

    def __post_init__(self):
        object.__setattr__(self, "total", self.output_modulus_term + self.input_modulus_term
                           + self.jet_truncation_term + self.approximation_error
                           + self.estimation_error)
        _check_finite(self, "ERM bound")


def fixed_model_risk_bound(
    omega_Y: Modulus,
    omega_U: Modulus,
    params: RnnParams,
    k: int,
    T: float,
    bernstein_gap_expectation: float,
) -> FixedModelBound:
    """Expected sup-norm risk bound for a fixed model.

    2*omega_Y(T/sqrt(k)) + 2|c||b| e^(||A||T) omega_U(2T/sqrt(k))
    + |c| T e^(||A||T) sqrt(n/k) + expected Bernstein gap.
    """
    if k < 2:
        raise PreconditionError(f"k must be >= 2, got {k}")
    if bernstein_gap_expectation < 0:
        raise PreconditionError("gap expectation must be >= 0")
    nrm = params.norms()
    growth = _exp_growth(nrm["A"], T, "fixed-model bound e^(||A|| T)")
    return FixedModelBound(
        output_modulus_term=bernstein_error_bound(omega_Y, k, T),
        input_modulus_term=2.0 * io_lipschitz_bound(params, T) * omega_U(2.0 * T / math.sqrt(k)),
        jet_truncation_term=nrm["c"] * T * growth * math.sqrt(params.n / k),
        bernstein_gap_term=bernstein_gap_expectation,
    )


def erm_risk_bound(
    M: float,
    n: int,
    k: int,
    T: float,
    N: int,
    delta: float,
    gamma_R: float,
    Lbar_star_estimate: float,
    c_abs: float,
    omega_Y: Modulus,
    omega_U: Modulus,
    waive_sample_size: bool = False,
) -> ErmRiskBound:
    """High-probability risk bound for the empirical risk minimizer.

    4*omega_Y(T/sqrt(k)) + 2M^2 e^(MT) omega_U(2T/sqrt(k))
    + 3MT e^(MT) sqrt(n/k) + Lbar* +
    c_abs*(M(M+sqrt(n)T)+gamma)*sqrt((k(n^6+n^3 log2 k) ln N + ln(1/delta))/N).

    Requires the sample-size condition unless explicitly waived (the
    waiver is recorded in the returned terms).
    """
    if not 0.0 < delta < 1.0:
        raise PreconditionError(f"delta must lie in (0, 1), got {delta}")
    if N < 1:
        raise PreconditionError(f"N must be >= 1, got {N}")
    ok, threshold = sample_size_check(N, n, k)
    if not ok and not waive_sample_size:
        raise PreconditionError(
            f"sample size N={N} below required threshold {threshold} "
            f"(k(6n^6 + 10n^3 log2 k) with n={n}, k={k})"
        )
    growth = _exp_growth(M, T, "ERM bound e^(M T)")
    try:
        input_modulus = 2.0 * M**2 * growth * omega_U(2.0 * T / math.sqrt(k))
    except OverflowError:  # M**2 raises where a product would give inf
        input_modulus = math.inf
    capacity = k * (n**6 + n**3 * math.log2(k))
    estimation = c_abs * range_bound(M, n, T, gamma_R) * math.sqrt(
        (capacity * math.log(N) + math.log(1.0 / delta)) / N)
    return ErmRiskBound(
        output_modulus_term=2.0 * bernstein_error_bound(omega_Y, k, T),
        input_modulus_term=input_modulus,
        jet_truncation_term=3.0 * M * T * growth * math.sqrt(n / k),
        approximation_error=Lbar_star_estimate,
        estimation_error=estimation,
        sample_size_ok=ok,
        sample_size_threshold=threshold,
        sample_size_waived=bool(not ok and waive_sample_size),
    )


def range_bound(M: float, n: int, T: float, gamma: float) -> float:
    """Range bound M(M + sqrt(n) T) + gamma of the loss over the model class."""
    return M * (M + math.sqrt(n) * T) + gamma


def vc_dimension_bound(n: int, k: int) -> int:
    """Capacity bound 2k(3n^6 + 5n^3 log2 k), rounded up."""
    if n < 1 or k < 1:
        raise DomainError("n and k must be >= 1")
    return math.ceil(2.0 * k * (3.0 * n**6 + 5.0 * n**3 * math.log2(k)))


class SampleSizeCheck(NamedTuple):
    ok: bool
    threshold: int


def sample_size_check(N: int, n: int, k: int) -> SampleSizeCheck:
    """Whether N reaches the capacity bound `vc_dimension_bound(n, k)`,
    k(6 n^6 + 10 n^3 log2 k), and that threshold."""
    if n < 1 or k < 1:
        raise ConfigError("n and k must be >= 1")
    threshold = vc_dimension_bound(n, k)
    return SampleSizeCheck(N >= threshold, threshold)


def rademacher_bound(B: float, vc: int, N: int, c_abs: float = 1.0) -> float:
    """Rademacher average bound c_abs * B * sqrt(vc * ln N / N)."""
    if B < 0:
        raise DomainError(f"range bound B must be >= 0, got {B}")
    if N < vc:
        raise PreconditionError(f"requires N >= vc, got N={N} < vc={vc}")
    return c_abs * B * math.sqrt(vc * math.log(N) / N)


class ProbeRuns(NamedTuple):
    """Per-probe risks and gaps, and the ground-truth outputs on the dense
    grid: a (P + G, grid) array, the P probes' rows, then the G gain
    probes'."""

    risks: np.ndarray
    gaps: np.ndarray
    truth: np.ndarray


def probe_risk_and_gap(
    params: RnnParams,
    ground_truth: System,
    specs: Sequence[InputSpec],
    k: int,
    T: float,
    sim: SimConfig = SimConfig(),
    gain_probes: Sequence[InputSpec] = (),
) -> ProbeRuns:
    """Per-probe sup-norm risks and polynomial-reconstruction gaps.

    The risk compares the simulated model and ground-truth outputs on a
    dense grid; the gap compares the model's predicted degree-k output
    polynomial with the degree-k lift of the true output on the same
    grid, `sim`'s grid snapped to k*round((grid_size-1)/k)+1 points so
    the lift's nodes are grid points.  `gain_probes` ride in
    the ground-truth batch only; their outputs follow the probes' in
    `truth`.  The ground truth and the model step together in one
    `simulate_runs` loop.
    """
    dense, per_node = _snap_grid(sim, k)
    ts = np.linspace(0.0, T, dense.grid_size)

    specs = list(specs)
    P = len(specs)
    predicted = jet_poly_eval(output_jet(params, input_jets(specs, k, T), k), ts)
    y_true, y_model = simulate_runs([(ground_truth, specs + list(gain_probes)), (params, specs)],
                                    T, dense)
    risks = np.abs(y_model - y_true[:P]).max(axis=1)
    gaps = np.abs(predicted - bernstein_eval(y_true[:P, ::per_node], ts, T)).max(axis=1)
    return ProbeRuns(risks, gaps, y_true)


@dataclass(frozen=True)
class BoundReport:
    """Everything the calculators can say about one experiment.  Its JSON
    form is `dataclasses.asdict` of it, and its CSV row `to_flat_dict`,
    whose columns `flat_keys` names without a report."""

    fixed_model: FixedModelBound
    erm: ErmRiskBound
    vc_bound: int = field(init=False)
    rademacher_bound: float | None
    c_abs: float
    gamma: float
    gamma_is_estimate: bool = field(init=False)
    gamma_probe_count: int | None
    moduli_source: str
    sample_size_ok: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "vc_bound", self.erm.sample_size_threshold)
        object.__setattr__(self, "gamma_is_estimate", self.gamma_probe_count is not None)
        object.__setattr__(self, "sample_size_ok", self.erm.sample_size_ok)

    @classmethod
    def flat_keys(cls) -> list[str]:
        """The CSV columns: each field in order, a bound's terms as
        `<field>.<term>`."""
        hints = get_type_hints(cls)
        keys: list[str] = []
        for f in fields(cls):
            block = hints[f.name]
            if is_dataclass(block):
                keys += [f"{f.name}.{term.name}" for term in fields(block)]
            else:
                keys.append(f.name)
        return keys

    def to_flat_dict(self) -> dict:
        """One-row view for CSV aggregation, keyed by `flat_keys`."""
        flat: dict = {}
        for key in self.flat_keys():
            name, _, term = key.partition(".")
            value = getattr(self, name)
            flat[key] = getattr(value, term) if term else value
        return flat
