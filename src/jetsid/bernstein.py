"""Bernstein polynomial lifting of sampled signals.

A signal sampled at the m+1 points i*T/m defines the degree-m Bernstein
polynomial.  This module evaluates it stably (de Casteljau recursion),
extracts its jet at t=0 via exact endpoint forward differences, rebuilds
polynomial signals from jets, and certifies the uniform approximation
error from a modulus of continuity.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import DomainError, ShapeError

if TYPE_CHECKING:
    from .signals import SampledSignal

# Endpoint forward differences amplify sample noise roughly like 2^l, so
# jet extraction is only supported up to this many samples.
MAX_WELL_CONDITIONED_K = 20


@dataclass(frozen=True)
class JetVector:
    """Derivative values (f(0), f'(0), ..., f^(m)(0)) at t=0."""

    derivs: np.ndarray

    def __post_init__(self):
        d = np.atleast_1d(np.asarray(self.derivs, dtype=float))
        if d.ndim != 1 or d.size < 1:
            raise ShapeError(f"jet needs a 1-d derivative vector, got shape {d.shape}")
        if not np.isfinite(d).all():
            raise DomainError("jet contains nonfinite entries")
        object.__setattr__(self, "derivs", d)

    @property
    def order(self) -> int:
        return self.derivs.size - 1

    def to_json_dict(self) -> dict:
        return {"order": self.order, "derivs": self.derivs.tolist()}

    @staticmethod
    def from_json_dict(doc: dict) -> "JetVector":
        jet = JetVector(np.asarray(doc["derivs"], dtype=float))
        if jet.order != int(doc["order"]):
            raise ShapeError(f"order field {doc['order']} != {jet.order} derivatives")
        return jet


def _decasteljau(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Evaluate the Bernstein form with coefficients `coeffs` at x in [0,1].

    `coeffs` is one coefficient vector, or an (N, m+1) array with one
    polynomial per row, which gives an (N, x.size) array; each entry
    takes the same operations as a row evaluated alone.
    """
    b = np.repeat(np.moveaxis(coeffs, -1, 0)[..., None], x.size, axis=-1)
    one_minus = 1.0 - x
    for _ in range(coeffs.shape[-1] - 1):
        b = b[:-1] * one_minus + b[1:] * x
    return b[0]


def _sample_rows(signal: "SampledSignal | np.ndarray", T: float | None):
    """Samples and horizon of one SampledSignal, or of an (N, m+1) array
    of sample rows, checked for shape and finiteness, on the horizon T."""
    if not isinstance(signal, np.ndarray):
        return signal.values, signal.horizon_T
    vals = np.asarray(signal, dtype=float)
    if vals.ndim != 2 or vals.shape[1] < 2:
        raise ShapeError(f"expected an (N, m+1) array of samples, got shape {vals.shape}")
    if T is None or not (np.isfinite(T) and T > 0):
        raise DomainError(f"horizon must be positive, got {T}")
    if not np.isfinite(vals).all():
        raise DomainError("samples contain nonfinite values")
    return vals, T


def bernstein_eval(signal: "SampledSignal | np.ndarray", t, T: float | None = None):
    """Degree-m Bernstein polynomial of the signal, evaluated at t.

    `signal` is one SampledSignal, or an (N, m+1) array of samples at
    the nodes i*T/m, one signal per row, on the horizon `T`, which gives
    an (N, len(t)) array equal bit for bit to the rows evaluated one at
    a time.  Accepts a scalar or an array of times, all in [0, T].
    """
    vals, T = _sample_rows(signal, T)
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if ts.size and (ts.min() < 0.0 or ts.max() > T):
        raise DomainError(f"evaluation times outside [0, {T}]")
    out = _decasteljau(vals, ts / T)
    return float(out[0]) if vals.ndim == 1 and np.ndim(t) == 0 else out


def bernstein_jet(signal: "SampledSignal | np.ndarray", k: int, T: float | None = None):
    """Jet of order k-1 at t=0 of the degree-(k-1) Bernstein polynomial.

    `signal` is one SampledSignal holding exactly k samples at the nodes
    i*T/(k-1), which gives a JetVector, or an (N, k) array of such
    samples, one signal per row, on the horizon `T`, which gives the
    (N, k) array of their jets.  Entry l is (k-1)!/(k-1-l)! * T^(-l)
    times the l-th forward difference of the samples, which equals the
    l-th derivative of the Bernstein polynomial at 0; the map is linear
    in the samples.
    """
    if k < 2:
        raise DomainError(f"k must be >= 2, got {k}")
    vals, T = _sample_rows(signal, T)
    if vals.shape[-1] != k:
        raise ShapeError(f"expected {k} samples per signal, got shape {vals.shape}")
    if k > MAX_WELL_CONDITIONED_K:
        warnings.warn(
            f"jet extraction from {k} samples amplifies noise by ~2^{k-1}; "
            f"results beyond k={MAX_WELL_CONDITIONED_K} are ill-conditioned",
            RuntimeWarning,
            stacklevel=2,
        )
    m = k - 1
    derivs = np.empty(vals.shape)
    diff = vals
    for ell in range(k):
        derivs[..., ell] = math.perm(m, ell) * diff[..., 0] / T**ell
        diff = np.diff(diff, axis=-1)
    return derivs if vals.ndim == 2 else JetVector(derivs)


def jet_poly_eval(jet, t):
    """Evaluate sum_l derivs[l] * t^l / l!, the jet's Taylor polynomial.

    `jet` is one JetVector, or an (N, m+1) array holding one jet per
    row, which gives one row of values per jet.  Accepts a scalar or an
    array of times.
    """
    derivs = jet.derivs if isinstance(jet, JetVector) else np.asarray(jet, dtype=float)
    factorials = np.array([math.factorial(ell) for ell in range(derivs.shape[-1])])
    coeffs = (derivs / factorials).T
    out = np.polynomial.polynomial.polyval(np.asarray(t, dtype=float), coeffs)
    return float(out) if np.ndim(out) == 0 else out


def bernstein_error_bound(omega: Callable[[float], float], k: int, T: float) -> float:
    """Certified uniform error 2*omega(T/sqrt(k)) of degree-k lifting.

    omega must be a nondecreasing modulus of continuity with omega(0)=0.
    """
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    return 2.0 * omega(T / math.sqrt(k))
