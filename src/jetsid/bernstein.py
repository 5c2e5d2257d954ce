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
from typing import Callable

import numpy as np

from .errors import DomainError, ShapeError

# Endpoint forward differences amplify sample noise roughly like 2^l, so
# jet extraction is only supported up to this many samples.
MAX_WELL_CONDITIONED_K = 20

# l! for every l whose factorial is a finite double
_FACTORIALS = np.array([float(math.factorial(ell)) for ell in range(171)])


def _decasteljau(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Evaluate the Bernstein forms with coefficients `coeffs`, an
    (N, m+1) array with one polynomial per row, at x in [0,1], which
    gives an (N, x.size) array; each entry takes the same operations as
    a row evaluated alone."""
    b = np.repeat(coeffs.T[..., None], x.size, axis=-1)
    one_minus = 1.0 - x
    for _ in range(coeffs.shape[-1] - 1):
        b = b[:-1] * one_minus + b[1:] * x
    return b[0]


def _sample_rows(samples: np.ndarray, T: float) -> np.ndarray:
    """An (N, m+1) array of sample rows on the horizon T, checked for
    shape and finiteness."""
    vals = np.asarray(samples, dtype=float)
    if vals.ndim != 2 or vals.shape[1] < 2:
        raise ShapeError(f"expected an (N, m+1) array of samples, got shape {vals.shape}")
    if T is None or not (np.isfinite(T) and T > 0):
        raise DomainError(f"horizon must be positive, got {T}")
    if not np.isfinite(vals).all():
        raise DomainError("samples contain nonfinite values")
    return vals


def bernstein_eval(samples: np.ndarray, t, T: float) -> np.ndarray:
    """Degree-m Bernstein polynomials of an (N, m+1) array of samples at
    the nodes i*T/m, one signal per row, evaluated at the times t (a
    scalar or an array, all in [0, T]): an (N, len(t)) array, each row
    equal bit for bit to that row evaluated alone."""
    vals = _sample_rows(samples, T)
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if ts.size and (ts.min() < 0.0 or ts.max() > T):
        raise DomainError(f"evaluation times outside [0, {T}]")
    return _decasteljau(vals, ts / T)


def bernstein_jet(samples: np.ndarray, k: int, T: float) -> np.ndarray:
    """Jets of order k-1 at t=0 of the degree-(k-1) Bernstein polynomials.

    `samples` is an (N, k) array holding k samples per signal at the
    nodes i*T/(k-1), one signal per row; the result is the (N, k) array
    of their jets.  Entry l is (k-1)!/(k-1-l)! * T^(-l) times the l-th
    forward difference of the samples, which equals the l-th derivative
    of the Bernstein polynomial at 0; the map is linear in the samples.
    """
    if k < 2:
        raise DomainError(f"k must be >= 2, got {k}")
    vals = _sample_rows(samples, T)
    if vals.shape[1] != k:
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
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            for ell in range(k):
                if ell:
                    diff = diff[:, 1:] - diff[:, :-1]
                derivs[:, ell] = math.perm(m, ell) * diff[:, 0] / T**ell
    except (OverflowError, FloatingPointError):
        raise DomainError(f"order-{m} jet over horizon {T:.6g} leaves the float range") from None
    return derivs


def jet_poly_eval(jets: np.ndarray, t) -> np.ndarray:
    """Evaluate sum_l jets[i, l] * t^l / l!, the Taylor polynomial of
    each row of an (N, m+1) array of jets, at the times t (a scalar or
    an array): an (N, len(t)) array."""
    derivs = np.asarray(jets, dtype=float)
    if derivs.ndim != 2 or derivs.shape[1] > _FACTORIALS.size:
        raise ShapeError(f"expected an (N, m+1) array of jets with m < {_FACTORIALS.size}, "
                         f"got shape {derivs.shape}")
    return _taylor_horner(derivs, np.atleast_1d(np.asarray(t, dtype=float)))


def _taylor_horner(derivs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """`jet_poly_eval` unchecked, on a (..., m+1) array of jets and a 1-D
    array of times: a (..., len(x)) array, each jet's values equal bit for
    bit to that jet's alone."""
    # Horner in the operations and order of numpy's polyval, y = y * x + c
    coeffs = (derivs / _FACTORIALS[:derivs.shape[-1]])[..., None]
    y = coeffs[..., -1, :] + x * 0
    for ell in range(derivs.shape[-1] - 2, -1, -1):
        y *= x
        y += coeffs[..., ell, :]
    return y


def bernstein_error_bound(omega: Callable[[float], float], k: int, T: float) -> float:
    """Certified uniform error 2*omega(T/sqrt(k)) of degree-k lifting.

    omega must be a nondecreasing modulus of continuity with omega(0)=0.
    """
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    return 2.0 * omega(T / math.sqrt(k))
