"""Recurrent-model weights and the exact output-jet map at t=0.

The recurrent model dx/dt = tanh(A x + b u), y = c^T x maps an input
jet of order k-1 to an output jet of order k.  The map is evaluated
exactly (up to roundoff) by propagating truncated Taylor series of the
state through the integration recurrence, using the tanh derivative
identity s' = (1 - s^2) a' instead of symbolic differentiation.

Factorials up to k! are formed without an overflow guard; k <= 20 keeps
everything comfortably inside double precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError, whole_number


@dataclass(frozen=True)
class RnnParams:
    """Weights (A, b, c) and initial state xi of one recurrent model.

    Feasibility for a norm budget M (spectral norm of A and Euclidean
    norms of b, c, xi all <= M) is checked separately; the dataclass
    itself only requires finite entries of consistent shape.
    """

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    xi: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        c = np.atleast_1d(np.asarray(self.c, dtype=float))
        xi = np.atleast_1d(np.asarray(self.xi, dtype=float))
        n = A.shape[0]
        if A.shape != (n, n):
            raise ShapeError(f"A must be square, got {A.shape}")
        for name, v in (("b", b), ("c", c), ("xi", xi)):
            if v.shape != (n,):
                raise ShapeError(f"{name} must have shape ({n},), got {v.shape}")
        for name, v in (("A", A), ("b", b), ("c", c), ("xi", xi)):
            if not np.isfinite(v).all():
                raise DomainError(f"{name} contains nonfinite entries")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "xi", xi)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    def norms(self) -> dict[str, float]:
        """Spectral norm of A and Euclidean norms of b, c, xi."""
        return {
            "A": float(np.linalg.norm(self.A, 2)),
            "b": float(np.linalg.norm(self.b)),
            "c": float(np.linalg.norm(self.c)),
            "xi": float(np.linalg.norm(self.xi)),
        }

    def to_json_dict(self) -> dict:
        return {
            "A": self.A.flatten().tolist(),
            "b": self.b.tolist(),
            "c": self.c.tolist(),
            "xi": self.xi.tolist(),
            "n": self.n,
        }

    @staticmethod
    def from_json_dict(doc: dict) -> "RnnParams":
        n = whole_number("n", doc["n"])
        return RnnParams(
            A=np.asarray(doc["A"], dtype=float).reshape(n, n),
            b=np.asarray(doc["b"], dtype=float),
            c=np.asarray(doc["c"], dtype=float),
            xi=np.asarray(doc["xi"], dtype=float),
        )


def output_jet(params: RnnParams, input_jet: np.ndarray, k: int) -> np.ndarray:
    """Output jets (y(0), ..., y^(k)(0)) from input jets of order k-1:
    an (N, k) array of input jets, one per row, gives the (N, k+1) array
    of their output jets.

    The Taylor series X of the state obeys X_{j+1} = S_j / (j+1) with
    S = tanh(A X + b U) componentwise, X_0 = xi.  S follows from the
    identity s' = (1 - s^2) a' with a = A X + b U:
    S_j = (1/j) sum_{i<j} W_i (j-i) a_{j-i}, where W = 1 - S^2 as a
    series.  Each series has shape (k+1, N, n).  All jet entries are
    exact in exact arithmetic.
    """
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    V = np.asarray(input_jet, dtype=float)
    if V.ndim != 2 or V.shape[1] != k:
        raise ShapeError(f"input jets have shape {V.shape}, expected (N, {k}) (order {k - 1})")
    N, n = V.shape[0], params.n
    facts = np.array([math.factorial(ell) for ell in range(k + 1)])
    u = V.T / facts[:k, None]

    X = np.zeros((k + 1, N, n))
    S = np.zeros((k, N, n))
    W = np.zeros((k, N, n))
    ARG = np.zeros((k, N, n))
    X[0] = params.xi
    for j in range(k):
        ARG[j] = X[j] @ params.A.T + u[j][:, None] * params.b
        if j == 0:
            S[0] = np.tanh(ARG[0])
        else:
            weights = np.arange(j, 0, -1)[:, None, None]
            S[j] = (W[:j] * (weights * ARG[j:0:-1])).sum(axis=0) / j
        W[j] = -(S[: j + 1] * S[j::-1]).sum(axis=0)
        if j == 0:
            W[0] += 1.0
        X[j + 1] = S[j] / (j + 1)
    y_coeffs = X @ params.c
    # entry 0 is c.xi by definition; the direct dot keeps it bit-exact
    y_coeffs[0] = params.c @ params.xi
    return (y_coeffs * facts[:, None]).T
