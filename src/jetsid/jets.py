"""Recurrent-model weights and the exact output-jet map at t=0.

The recurrent model dx/dt = tanh(A x + b u), y = c^T x maps an input
jet of order k-1 to an output jet of order k.  The map is evaluated
exactly (up to roundoff) by propagating truncated Taylor series of the
state through the integration recurrence, using the tanh derivative
identity s' = (1 - s^2) a' instead of symbolic differentiation.

Factorials up to k! are read from the table of `jet_poly_eval`, exact
floats up to 22!; k <= 20 keeps everything comfortably inside double
precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bernstein import _FACTORIALS
from .errors import DomainError, ShapeError, real_array, whole_number


@dataclass(frozen=True)
class RnnParams:
    """Weights (A, b, c) and initial state xi of one recurrent model.

    Feasibility for a norm budget M (spectral norm of A and Euclidean
    norms of b, c, xi all <= M) is checked separately; the dataclass
    itself only requires n >= 1 and finite real entries of matching shape.
    """

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    xi: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(real_array("A", self.A))
        n = A.shape[0]
        if n < 1 or A.shape != (n, n):
            raise ShapeError(f"A must be square with at least one row, got {A.shape}")
        object.__setattr__(self, "A", A)
        for name in ("b", "c", "xi"):
            v = np.atleast_1d(real_array(name, getattr(self, name)))
            if v.shape != (n,):
                raise ShapeError(f"{name} must have shape ({n},), got {v.shape}")
            object.__setattr__(self, name, v)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    def norms(self) -> dict[str, float]:
        """Spectral norm of A and Euclidean norms of b, c, xi."""
        b, c, xi = _vector_norms(np.stack([self.b, self.c, self.xi])).tolist()
        return {"A": float(np.linalg.norm(self.A, 2)), "b": b, "c": c, "xi": xi}

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
        return RnnParams(real_array("A", doc["A"]).reshape(n, n), doc["b"], doc["c"], doc["xi"])


_TINY = np.finfo(float).tiny


def _vector_norms(vecs: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of an (..., n) array, each sqrt(v @ v)
    from a (1, n) @ (n, 1) product, which matches v @ v bit for bit; where
    v @ v overflows, or falls below the normal range (to 0 or a subnormal)
    while some entry is nonzero, m |v / m| with m the largest |entry|."""
    with np.errstate(over="ignore"):
        sq = (vecs[..., None, :] @ vecs[..., None])[..., 0, 0]
    nrm = np.sqrt(sq)
    odd = np.isinf(sq) | (sq < _TINY)
    if odd.any():
        odd[odd] = vecs[odd].any(axis=-1)  # a zero row's norm 0 is exact
        top = np.abs(vecs[odd]).max(axis=-1)
        unit = vecs[odd] / top[:, None]
        nrm[odd] = top * np.sqrt((unit[:, None, :] @ unit[..., None])[:, 0, 0])
    return nrm


@np.errstate(over="ignore", invalid="ignore")
def output_jet(params: RnnParams, input_jet: np.ndarray, k: int) -> np.ndarray:
    """Output jets (y(0), ..., y^(k)(0)) from input jets of order k-1:
    an (N, k) array of input jets, one per row, gives the (N, k+1) array
    of their output jets.

    The Taylor series X of the state obeys X_{j+1} = S_j / (j+1) with
    S = tanh(A X + b U) componentwise, X_0 = xi.  S follows from the
    identity s' = (1 - s^2) a' with a = A X + b U:
    S_j = (1/j) sum_{i<j} W_i (j-i) a_{j-i}, where W = 1 - S^2 as a
    series.  Each series has shape (k+1, N, n).  All jet entries are
    exact in exact arithmetic; jets out of the float range are a DomainError.
    """
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    V = np.asarray(input_jet, dtype=float)
    if V.ndim != 2 or V.shape[1] != k:
        raise ShapeError(f"input jets have shape {V.shape}, expected (N, {k}) (order {k - 1})")
    jets = _jet_and_series(*(p[None] for p in (params.A, params.b, params.c, params.xi)), V)[0][0]
    if not np.isfinite(jets).all():
        raise DomainError("the output jets of these input jets leave the float range")
    return jets


def _jet_and_series(A: np.ndarray, b: np.ndarray, c: np.ndarray, xi: np.ndarray,
                    V: np.ndarray) -> tuple[np.ndarray, tuple]:
    """The output jets of the (N, k) input jets V under each of L weight
    sets, stacked as A (L, n, n) and b, c, xi (L, n): an (L, N, k+1)
    array, unchecked, and the series (u, X, ARG, S, W) of the recurrence
    behind them.  u holds the input's Taylor coefficients, shape (k, N),
    and X, ARG, S, W the states', shapes (k+1, L, N, n), (k, L, N, n),
    (k, L, N, n), (k, L, N, n).  Each weight set's jets and series equal
    bit for bit those it gives in a stack of one: its block of X is
    contiguous, as the backward's reshapes need, and each Cauchy product
    is an einsum that sums its products in order at every shape."""
    (N, k), (L, n) = V.shape, b.shape
    facts = _FACTORIALS[:k + 1]
    u = V.T / facts[:k, None]

    X = np.empty((L, k + 1, N, n)).transpose(1, 0, 2, 3)
    # jARG[i] = i * ARG[i] for i >= 1, so that each term of S_j is one product
    S, W, ARG, jARG = np.empty((4, k, L, N, n))
    X[0] = xi[:, None]
    At, b = A.transpose(0, 2, 1), b[:, None]
    for j in range(k):
        # one (N, n) @ (n, n) product per weight set, as in a stack of one
        ARG[j] = X[j] @ At + u[j][:, None] * b
        if j == 0:
            S[0] = np.tanh(ARG[0])
            W[0] = 1.0 - S[0] * S[0]
        else:
            jARG[j] = j * ARG[j]
            S[j] = np.einsum("i...,i...->...", W[:j], jARG[j:0:-1]) / j
            W[j] = -np.einsum("i...,i...->...", S[: j + 1], S[j::-1])
        X[j + 1] = S[j] / (j + 1)
    y_coeffs = (X @ c[:, :, None])[..., 0]
    # entry 0 is c.xi by definition; the direct dot keeps it bit-exact
    y_coeffs[0] = (c[:, None, :] @ xi[:, :, None])[:, 0]
    return (y_coeffs * facts[:, None, None]).transpose(1, 2, 0), (u, X, ARG, S, W)
