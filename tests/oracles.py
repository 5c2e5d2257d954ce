"""Independent oracles used to freeze expected values in the tests.

Everything here is deliberately written from scratch (direct summation,
brute-force enumeration, its own RK4 stepper, canonical finite-difference
stencils, symbolic differentiation) so the oracles share no code path
with the package under test.  The exceptions are `bibo_gain_estimate`, the
separate-run reference for the gamma that scoring takes from the same
probes inside its one RK4 loop; `project_reference`, the projection
with an SVD of every A, which shares the package's vector norms;
`risk_and_grad` and `project_feasible`, the one-model views of the
package's stacked risk, gradient and projection kernels that the tests
call with a single weight vector or model; `sandwich_error_bound`, a
lemma bound no report states, built on the package's
`bernstein_error_bound`; and `eval_array_gathered` and
`bernstein_jet_by_diff`, the package's earlier batched input evaluation
and jet loop, kept to check their replacements bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from jetsid import simulate
from jetsid.bernstein import bernstein_error_bound
from jetsid.bounds import Modulus
from jetsid.erm import (_flatten, _project, _risk_backward, _risk_forward, _tape_row, _unflatten,
                        is_feasible)
from jetsid.errors import ConfigError, DomainError, PreconditionError
from jetsid.jets import RnnParams, _vector_norms
from jetsid.rnn import bibo_probes


def eval_closed_form(spec, t):
    """Evaluate an InputSpec's closed form at any real t (also t < 0)."""
    t = np.asarray(t, dtype=float)
    c = np.asarray(spec.coefficients)
    if spec.kind == "fourier":
        w = np.asarray(spec.frequencies)
        a = np.asarray(spec.phases)
        out = np.zeros_like(t)
        for ci, wi, ai in zip(c, w, a):
            out = out + ci * np.sin(wi * t + ai)
        return out
    out = np.zeros_like(t)
    for i, ci in enumerate(c):
        out = out + ci * t**i
    return out


def input_jet(spec, order):
    """Exact derivatives (u(0), u'(0), ..., u^(order)(0)) of an InputSpec,
    from the derivatives of its closed form."""
    if order < 0:
        raise ValueError("order must be >= 0")
    derivs = np.zeros(order + 1)
    if spec.kind == "fourier":
        c, w, a = spec.coefficients, spec.frequencies, spec.phases
        for ell in range(order + 1):
            derivs[ell] = np.sum(c * w**ell * np.sin(a + ell * math.pi / 2.0))
    else:
        c = spec.coefficients
        for ell in range(min(order, c.size - 1) + 1):
            derivs[ell] = math.factorial(ell) * c[ell]
    return derivs


def eval_array_gathered(specs, ts):
    """(N, len(ts)) values of N inputs at the times ts: inputs grouped by
    kind and term count, each group's coefficients, frequencies and phases
    gathered by three `np.array` calls, Fourier terms accumulated one by
    one, Horner (`polyval`) for polynomials, each group scattered back."""
    out = np.empty((len(specs), ts.size))
    groups = {}
    for i, spec in enumerate(specs):
        groups.setdefault((spec.kind, spec.coefficients.size), []).append(i)
    for (kind, _), rows in groups.items():
        C = np.array([specs[i].coefficients for i in rows])
        if kind == "fourier":
            W = np.array([specs[i].frequencies for i in rows])
            A = np.array([specs[i].phases for i in rows])
            values = np.zeros((len(rows), ts.size))
            for j in range(C.shape[1]):
                values += C[:, j, None] * np.sin(W[:, j, None] * ts + A[:, j, None])
        else:
            values = np.polynomial.polynomial.polyval(ts, C.T)
        out[rows] = values
    return out


def bernstein_jet_by_diff(samples, k, T):
    """Jets at t=0 of the degree-(k-1) Bernstein polynomials of an (N, k)
    array of samples, each forward difference taken by `np.diff`; a
    floating-point flag is the DomainError `bernstein_jet` raises."""
    vals = np.asarray(samples, dtype=float)
    m = k - 1
    derivs = np.empty(vals.shape)
    diff = vals
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            for ell in range(k):
                derivs[:, ell] = math.perm(m, ell) * diff[:, 0] / T**ell
                diff = np.diff(diff, axis=-1)
    except (OverflowError, FloatingPointError):
        raise DomainError(f"order-{m} jet over horizon {T:.6g} leaves the float range") from None
    return derivs


def brute_bernstein(values, T, t):
    """Direct binomial-sum evaluation of the Bernstein polynomial."""
    m = len(values) - 1
    x = t / T
    total = 0.0
    for i, v in enumerate(values):
        total += v * math.comb(m, i) * x**i * (1.0 - x) ** (m - i)
    return total


def jet_to_bernstein(derivs, T):
    """Bernstein coefficients on [0, T] of the jet's Taylor polynomial.

    With c_j = derivs[j] * T^j / j!, the Taylor polynomial in x = t/T is
    sum_j c_j x^j, and its degree-m Bernstein coefficients (m = len - 1)
    are beta_i = sum_{j<=i} C(i,j) / C(m,j) * c_j (Farouki, "The Bernstein
    polynomial basis: a centennial retrospective", CAGD 29, 2012).
    The degree-m lift of the result is the polynomial itself, not an
    approximation of it.
    """
    m = len(derivs) - 1
    c = [float(d) * T**j / math.factorial(j) for j, d in enumerate(derivs)]
    return np.array(
        [sum(math.comb(i, j) / math.comb(m, j) * c[j] for j in range(i + 1)) for i in range(m + 1)]
    )


def brute_modulus(values, T, delta):
    """O(m^2) enumeration of |u(t1)-u(t2)| over grid pairs within delta."""
    m = len(values) - 1
    h = T / m
    best = 0.0
    for i in range(m + 1):
        for j in range(i + 1, m + 1):
            if (j - i) * h <= delta * (1.0 + 1e-12):
                best = max(best, abs(values[j] - values[i]))
    return best


def rk4(rhs, x0, t0, h, nsteps):
    """Classical RK4 with fixed signed step; returns states after each step."""
    x = np.array(x0, dtype=float)
    t = t0
    out = [x.copy()]
    for _ in range(nsteps):
        k1 = rhs(t, x)
        k2 = rhs(t + h / 2.0, x + h / 2.0 * k1)
        k3 = rhs(t + h / 2.0, x + h / 2.0 * k2)
        k4 = rhs(t + h, x + h * k3)
        x = x + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
        out.append(x.copy())
    return np.array(out)


# Right-hand sides of the shipped ground truths at their default parameters,
# written out from the definitions one state at a time, so an oracle
# integrator shares no code with the systems' batched drift and gain.
GROUND_TRUTH_RHS = {
    "linear": lambda x, u: -x + u,
    "tanh_affine": lambda x, u: -np.tanh(x) + u / (1.0 + x**2),
    "duffing": lambda x, u: np.array([x[1], -0.5 * x[1] - x[0] - math.tanh(x[0]) ** 3 + u]),
}


# 4th-order-accurate central stencils, offsets -3..3, from the standard tables
_STENCILS = {
    1: (np.array([0.0, 1 / 12, -2 / 3, 0.0, 2 / 3, -1 / 12, 0.0]), 1),
    2: (np.array([0.0, -1 / 12, 4 / 3, -5 / 2, 4 / 3, -1 / 12, 0.0]), 2),
    3: (np.array([1 / 8, -1.0, 13 / 8, 0.0, -13 / 8, 1.0, -1 / 8]), 3),
    4: (np.array([-1 / 6, 2.0, -13 / 2, 28 / 3, -13 / 2, 2.0, -1 / 6]), 4),
}


def central_derivative(f_nodes, H, order):
    """Derivative at the center of 7 equispaced samples f(-3H..3H)."""
    coeffs, power = _STENCILS[order]
    return float(np.dot(coeffs, f_nodes)) / H**power


def fd_output_derivatives(params, u_func, H=0.04, substeps=64):
    """(y(0), y'(0), ..., y''''(0)) by central differences of a finely
    RK4-integrated trajectory of dx/dt = tanh(A x + b u(t)), y = c^T x.

    Integrates forward and backward from t=0 so the stencil is centered.
    """
    A, b, c, xi = params.A, params.b, params.c, params.xi

    def rhs(t, x):
        return np.tanh(A @ x + b * u_func(t))

    h = H / substeps
    fwd = rk4(rhs, xi, 0.0, h, 3 * substeps)
    bwd = rk4(rhs, xi, 0.0, -h, 3 * substeps)
    # y at offsets -3H..3H
    nodes = np.empty(7)
    for j in range(1, 4):
        nodes[3 + j] = c @ fwd[j * substeps]
        nodes[3 - j] = c @ bwd[j * substeps]
    nodes[3] = c @ xi
    derivs = [float(c @ xi)]
    for order in range(1, 5):
        derivs.append(central_derivative(nodes, H, order))
    return np.array(derivs)


def sympy_bernstein_jet(values, T):
    """Jet of the Bernstein polynomial via symbolic differentiation."""
    import sympy as sp

    t = sp.Symbol("t")
    m = len(values) - 1
    B = sum(
        sp.Float(v, 30) * sp.binomial(m, i) * (t / T) ** i * (1 - t / T) ** (m - i)
        for i, v in enumerate(values)
    )
    B = sp.expand(B)
    return np.array([float(sp.diff(B, t, ell).subs(t, 0)) for ell in range(m + 1)])


def sympy_input_derivatives(spec, order):
    """Exact input derivatives at t=0 via symbolic differentiation."""
    import sympy as sp

    t = sp.Symbol("t")
    c = spec.coefficients
    if spec.kind == "fourier":
        expr = sum(
            sp.Float(ci, 30) * sp.sin(sp.Float(wi, 30) * t + sp.Float(ai, 30))
            for ci, wi, ai in zip(c, spec.frequencies, spec.phases)
        )
    else:
        expr = sum(sp.Float(ci, 30) * t**i for i, ci in enumerate(c))
    return np.array([float(sp.diff(expr, t, ell).subs(t, 0)) for ell in range(order + 1)])


def scalar_output_jet(params, v, k):
    """Output jet of order k from one input jet `v` of order k-1: the
    per-sample Taylor-series recurrence of the tanh model, one state
    series of shape (k+1, n), kept as the reference of the batched map."""
    n = params.n
    facts = np.array([math.factorial(ell) for ell in range(k + 1)])
    u = np.zeros(k + 1)
    u[:k] = np.asarray(v, dtype=float) / facts[:k]

    X = np.zeros((k + 1, n))
    S = np.zeros((k, n))
    W = np.zeros((k, n))
    ARG = np.zeros((k, n))
    X[0] = params.xi
    for j in range(k):
        ARG[j] = params.A @ X[j] + params.b * u[j]
        if j == 0:
            S[0] = np.tanh(ARG[0])
        else:
            weights = np.arange(j, 0, -1)[:, None]
            S[j] = (W[:j] * (weights * ARG[j:0:-1])).sum(axis=0) / j
        W[j] = -(S[: j + 1] * S[j::-1]).sum(axis=0)
        if j == 0:
            W[0] += 1.0
        X[j + 1] = S[j] / (j + 1)
    y_coeffs = X @ params.c
    y_coeffs[0] = params.c @ params.xi
    return y_coeffs * facts


def taylor_value(derivs, t):
    """sum_l derivs[l] * t^l / l! by direct summation."""
    return sum(float(d) * t**ell / math.factorial(ell) for ell, d in enumerate(derivs))


def scalar_empirical_risk(params, V, Z, k, T):
    """Mean over the pairs (V[i], Z[i]) of the largest mismatch between
    the predicted and target Taylor polynomials on t_j = j*T/k, j=1..k,
    one pair at a time."""
    total = 0.0
    for v, z in zip(V, Z):
        pred = scalar_output_jet(params, v, k)
        total += max(
            abs(taylor_value(pred, j * T / k) - taylor_value(z, j * T / k)) for j in range(1, k + 1)
        )
    return total / len(V)


def difference_gradient(risk, theta, step=1e-5, central=False):
    """Gradient of `risk` at the flat weights theta by differences along
    each coordinate, with the step h = step * max(1, |theta_i|): forward
    differences (risk(theta + h e_i) - risk(theta)) / h, the gradient
    projected descent took before its exact gradient, or central ones
    (risk(theta + h e_i) - risk(theta - h e_i)) / (2 h)."""
    theta = np.asarray(theta, dtype=float)
    base = risk(theta)
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        h = step * max(1.0, abs(theta[i]))
        up, down = theta.copy(), theta.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (risk(up) - risk(down)) / (2.0 * h) if central else (risk(up) - base) / h
    return grad


def bibo_gain_estimate(system, R, probe_count, T, rng_seed, config):
    """Monte-Carlo lower estimate of the worst output sup norm over
    ||u|| <= R: the largest |y| over the outputs of `bibo_probes`,
    simulated in a run of their own."""
    probes = bibo_probes(R, probe_count, T, rng_seed)
    return float(np.abs(simulate(system, probes, T, config)).max())


def project_reference(thetas, n, M):
    """The norm-budget projection of each row of an (L, P) stack of flat
    weights (A row by row, b, c, xi), deciding every clip of A from its SVD:
    the reference for `erm._project`, which skips the SVD where the
    Frobenius norm certifies A inside the budget.  b, c and xi take the
    package's `_vector_norms`, so both sides rescale the same rows."""
    L, nn = len(thetas), n * n
    A = thetas[:, :nn].reshape(L, n, n)
    bound = M * (1.0 + 1e-12)
    clip = np.linalg.svd(A, compute_uv=False).max(axis=1) > bound
    if clip.any():
        U, s, Vt = np.linalg.svd(A[clip])
        A = A.copy()
        A[clip] = (U * np.minimum(s, M)[:, None]) @ Vt
    vecs = thetas[:, nn:].reshape(L, 3, n)
    nrm = _vector_norms(vecs)
    out = nrm > bound
    vecs = vecs.copy()
    vecs[out] *= (M / nrm[out])[:, None]
    return np.concatenate([A.reshape(L, nn), vecs.reshape(L, 3 * n)], axis=1)


def risk_and_grad(theta: np.ndarray, v: np.ndarray, z: np.ndarray, n: int, k: int,
                  T: float) -> tuple[float, np.ndarray]:
    """`empirical_risk` of the n-state model with flat weights theta =
    (A row by row, b, c, xi) on the jet pairs (v, z) of order k and
    horizon T, and its exact gradient in theta (a subgradient where a
    sample's largest mismatch is attained at more than one node), on the
    path `erm._descend` takes: a forward sweep on a stack of one, then the
    backward sweep of its tape.  No argument is checked."""
    risks, tape = _risk_forward(theta[None], v, z, n, k, T)
    return float(risks[0]), _risk_backward(_tape_row(tape, 0))


def project_feasible(params: RnnParams, M: float) -> RnnParams:
    """Euclidean projection of one model onto the norm-budget set: the
    package's `erm._project` on a stack of one.  Feasible inputs are
    returned unchanged, so the map is exactly idempotent."""
    if not M > 0:
        raise ConfigError(f"M must be positive, got {M}")
    if is_feasible(params, M):
        return params
    return _unflatten(_project(_flatten(params)[None], params.n, M)[0], params.n)


def sandwich_error_bound(
    lip: float, omega_u: Modulus, omega_gu: Modulus, k: int, T: float
) -> float:
    """Uniform error of reconstructing a Lipschitz i/o map through
    degree-(k-1) input lifting and degree-k output lifting:
    2*lip*omega_u(2T/sqrt(k)) + 2*omega_gu(T/sqrt(k))."""
    if k < 2:
        raise PreconditionError(f"k must be >= 2, got {k}")
    return 2.0 * lip * omega_u(2.0 * T / math.sqrt(k)) + bernstein_error_bound(omega_gu, k, T)
