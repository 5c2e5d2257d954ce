import math

import numpy as np
import pytest

from jetsid import (
    DomainError,
    ShapeError,
    bernstein_error_bound,
    bernstein_eval,
    bernstein_jet,
    jet_poly_eval,
    sample_on_grid,
)
from jetsid.signals import InputSpec

from oracles import bernstein_jet_by_diff, brute_bernstein, sympy_bernstein_jet


def grid_signal(func, m, T=1.0):
    """`func` sampled at the m+1 grid points i*T/m."""
    return np.array([func(t) for t in np.linspace(0.0, T, m + 1)])


def lift_at(values, t, T=1.0):
    """The lift of one row of samples at one time: a batch of one at one time."""
    return bernstein_eval(np.asarray(values, dtype=float)[None], t, T)[0, 0]


def jet_of(values, k, T=1.0):
    """The jet of one row of samples' lift: a batch of one."""
    return bernstein_jet(np.asarray(values, dtype=float)[None], k, T)[0]


class TestBernsteinEval:
    def test_partition_of_unity(self):
        sig = np.full(8, 5.0)
        for t in (0.0, 0.123, 0.9, 1.0):
            assert lift_at(sig, t) == pytest.approx(5.0, abs=1e-13)

    def test_reproduces_affine(self):
        sig = grid_signal(lambda t: t, 2)
        assert lift_at(sig, 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_quadratic_shrinks(self):
        # B_2 of t^2 at 0.5 is 0.375 by direct summation
        sig = grid_signal(lambda t: t * t, 2)
        assert lift_at(sig, 0.5) == pytest.approx(0.375, abs=1e-15)
        assert brute_bernstein(sig, 1.0, 0.5) == pytest.approx(0.375, abs=1e-15)

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(2)
        for m in (3, 7, 15):
            sig = rng.uniform(-1, 1, m + 1)
            for t in np.linspace(0.0, 2.0, 17):
                assert lift_at(sig, t, 2.0) == pytest.approx(
                    brute_bernstein(sig, 2.0, t), abs=1e-12
                )

    def test_endpoint_interpolation(self):
        rng = np.random.default_rng(3)
        sig = rng.uniform(-1, 1, 9)
        assert lift_at(sig, 0.0, 1.5) == sig[0]
        assert lift_at(sig, 1.5, 1.5) == pytest.approx(sig[-1], abs=1e-15)

    def test_domain_error(self):
        nodes = np.array([[0.0, 1.0]])
        with pytest.raises(DomainError):
            bernstein_eval(nodes, 1.5, 1.0)
        with pytest.raises(DomainError):
            bernstein_eval(nodes, np.array([0.5, -0.1]), 1.0)

    @pytest.mark.parametrize("k", [2, 3, 4, 8, 12])
    def test_batched_matches_rows(self, k):
        # the k+1 node values of P degree-k lifts, as the probe gaps use
        # them: one de Casteljau pass over the rows equals each row alone
        rng = np.random.default_rng(70 + k)
        for T in (1.0, 2.5):
            nodes = rng.uniform(-2, 2, (16, k + 1))
            ts = np.linspace(0.0, T, 8 * k + 1)
            rows = np.array([bernstein_eval(r[None], ts, T)[0] for r in nodes])
            assert np.array_equal(bernstein_eval(nodes, ts, T), rows)
            assert bernstein_eval(nodes, T / 3, T).shape == (16, 1)

    def test_batched_errors(self):
        for bad in (np.zeros(4), np.zeros((2, 1)), np.zeros((2, 4, 1))):
            with pytest.raises(ShapeError):
                bernstein_eval(bad, 0.5, 1.0)
        for T in (None, 0.0, -1.0, np.inf):
            with pytest.raises(DomainError):
                bernstein_eval(np.zeros((2, 4)), 0.0, T)
        with pytest.raises(TypeError):
            bernstein_eval(np.zeros((2, 4)), 0.0)
        with pytest.raises(DomainError):
            bernstein_eval(np.array([[0.0, np.nan, 1.0]]), 0.5, 1.0)
        with pytest.raises(DomainError):
            bernstein_eval(np.zeros((2, 4)), 1.5, 1.0)


class TestBernsteinJet:
    def test_constant(self):
        jet = jet_of([2.5, 2.5, 2.5], 3)
        assert jet == pytest.approx([2.5, 0.0, 0.0], abs=1e-15)

    def test_affine(self):
        jet = jet_of([0.0, 1.0, 2.0], 3)
        assert jet == pytest.approx([0.0, 2.0, 0.0], abs=1e-14)

    def test_quadratic(self):
        # derivatives of the degree-2 lift of t^2 are (0, 1/2, 1),
        # checked against symbolic differentiation
        sig = grid_signal(lambda t: t * t, 2)
        jet = jet_of(sig, 3)
        assert jet == pytest.approx([0.0, 0.5, 1.0], abs=1e-14)
        assert jet == pytest.approx(sympy_bernstein_jet(sig, 1.0), abs=1e-12)

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_matches_symbolic_differentiation(self, k):
        # validation of the forward-difference formula for k <= 6
        rng = np.random.default_rng(k)
        for T in (1.0, 2.5):
            sig = rng.uniform(-2, 2, k)
            expected = sympy_bernstein_jet(sig, T)
            assert jet_of(sig, k, T) == pytest.approx(expected, rel=1e-9, abs=1e-9)

    def test_linearity(self):
        rng = np.random.default_rng(8)
        k = 6
        u = rng.uniform(-1, 1, k)
        v = rng.uniform(-1, 1, k)
        combo = 2.0 * u - 3.0 * v
        expected = 2.0 * jet_of(u, k) - 3.0 * jet_of(v, k)
        assert jet_of(combo, k) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("k", [2, 3, 4, 8, 12])
    def test_batched_matches_rows(self, k):
        # same forward differences on each row: equal bit for bit
        rng = np.random.default_rng(50 + k)
        for T in (1.0, 2.5):
            samples = rng.uniform(-2, 2, (16, k))
            rows = np.array([bernstein_jet(r[None], k, T)[0] for r in samples])
            assert np.array_equal(bernstein_jet(samples, k, T), rows)

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            bernstein_jet(np.array([[0.0, 1.0, 2.0]]), 4, 1.0)
        with pytest.raises(DomainError):
            bernstein_jet(np.array([[0.0, 1.0]]), 1, 1.0)
        for bad in (np.zeros((2, 3)), np.zeros(4), np.zeros((2, 4, 1))):
            with pytest.raises(ShapeError):
                bernstein_jet(bad, 4, 1.0)
        for T in (None, 0.0, -1.0, np.inf):
            with pytest.raises(DomainError):
                bernstein_jet(np.zeros((2, 4)), 4, T)
        with pytest.raises(TypeError):
            bernstein_jet(np.zeros((2, 4)), 4)
        with pytest.raises(DomainError):
            bernstein_jet(np.array([[0.0, np.nan, 1.0]]), 3, 1.0)

    def test_conditioning_warning(self):
        with pytest.warns(RuntimeWarning, match="ill-conditioned"):
            bernstein_jet(np.zeros((3, 25)), 25, 1.0)

    @pytest.mark.parametrize("N", [1, 7])
    @pytest.mark.parametrize("T", [0.3, 1.0, 7.5])
    def test_matches_np_diff_oracle(self, N, T):
        # each forward difference is the subtraction np.diff makes: equal
        # bit for bit at every order the package accepts
        rng = np.random.default_rng(int(10 * T) + N)
        for k in range(2, 20):
            samples = rng.uniform(-2, 2, (N, k))
            assert np.array_equal(bernstein_jet(samples, k, T),
                                  bernstein_jet_by_diff(samples, k, T)), k

    @pytest.mark.parametrize("samples, k, T", [
        (np.array([[1e308, -1e308, 1e308]]), 3, 1.0),  # a difference overflows
        (np.array([[0.0, 1.0, 2.0, 3.0]] * 2), 4, 1e-120),  # T**3 underflows to 0
        (np.array([[0.0, 1.0, 0.5]]), 3, 1e200),  # T**2 overflows
    ])
    def test_overflow_matches_np_diff_oracle(self, samples, k, T):
        with pytest.raises(DomainError) as oracle:
            bernstein_jet_by_diff(samples, k, T)
        with pytest.raises(DomainError, match="leaves the float range") as kernel:
            bernstein_jet(samples, k, T)
        assert str(kernel.value) == str(oracle.value)


class TestJetPolyEval:
    def test_constant(self):
        assert jet_poly_eval(np.array([[3.0]]), 0.7)[0, 0] == 3.0

    def test_linear(self):
        assert jet_poly_eval(np.array([[0.0, 1.0]]), 0.7)[0, 0] == pytest.approx(0.7)

    def test_factorial_weights(self):
        # 1 + 2t + 6 t^2/2 at t=0.5
        assert jet_poly_eval(np.array([[1.0, 2.0, 6.0]]), 0.5)[0, 0] == pytest.approx(2.75, abs=1e-15)

    def test_array_argument(self):
        out = jet_poly_eval(np.array([[1.0, 1.0]]), np.array([0.0, 1.0, 2.0]))
        assert out[0] == pytest.approx([1.0, 2.0, 3.0])

    def test_one_dim_jet_rejected(self):
        # one jet is a batch of one row, not a bare vector
        with pytest.raises(ShapeError):
            jet_poly_eval(np.array([1.0, 1.0]), 0.5)


class TestIdentities:
    def test_projection_identity(self):
        # rebuilding the jet's polynomial reproduces the Bernstein lift
        rng = np.random.default_rng(11)
        ts = np.linspace(0.0, 1.0, 512)
        for k in range(2, 13):
            sig = rng.uniform(-1, 1, (1, k))
            lifted = bernstein_eval(sig, ts, 1.0)
            rebuilt = jet_poly_eval(bernstein_jet(sig, k, 1.0), ts)
            assert np.abs(lifted - rebuilt).max() < 1e-9

    def test_round_trip_is_identity_for_k2(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            a = rng.uniform(-1, 1, 2)
            nodes = np.linspace(0.0, 1.0, 2)
            sig = jet_poly_eval(a[None], nodes)[0]
            assert jet_of(sig, 2) == pytest.approx(a, abs=1e-12)

    @pytest.mark.parametrize("k", [3, 5, 8, 12])
    def test_round_trip_contracts_top_derivatives(self, k):
        # Sampling the jet's polynomial by point values at i*T/(k-1) makes
        # the round trip jet -> polynomial -> point samples -> jet linear
        # but NOT the identity for k >= 3: the degree-(k-1) lift of those
        # point values shrinks the l-th derivative at 0 by
        # prod_{j<l}(1-j/(k-1)) plus lower-order couplings.  (Sampling by
        # the polynomial's Bernstein coefficients instead is the identity;
        # test_acceptance.py::test_a2a checks that.)  This anchors the
        # implemented behavior.
        m = k - 1
        nodes = np.linspace(0.0, 1.0, k)
        for ell in range(k):
            a = np.zeros(k)
            a[ell] = 1.0
            sig = jet_poly_eval(a[None], nodes)[0]
            back = jet_of(sig, k)
            expected_diag = math.prod(1.0 - j / m for j in range(ell))
            assert back[ell] == pytest.approx(expected_diag, rel=1e-9, abs=1e-9)
            # strictly below 1 once ell >= 2: the point-sampling round trip cannot be id
            if ell >= 2:
                assert expected_diag < 1.0


class TestErrorBound:
    def test_zero_modulus(self):
        assert bernstein_error_bound(lambda d: 0.0, 5, 1.0) == 0.0

    def test_linear_modulus(self):
        assert bernstein_error_bound(lambda d: d, 4, 1.0) == pytest.approx(1.0)
        assert bernstein_error_bound(lambda d: 3.0 * d, 9, 2.0) == pytest.approx(4.0)
        # the lowest degree the bound accepts: 2 omega(T / sqrt(1))
        assert bernstein_error_bound(lambda d: 3.0 * d, 1, 2.0) == 12.0
        with pytest.raises(DomainError):
            bernstein_error_bound(lambda d: 3.0 * d, 0, 2.0)

    def test_certifies_lipschitz_signals(self):
        # measured sup distance between u and its degree-k lift stays
        # below 2 L T / sqrt(k) for Lipschitz inputs
        rng = np.random.default_rng(21)
        ts = np.linspace(0.0, 1.0, 401)
        for trial in range(25):
            w = rng.uniform(0.3, 3.0, 2)
            c = rng.uniform(-1, 1, 2)
            a = rng.uniform(0, 2 * math.pi, 2)
            L = float(np.abs(c * w).sum())
            spec = InputSpec("fourier", c, w, a)
            for k in (4, 9, 16):
                nodes = sample_on_grid([spec], k, 1.0)
                dense_u = np.array([np.sum(c * np.sin(w * t + a)) for t in ts])
                err = np.abs(dense_u - bernstein_eval(nodes, ts, 1.0)).max()
                assert err <= bernstein_error_bound(lambda d: L * d, k, 1.0) + 1e-12

    def test_modulus_doubling(self):
        # the lift's modulus stays within twice the signal's, up to grid slack
        from jetsid import estimate_modulus

        rng = np.random.default_rng(22)
        ts = np.linspace(0.0, 1.0, 401)
        for trial in range(10):
            w = rng.uniform(0.3, 3.0, 2)
            c = rng.uniform(-1, 1, 2)
            a = rng.uniform(0, 2 * math.pi, 2)
            L = float(np.abs(c * w).sum())
            spec = InputSpec("fourier", c, w, a)
            k = 8
            nodes = sample_on_grid([spec], k, 1.0)
            dense_u = np.array([[np.sum(c * np.sin(w * t + a)) for t in ts]])
            dense_lift = bernstein_eval(nodes, ts, 1.0)
            slack = 2.0 * L / (ts.size - 1) + 1e-9
            for delta in (0.1, 0.25, 0.5):
                assert estimate_modulus(dense_lift, 1.0, delta) <= 2.0 * estimate_modulus(
                    dense_u, 1.0, delta
                ) + slack

