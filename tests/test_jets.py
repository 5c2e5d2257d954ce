import math

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetsid import (
    DomainError,
    RnnParams,
    ShapeError,
    bernstein_jet,
    output_jet,
)
from jetsid import jets
from jetsid.signals import InputSpec, sample_on_grid

from oracles import (eval_closed_form, fd_output_derivatives, input_jet, project_feasible,
                     scalar_output_jet)

EPS = np.finfo(float).eps


def scalar_params(A=0.0, b=1.0, c=1.0, xi=0.0):
    return RnnParams(np.array([[A]]), np.array([b]), np.array([c]), np.array([xi]))


def jet_of(params, v, k):
    """The output jet of one input jet: a batch of one."""
    return output_jet(params, np.asarray(v, dtype=float)[None], k)[0]


def lifted_jet(values, k):
    """The jet of the lift of one row of samples on [0, 1]: a batch of one."""
    return bernstein_jet(np.asarray(values, dtype=float)[None], k, 1.0)


def random_feasible(rng, n, M=1.0):
    scale = M / math.sqrt(n)
    raw = RnnParams(
        rng.uniform(-scale, scale, (n, n)),
        rng.uniform(-scale, scale, n),
        rng.uniform(-scale, scale, n),
        rng.uniform(-scale, scale, n),
    )
    return project_feasible(raw, M)


class TestOutputJet:
    def test_entry0_is_c_dot_xi(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 3):
            params = random_feasible(rng, n)
            jet = jet_of(params, rng.uniform(-1, 1, 3), 3)
            assert jet[0] == float(params.c @ params.xi)

    def test_first_derivative(self):
        for a in (-0.3, 0.0, 1.2):
            jet = jet_of(scalar_params(), [a], 1)
            assert jet == pytest.approx([0.0, math.tanh(a)], abs=1e-15)

    def test_second_derivative_of_ramp(self):
        jet = jet_of(scalar_params(), [0.0, 1.0], 2)
        assert jet == pytest.approx([0.0, 0.0, 1.0], abs=1e-14)

    def test_order_mismatch(self):
        with pytest.raises(ShapeError):
            output_jet(scalar_params(), np.array([[0.0, 1.0]]), 3)
        with pytest.raises(DomainError):
            output_jet(scalar_params(), np.array([[0.0]]), 0)
        for batch in (np.zeros((4, 2)), np.zeros(3), np.zeros((2, 3, 1))):
            with pytest.raises(ShapeError):
                output_jet(scalar_params(), batch, 3)

    def test_overflowing_jets_are_domain_error(self):
        # X_2 = b u_1 / 2 = 5e199, so y'' = 2 c X_2 = inf
        with pytest.raises(DomainError, match="output jets .* leave the float range"):
            jet_of(scalar_params(b=1e200, c=1e200), [0.0, 1.0], 2)

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_finite_differences(self, seed):
        # independently integrated trajectory, derivatives by central
        # differences; relative tolerance 1e-3 with a unit floor
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(1, 4))
        params = random_feasible(rng, n)
        c = rng.uniform(-0.8, 0.8, 2)
        w = rng.uniform(0.3, 2.5, 2)
        a = rng.uniform(0.0, 2 * math.pi, 2)
        spec = InputSpec("fourier", c, w, a)
        jet = jet_of(params, input_jet(spec, 3), 4)
        fd = fd_output_derivatives(params, lambda t: float(eval_closed_form(spec, t)))
        for ell in range(5):
            assert abs(jet[ell] - fd[ell]) <= 1e-3 * max(1.0, abs(jet[ell]))

    def test_negating_input_negates_jet(self):
        # with xi = 0 the jet map is odd in the input: flipping the whole
        # input jet negates every entry (entry 0 stays 0)
        rng = np.random.default_rng(4)
        for n in (1, 2):
            params = RnnParams(
                np.zeros((n, n)),
                rng.uniform(-1, 1, n),
                rng.uniform(-1, 1, n),
                np.zeros(n),
            )
            v = rng.uniform(-1, 1, 4)
            plus = jet_of(params, v, 4)
            minus = jet_of(params, -v, 4)
            assert minus == pytest.approx(-plus, abs=1e-12)
            assert plus[0] == 0.0

    def test_joint_negation_of_gain_and_input_is_invariant(self):
        # tanh oddness: flipping b and u together leaves the output jet
        # unchanged when A = 0 and xi = 0
        rng = np.random.default_rng(5)
        params = RnnParams(np.zeros((2, 2)), rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2), np.zeros(2))
        flipped = RnnParams(params.A, -params.b, params.c, params.xi)
        v = rng.uniform(-1, 1, 4)
        same = jet_of(flipped, -v, 4)
        assert same == pytest.approx(jet_of(params, v, 4), abs=1e-14)


class TestBatchedOutputJet:
    """The batched map against the per-sample recurrence in the oracles.

    The bound 64*eps*max(1, max|ref|) allows for the batched matrix
    products summing in another order than the per-sample ones."""

    @staticmethod
    def bound(ref):
        return 64 * EPS * max(1.0, float(np.abs(ref).max()))

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("k", [2, 4, 8, 12])
    def test_matches_scalar_oracle(self, n, k):
        rng = np.random.default_rng(1000 * n + k)
        params = random_feasible(rng, n)
        V = rng.uniform(-1, 1, (64, k))
        ref = np.array([scalar_output_jet(params, v, k) for v in V])
        got = output_jet(params, V, k)
        assert got.shape == (64, k + 1)
        assert np.abs(got - ref).max() <= self.bound(ref)

    @pytest.mark.parametrize("n", [1, 3])
    def test_row_equals_batch_of_one(self, n):
        rng = np.random.default_rng(40 + n)
        params = random_feasible(rng, n)
        k = 6
        V = rng.uniform(-1, 1, (64, k))
        batched = output_jet(params, V, k)
        for i in range(V.shape[0]):
            one = output_jet(params, V[i : i + 1], k)
            assert np.abs(batched[i] - one[0]).max() <= self.bound(one)


class TestCauchyProducts:
    """Both series sums of the jet map against the in-order Python sum of
    their products, bit for bit: S_j = sum_i W_i (j-i) ARG_{j-i} / j and
    W_j = -sum_i S_i S_{j-i}.  At k = 12 they reach 12 terms, past the 8
    where numpy's `sum` goes pairwise, so an einsum that changes its order
    fails here."""

    @pytest.mark.parametrize("n, N, L", [(1, 1, 1), (1, 1, 4), (2, 6, 3), (8, 16, 2)])
    def test_sums_in_order(self, n, N, L):
        rng = np.random.default_rng(10 * n + N + L)
        k = 12
        A = 0.5 * rng.uniform(-1, 1, (L, n, n)) / n
        b, c, xi = rng.uniform(-1, 1, (3, L, n))
        _, (_, _, ARG, S, W) = jets._jet_and_series(A, b, c, xi, rng.uniform(-1, 1, (N, k)))
        for j in range(1, k):
            want_S = sum(W[i] * ((j - i) * ARG[j - i]) for i in range(j)) / j
            want_W = -sum(S[i] * S[j - i] for i in range(j + 1))
            assert S[j].tobytes() == want_S.tobytes(), j
            assert W[j].tobytes() == want_W.tobytes(), j


class TestOutputJetPinned:
    def test_bit_identical_to_recorded_batch(self):
        # jets of this batch recorded before the recurrence was factored
        # into the helper that the risk gradient shares: a reordered
        # operation there moves dataset.json and fails here
        params = RnnParams([[0.3, -0.4], [0.2, 0.1]], [0.8, -0.3], [0.5, 0.4], [0.1, -0.2])
        V = np.array([[0.5, -1.0, 2.0, 0.25], [-0.3, 0.7, 0.0, -1.5], [1.0, 0.0, -0.5, 3.0]])
        recorded = [
            ["-0x1.eb851eb851ebap-6", "0x1.6741dc106f69cp-3", "-0x1.5d36a31d806d2p-4",
             "0x1.1d8131ac74fd4p-3", "0x1.0f6bb2c934fbcp+0"],
            ["-0x1.eb851eb851ebap-6", "-0x1.d6c3aeda2580ap-6", "0x1.304bc8f22669ap-3",
             "0x1.5bdc9041e696ep-3", "-0x1.a0891af802f41p-2"],
            ["-0x1.eb851eb851ebap-6", "0x1.f3cbcf928bf1cp-3", "0x1.f3c451f72a673p-4",
             "-0x1.e8c9a0dfccc11p-5", "0x1.6d159fc45e38ep-2"],
        ]
        got = output_jet(params, V, 4)
        assert [[float(x).hex() for x in row] for row in got] == recorded


class TestPredictedOutputJet:
    def test_zero_input_zero_state(self):
        sig = np.zeros(3)
        jet = output_jet(scalar_params(), lifted_jet(sig, 3), 3)[0]
        assert jet[:2] == pytest.approx([0.0, 0.0])

    def test_constant_input(self):
        # constant input: state velocity is constant, so y'' = 0
        a = 0.8
        (sig,) = sample_on_grid([InputSpec("polynomial", np.array([a]))], 1, 1.0)
        jet = output_jet(scalar_params(), lifted_jet(sig, 2), 2)[0]
        assert jet == pytest.approx([0.0, math.tanh(a), 0.0], abs=1e-14)
        fd = fd_output_derivatives(scalar_params(), lambda t: a)
        assert jet[2] == pytest.approx(fd[2], abs=1e-4)

    def test_linear_in_readout(self):
        rng = np.random.default_rng(6)
        params = random_feasible(rng, 2)
        doubled = RnnParams(params.A, params.b, 2.0 * params.c, params.xi)
        sig = rng.uniform(-1, 1, 4)
        one = output_jet(params, lifted_jet(sig, 4), 4)[0]
        two = output_jet(doubled, lifted_jet(sig, 4), 4)[0]
        assert two == pytest.approx(2.0 * one, abs=1e-12)


class TestRnnParams:
    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            RnnParams(np.zeros((2, 3)), np.zeros(2), np.zeros(2), np.zeros(2))
        with pytest.raises(ShapeError):
            RnnParams(np.zeros((2, 2)), np.zeros(3), np.zeros(2), np.zeros(2))
        with pytest.raises(DomainError):
            RnnParams(np.full((1, 1), np.nan), np.zeros(1), np.zeros(1), np.zeros(1))

    def test_json_round_trip(self):
        rng = np.random.default_rng(7)
        params = random_feasible(rng, 2)
        back = RnnParams.from_json_dict(params.to_json_dict())
        assert np.array_equal(back.A, params.A)
        assert np.array_equal(back.b, params.b)
        assert back.n == 2

    def test_norms(self):
        params = RnnParams(np.diag([2.0, 0.5]), [3.0, 4.0], [1.0, 0.0], [0.0, 0.0])
        nrm = params.norms()
        assert nrm["A"] == pytest.approx(2.0)
        assert nrm["b"] == pytest.approx(5.0)

    @pytest.mark.parametrize("v", [[1e-200], [3e-170, -4e-170], [1e-160, 1e-161, 0.0],
                                   [5e-324, 0.0], [1e-300, 2e-310], [1e200, -1e200],
                                   [1e300, 1e300, 1e300]])
    def test_norms_where_squares_leave_the_normal_range(self, v):
        # v @ v underflows to 0 or a subnormal, or overflows
        params = RnnParams(np.zeros((len(v), len(v))), v, np.zeros(len(v)), v)
        nrm = params.norms()
        assert nrm["b"] == nrm["xi"] == pytest.approx(math.hypot(*v), rel=4 * EPS, abs=0)
        assert nrm["c"] == 0.0

    def test_norms_bit_identical_in_the_normal_range(self):
        rng = np.random.default_rng(4)
        for scale in (1e-150, 1.0, 1e150):
            b, c, xi = rng.uniform(-1, 1, (3, 5)) * scale
            nrm = RnnParams(np.zeros((5, 5)), b, c, xi).norms()
            assert [nrm[key] for key in ("b", "c", "xi")] == [
                float(np.sqrt(v @ v)) for v in (b, c, xi)]

    @settings(database=None, derandomize=True)
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(*(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=size, max_size=size)
        for size in (n * n, n, n, n)
    ))))
    def test_json_round_trip_is_bitwise(self, entries):
        A, b, c, xi = (np.array(e) for e in entries)
        params = RnnParams(A.reshape(b.size, b.size), b, c, xi)
        back = RnnParams.from_json_dict(json.loads(json.dumps(params.to_json_dict())))
        for name in ("A", "b", "c", "xi"):
            assert getattr(back, name).tobytes() == getattr(params, name).tobytes()
