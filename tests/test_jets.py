import math

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetsid import (
    DomainError,
    RnnParams,
    SampledSignal,
    ShapeError,
    bernstein_jet,
    output_jet,
)
from jetsid.erm import project_feasible
from jetsid.signals import InputSpec, sample_on_grid

from oracles import eval_closed_form, fd_output_derivatives, scalar_output_jet

EPS = np.finfo(float).eps


def scalar_params(A=0.0, b=1.0, c=1.0, xi=0.0):
    return RnnParams(np.array([[A]]), np.array([b]), np.array([c]), np.array([xi]))


def jet_of(params, v, k):
    """The output jet of one input jet: a batch of one."""
    return output_jet(params, np.asarray(v, dtype=float)[None], k)[0]


def lifted_jet(sig, k):
    """The jet of one signal's lift: a batch of one."""
    return bernstein_jet(sig.values[None], k, sig.horizon_T)


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
        from jetsid.signals import input_jet

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


class TestPredictedOutputJet:
    def test_zero_input_zero_state(self):
        sig = SampledSignal(np.zeros(3), 1.0)
        jet = output_jet(scalar_params(), lifted_jet(sig, 3), 3)[0]
        assert jet[:2] == pytest.approx([0.0, 0.0])

    def test_constant_input(self):
        # constant input: state velocity is constant, so y'' = 0
        a = 0.8
        sig = sample_on_grid(InputSpec("polynomial", np.array([a])), 1, 1.0)
        jet = output_jet(scalar_params(), lifted_jet(sig, 2), 2)[0]
        assert jet == pytest.approx([0.0, math.tanh(a), 0.0], abs=1e-14)
        fd = fd_output_derivatives(scalar_params(), lambda t: a)
        assert jet[2] == pytest.approx(fd[2], abs=1e-4)

    def test_linear_in_readout(self):
        rng = np.random.default_rng(6)
        params = random_feasible(rng, 2)
        doubled = RnnParams(params.A, params.b, 2.0 * params.c, params.xi)
        sig = SampledSignal(rng.uniform(-1, 1, 4), 1.0)
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
