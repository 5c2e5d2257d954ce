import json
import math
import re
import warnings

import numpy as np
import pytest

from jetsid import (
    DomainError,
    ConfigError,
    EnsembleConfig,
    InputSpec,
    ShapeError,
    estimate_modulus,
    sample_ensemble,
    sample_on_grid,
)
from jetsid.bernstein import bernstein_eval
from jetsid.rnn import bibo_probes
from jetsid.signals import _eval_array

from oracles import (brute_modulus, eval_array_gathered, eval_closed_form, input_jet,
                     sympy_input_derivatives)

PI = math.pi


def fourier(c, w, a):
    return InputSpec("fourier", np.asarray(c, float), np.asarray(w, float), np.asarray(a, float))


def poly(c):
    return InputSpec("polynomial", np.asarray(c, float))


class TestEvalInput:
    def test_constant_fourier(self):
        spec = fourier([1.0], [0.0], [PI / 2])
        assert sample_on_grid([spec], 10, 1.0)[0, 3] == pytest.approx(1.0, abs=1e-15)

    def test_polynomial(self):
        assert sample_on_grid([poly([2.0, 3.0])], 2, 1.0)[0, 1] == pytest.approx(3.5, abs=1e-15)

    def test_two_tone(self):
        # 0.5*sin(1) + 0.5*sin(2), frozen from direct evaluation
        spec = fourier([0.5, 0.5], [1.0, 2.0], [0.0, 0.0])
        expected = 0.5 * math.sin(1.0) + 0.5 * math.sin(2.0)
        assert expected == pytest.approx(0.8753842058167891, abs=1e-15)
        assert sample_on_grid([spec], 1, 1.0)[0, 1] == pytest.approx(expected, abs=1e-14)


class TestInputJet:
    def test_polynomial_factorials(self):
        jet = input_jet(poly([1.0, 2.0, 3.0]), 2)
        assert jet == pytest.approx([1.0, 2.0, 6.0], abs=1e-15)

    def test_single_sine(self):
        jet = input_jet(fourier([1.0], [2.0], [0.0]), 2)
        assert jet == pytest.approx([0.0, 2.0, 0.0], abs=1e-15)

    def test_two_sines_vs_symbolic(self):
        spec = fourier([1.0, 1.0], [1.0, 3.0], [PI / 2, 0.0])
        jet = input_jet(spec, 3)
        assert jet == pytest.approx([1.0, 3.0, -1.0, -27.0], abs=1e-9)
        assert jet == pytest.approx(sympy_input_derivatives(spec, 3), abs=1e-9)

    def test_degree_exceeded_gives_zero(self):
        jet = input_jet(poly([1.0, 1.0]), 4)
        assert jet[2:] == pytest.approx([0.0, 0.0, 0.0])

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_central_differences(self, seed):
        rng = np.random.default_rng(seed)
        if seed % 2 == 0:
            spec = fourier(rng.uniform(-1, 1, 2), rng.uniform(0.3, 2.0, 2), rng.uniform(0, 2 * PI, 2))
        else:
            spec = poly(rng.uniform(-1, 1, 4))
        jet = input_jet(spec, 4)
        h = 1e-2
        offsets = np.arange(-3, 4) * h
        f = eval_closed_form(spec, offsets)
        # 4th-order central stencils; relative tolerance 1e-6 with a
        # floor at the input scale
        stencils = {
            1: np.array([0, 1 / 12, -2 / 3, 0, 2 / 3, -1 / 12, 0]),
            2: np.array([0, -1 / 12, 4 / 3, -5 / 2, 4 / 3, -1 / 12, 0]),
            3: np.array([1 / 8, -1, 13 / 8, 0, -13 / 8, 1, -1 / 8]),
            4: np.array([-1 / 6, 2, -13 / 2, 28 / 3, -13 / 2, 2, -1 / 6]),
        }
        for ell in range(1, 5):
            fd = float(stencils[ell] @ f) / h**ell
            assert abs(fd - jet[ell]) <= 1e-6 * max(1.0, abs(jet[ell]))


def make_config(kind="fourier", **kw):
    defaults = dict(kind=kind, m_terms=2, R=1.0, L=2.0, horizon_T=1.0, rng_seed=7)
    defaults.update(kw)
    return EnsembleConfig(**defaults)


class TestSampleEnsemble:
    def test_deterministic(self):
        cfg = make_config()
        a = sample_ensemble(cfg, 3)
        b = sample_ensemble(cfg, 3)
        for s1, s2 in zip(a, b):
            assert np.array_equal(s1.coefficients, s2.coefficients)
            assert np.array_equal(s1.frequencies, s2.frequencies)
            assert np.array_equal(s1.phases, s2.phases)

    def test_fourier_budgets(self):
        cfg = make_config(R=1.0, L=2.0, m_terms=3, rng_seed=11)
        for spec in sample_ensemble(cfg, 200):
            assert np.abs(spec.coefficients).sum() <= 1.0 + 1e-12
            assert np.abs(spec.coefficients * spec.frequencies).sum() <= 2.0 + 1e-12

    def test_polynomial_sup_norm(self):
        # every sampled signal stays within R on a dense grid
        cfg = make_config(kind="polynomial", m_terms=3, R=2.0, L=5.0, rng_seed=3)
        ts = np.linspace(0.0, 1.0, 501)
        for spec in sample_ensemble(cfg, 1000):
            assert np.abs(eval_closed_form(spec, ts)).max() <= 2.0 + 1e-12

    def test_polynomial_slope_budget_off_unit_horizon(self):
        # at T = 2 the slope sum weighs each degree i by T^(i-1); with R
        # out of reach the slope budget binds, so every draw is rescaled
        # onto it
        T, L = 2.0, 0.5
        cfg = make_config(kind="polynomial", m_terms=3, R=100.0, L=L, horizon_T=T, rng_seed=5)
        slopes = [sum(i * abs(c[i]) * T ** (i - 1) for i in range(1, 4))
                  for c in (spec.coefficients for spec in sample_ensemble(cfg, 50))]
        assert max(slopes) <= L * (1.0 + 1e-12)
        assert min(slopes) >= L * (1.0 - 1e-12)

    def test_infeasible_config(self):
        with pytest.raises(ConfigError):
            make_config(R=0.0)
        with pytest.raises(ConfigError):
            sample_ensemble(make_config(), 0)

    def test_modulus_within_slope_budget(self):
        cfg = make_config(rng_seed=23)
        for spec in sample_ensemble(cfg, 20):
            sig = sample_on_grid([spec], 200, 1.0)
            for delta in (0.1, 0.3, 0.7):
                assert estimate_modulus(sig, 1.0, delta) <= cfg.L * delta + 1e-12


class TestSampleOnGrid:
    def test_constant(self):
        (sig,) = sample_on_grid([poly([1.0])], 4, 1.0)
        assert sig == pytest.approx([1.0] * 5)

    def test_linear(self):
        (sig,) = sample_on_grid([poly([0.0, 1.0])], 2, 1.0)
        assert sig == pytest.approx([0.0, 0.5, 1.0])

    def test_sine(self):
        (sig,) = sample_on_grid([fourier([1.0], [PI], [0.0])], 2, 1.0)
        assert sig == pytest.approx([0.0, 1.0, 0.0], abs=1e-12)

    def test_batch_rows_match_single_rows(self):
        # one row per input, bit for bit the row of a batch of one; an
        # empty batch keeps its (0, m+1) shape
        specs = sample_ensemble(make_config(rng_seed=5), 6)
        batch = sample_on_grid(specs, 7, 1.0)
        assert batch.shape == (6, 8)
        for row, spec in zip(batch, specs):
            assert np.array_equal(row, sample_on_grid([spec], 7, 1.0)[0])
        assert sample_on_grid([], 7, 1.0).shape == (0, 8)

    def test_interleaved_kinds_and_term_counts(self):
        # inputs are evaluated in groups of one kind and term count; each
        # row must still land in its input's place, bit for bit its batch
        # of one
        specs = [
            fourier([0.7], [1.3], [0.2]),
            poly([0.1, -0.6, 0.45]),
            fourier([0.3, -0.2, 0.1], [0.9, 2.2, 3.1], [1.0, 0.4, 5.5]),
            bibo_probes(0.8, 1, 1.7, rng_seed=3)[0],
            poly([-0.25]),
            fourier([-0.5], [2.6], [4.0]),
            fourier([0.05, 0.4, -0.3], [1.7, 0.6, 2.9], [2.2, 0.0, 3.3]),
            poly([0.3, 0.2, -0.1]),
        ]
        ts = np.linspace(0.0, 1.7, 13)
        batch = sample_on_grid(specs, 12, 1.7)
        assert batch.shape == (len(specs), 13)
        for row, spec in zip(batch, specs):
            assert np.array_equal(row, sample_on_grid([spec], 12, 1.7)[0])
            if spec.kind == "fourier":
                assert np.array_equal(row, eval_closed_form(spec, ts))
            else:
                assert np.abs(row - eval_closed_form(spec, ts)).max() <= 1e-14

    @pytest.mark.parametrize("N", [1, 2, 257])
    def test_matches_gathered_oracle(self, N):
        # shuffled Fourier inputs of 1-4 terms and polynomials of 1-5
        # coefficients, then N inputs of one shape (one group): equal bit
        # for bit to the three-gather evaluation
        rng = np.random.default_rng(N)
        specs = [fourier(*rng.uniform(-2, 2, (3, rng.integers(1, 5)))) if rng.random() < 0.5
                 else poly(rng.uniform(-2, 2, rng.integers(1, 6))) for _ in range(N)]
        rng.shuffle(specs)
        one_shape = [fourier(*rng.uniform(-2, 2, (3, 2))) for _ in range(N)]
        for ts in (np.linspace(0.0, 1.3, 9), rng.uniform(0.0, 5.0, 40)):
            for batch in (specs, one_shape):
                assert np.array_equal(_eval_array(batch, ts), eval_array_gathered(batch, ts))

    def test_round_trip_with_eval(self):
        spec = fourier([0.4, 0.3], [1.2, 2.7], [0.1, 1.4])
        (sig,) = sample_on_grid([spec], 7, 2.0)
        assert np.abs(sig - eval_closed_form(spec, np.linspace(0.0, 2.0, 8))).max() == 0.0

    @pytest.mark.parametrize("T", [0.0, -1.0, math.inf, math.nan])
    def test_horizon_must_be_finite_and_positive(self, T):
        # the grid of such a horizon holds NaN or negative times
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=re.escape(f"horizon must be positive, got {T}")):
                sample_on_grid([poly([0.0, 1.0])], 3, T)


class TestEstimateModulus:
    def test_constant(self):
        sig = np.full((1, 11), 3.0)
        for delta in (0.0, 0.3, 1.0):
            assert estimate_modulus(sig, 1.0, delta) == 0.0

    def test_linear_slope(self):
        L, T = 2.0, 1.0
        sig = L * np.linspace(0, T, 11)[None]
        # largest grid gap below delta=0.35 is 0.3
        assert estimate_modulus(sig, T, 0.35) == pytest.approx(L * 0.3, abs=1e-12)

    def test_sine_quarter_period(self):
        # true modulus of sin(2*pi*t) over delta=0.25 is 2*sin(pi/4)=sqrt(2)
        # (attained e.g. between t=0.375 and t=0.625), computed here by
        # brute force over grid pairs
        ts = np.linspace(0.0, 1.0, 101)
        sig = np.sin(2 * PI * ts)
        est = estimate_modulus(sig[None], 1.0, 0.25)
        assert est == pytest.approx(brute_modulus(sig, 1.0, 0.25), abs=1e-14)
        assert est == pytest.approx(math.sqrt(2.0), abs=0.05)

    def test_monotone_and_clamped(self):
        rng = np.random.default_rng(5)
        sig = rng.standard_normal((1, 33))
        last = 0.0
        for delta in np.linspace(0.0, 1.0, 21):
            cur = estimate_modulus(sig, 1.0, delta)
            assert cur >= last
            last = cur
        assert estimate_modulus(sig, 1.0, 5.0) == estimate_modulus(sig, 1.0, 1.0)
        with pytest.raises(DomainError):
            estimate_modulus(sig, 1.0, -0.1)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(9)
        sig = rng.standard_normal(41)
        for delta in (0.05, 0.33, 1.0, 1.7):
            assert estimate_modulus(sig[None], 2.0, delta) == pytest.approx(
                brute_modulus(sig, 2.0, delta), abs=1e-14
            )

    @pytest.mark.parametrize("B", [1, 3, 8])
    def test_batch_is_max_of_rows(self, B):
        # one windowed pass over the whole batch gives the largest of the
        # rows' brute-force moduli, bit for bit
        rng = np.random.default_rng(90 + B)
        for T, m in ((1.0, 16), (2.0, 40), (0.7, 25)):
            vals = rng.standard_normal((B, m + 1))
            for delta in (0.0, T / m, 0.1, 0.25 * T, T, 1.5 * T, 10.0):
                expected = max(brute_modulus(row, T, delta) for row in vals)
                assert estimate_modulus(vals, T, delta) == expected

    def test_shape_and_horizon_errors(self):
        for bad in (np.zeros(5), np.zeros((2, 1)), np.zeros((2, 5, 1))):
            with pytest.raises(ShapeError):
                estimate_modulus(bad, 1.0, 0.1)
        for T in (0.0, -1.0, np.inf):
            with pytest.raises(DomainError):
                estimate_modulus(np.zeros((2, 5)), T, 0.1)
        with pytest.raises(DomainError):
            estimate_modulus(np.array([[0.0, np.nan, 1.0]]), 1.0, 0.1)


class TestSupDistance:
    def test_sine_vs_bernstein_lift(self):
        # distance to the degree-5 lift matches a brute-force re-evaluation
        spec = fourier([1.0], [2 * PI], [0.0])
        (nodes,) = sample_on_grid([spec], 5, 1.0)
        ts = np.linspace(0.0, 1.0, 301)
        dense_lift = bernstein_eval(nodes[None], ts, 1.0)[0]
        brute = max(
            abs(math.sin(2 * PI * t) - brute_bernstein_local(nodes, 1.0, t)) for t in ts
        )
        assert np.abs(eval_closed_form(spec, ts) - dense_lift).max() == pytest.approx(brute, abs=1e-12)


def brute_bernstein_local(values, T, t):
    from oracles import brute_bernstein

    return brute_bernstein(values, T, t)


class TestInputSpec:
    def test_refusals(self):
        with pytest.raises(ConfigError, match="unknown input kind"):
            InputSpec("square", [1.0])
        with pytest.raises(ConfigError, match="needs frequencies and phases"):
            InputSpec("fourier", [1.0])
        with pytest.raises(ShapeError, match="must share length"):
            InputSpec("fourier", [1.0, 2.0], [1.0], [0.0, 0.0])
        with pytest.raises(ShapeError, match="must share length"):
            InputSpec("fourier", [1.0], [1.0], [0.0, 0.0])

    def test_lists_read_as_float_arrays(self):
        spec = InputSpec("fourier", [1, 2], [3, 4], [0, 1])
        for field, values in zip((spec.coefficients, spec.frequencies, spec.phases),
                                 ([1, 2], [3, 4], [0, 1])):
            assert isinstance(field, np.ndarray) and field.dtype == np.float64
            assert field.tolist() == values

    def test_polynomial_drops_frequencies_and_phases(self):
        spec = InputSpec("polynomial", [1, 2], [3.0, 4.0], [0.0, 1.0])
        assert spec.frequencies is None and spec.phases is None

    def test_parameters_pack_into_one_array(self):
        spec = InputSpec("fourier", [1, 2], [3, 4], [0, 1])
        assert spec.packed.shape == (3, 2) and spec.packed.dtype == np.float64
        for row, field in zip(spec.packed, (spec.coefficients, spec.frequencies, spec.phases)):
            assert np.shares_memory(field, spec.packed) and np.array_equal(field, row)
        assert InputSpec("polynomial", [1, 2, 3]).packed.tolist() == [[1.0, 2.0, 3.0]]

    def test_empty_parameters_refused(self):
        for args in (("polynomial", []), ("polynomial", np.array([])),
                     ("fourier", [], [], [])):
            with pytest.raises(ShapeError, match="nonempty 1-d"):
                InputSpec(*args)

    def test_parameters_not_one_dimensional_refused(self):
        for args in (("polynomial", [[1.0, 2.0]]), ("polynomial", np.ones((2, 2))),
                     ("fourier", [[1.0]], [[2.0]], [[0.0]]), ("polynomial", 1.0)):
            with pytest.raises(ShapeError, match="nonempty 1-d"):
                InputSpec(*args)

    def test_unequal_arrays_refused(self):
        # arrays of unequal length do not stack; lists are covered above
        for args in (("fourier", np.ones(2), np.ones(1), np.ones(2)),
                     ("fourier", np.ones(2), np.ones(2), np.ones((1, 2)))):
            with pytest.raises(ShapeError, match="must share length"):
                InputSpec(*args)

    def test_nonfinite_parameters_refused(self):
        for args in (("fourier", [1.0], [np.nan], [0.0]), ("polynomial", [0.5, np.inf]),
                     ("fourier", np.array([1.0, 2.0]), np.array([1.0, 2.0]),
                      np.array([0.0, -np.inf]))):
            with pytest.raises(DomainError, match="nonfinite"):
                InputSpec(*args)

    def test_nonreal_parameters_refused(self):
        for args in (("polynomial", [1.0, None]), ("polynomial", [1.0, True]),
                     ("polynomial", np.array([True, False])), ("fourier", [1.0], ["2"], [0.0])):
            with pytest.raises(ConfigError, match="real numbers only"):
                InputSpec(*args)


class TestSerialization:
    def test_input_spec_json(self):
        spec = fourier([0.25, -0.5], [1.0, 2.0], [0.3, 0.4])
        assert json.loads(json.dumps(spec.to_json_dict())) == {
            "kind": "fourier", "coefficients": [0.25, -0.5], "frequencies": [1.0, 2.0],
            "phases": [0.3, 0.4]}
        poly_doc = poly([1.0, 2.0]).to_json_dict()
        assert poly_doc["frequencies"] is None and poly_doc["phases"] is None

    def test_ensemble_config_strict(self):
        doc = make_config().to_json_dict()
        assert EnsembleConfig.from_json_dict(doc).R == 1.0
        doc["bogus"] = 1
        with pytest.raises(ConfigError):
            EnsembleConfig.from_json_dict(doc)

    def test_signal_invariants(self):
        # a grid needs both endpoints: degree m >= 1
        for m in (0, -1):
            with pytest.raises(DomainError):
                sample_on_grid([poly([1.0])], m, 1.0)
