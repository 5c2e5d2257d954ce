import math
from dataclasses import replace

import numpy as np
import pytest

from jetsid import (
    GROUND_TRUTHS,
    BoundReport,
    DomainError,
    PreconditionError,
    RnnParams,
    SimConfig,
    erm_risk_bound,
    fixed_model_risk_bound,
    linear_modulus,
    probe_risk_and_gap,
    rademacher_bound,
    sample_size_check,
    vc_dimension_bound,
)
from jetsid.bounds import empirical_modulus
from jetsid.signals import EnsembleConfig, InputSpec, sample_ensemble

from oracles import project_feasible, sandwich_error_bound

ZERO = lambda d: 0.0
IDENT = lambda d: d
FAST = SimConfig(step=1.0 / 512, grid_size=129)


def scalar_params(A=0.0, b=1.0, c=1.0, xi=0.0):
    return RnnParams(np.array([[A]]), np.array([b]), np.array([c]), np.array([xi]))


def random_feasible(rng, n, M=1.0):
    scale = M / math.sqrt(n)
    return project_feasible(
        RnnParams(rng.uniform(-scale, scale, (n, n)), rng.uniform(-scale, scale, n),
                  rng.uniform(-scale, scale, n), rng.uniform(-scale, scale, n)), M)


class TestFixedModelBound:
    def test_only_gap_survives(self):
        out = fixed_model_risk_bound(ZERO, IDENT, scalar_params(c=0.0), 4, 1.0, 0.25)
        assert out.output_modulus_term == 0.0
        assert out.input_modulus_term == 0.0
        assert out.jet_truncation_term == 0.0
        assert out.total == pytest.approx(0.25)

    def test_unit_example(self):
        out = fixed_model_risk_bound(IDENT, IDENT, scalar_params(), 4, 1.0, 0.0)
        assert out.output_modulus_term == pytest.approx(1.0)
        assert out.input_modulus_term == pytest.approx(2.0)
        assert out.jet_truncation_term == pytest.approx(0.5)
        assert out.total == pytest.approx(3.5, abs=1e-12)

    def test_terms_vanish_with_k(self):
        params = scalar_params(A=0.5)
        prev = fixed_model_risk_bound(IDENT, IDENT, params, 2, 1.0, 0.0)
        for k in (4, 8, 16, 64, 256):
            cur = fixed_model_risk_bound(IDENT, IDENT, params, k, 1.0, 0.0)
            assert cur.output_modulus_term < prev.output_modulus_term
            assert cur.input_modulus_term < prev.input_modulus_term
            assert cur.jet_truncation_term < prev.jet_truncation_term
            prev = cur

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            fixed_model_risk_bound(ZERO, ZERO, scalar_params(), 1, 1.0, 0.0)
        with pytest.raises(PreconditionError):
            fixed_model_risk_bound(ZERO, ZERO, scalar_params(), 4, 1.0, -0.1)


class TestErmRiskBound:
    def kwargs(self, **over):
        base = dict(M=1.0, n=1, k=2, T=1.0, N=10**6, delta=0.1, gamma_R=1.0,
                    Lbar_star_estimate=0.0, c_abs=1.0, omega_Y=ZERO, omega_U=ZERO)
        base.update(over)
        return base

    def test_estimation_term_frozen_value(self):
        # 3 * sqrt((2*(1+1)*ln 1e6 + ln 10) / 1e6); the range multiplier is
        # M(M + sqrt(n) T) + gamma = 3
        out = erm_risk_bound(**self.kwargs())
        direct = 3.0 * math.sqrt((4.0 * math.log(1e6) + math.log(10.0)) / 1e6)
        assert direct == pytest.approx(0.022761406940777197, abs=1e-15)
        assert out.estimation_error == pytest.approx(direct, abs=1e-9)
        # zero modulus handles leave only the estimation and truncation terms
        assert out.output_modulus_term == 0.0
        assert out.input_modulus_term == 0.0
        assert out.jet_truncation_term == pytest.approx(3.0 * math.e / math.sqrt(2.0), abs=1e-12)
        assert out.total == pytest.approx(out.jet_truncation_term + out.estimation_error, abs=1e-15)

    def test_estimation_vanishes_with_n_samples(self):
        small = erm_risk_bound(**self.kwargs(N=10**4))
        large = erm_risk_bound(**self.kwargs(N=10**8))
        assert large.estimation_error < small.estimation_error
        assert erm_risk_bound(**self.kwargs(N=10**12)).estimation_error < 1e-4

    def test_delta_boundary_rejected(self):
        with pytest.raises(PreconditionError):
            erm_risk_bound(**self.kwargs(delta=1.0))
        with pytest.raises(PreconditionError):
            erm_risk_bound(**self.kwargs(delta=0.0))

    def test_no_samples_rejected(self):
        # the waiver covers the sample-size condition, not an empty sample
        with pytest.raises(PreconditionError, match="N must be >= 1"):
            erm_risk_bound(**self.kwargs(N=0, waive_sample_size=True))

    def test_sample_size_enforced_and_waivable(self):
        with pytest.raises(PreconditionError, match="32"):
            erm_risk_bound(**self.kwargs(N=16))
        waived = erm_risk_bound(**self.kwargs(N=16, waive_sample_size=True))
        assert waived.sample_size_waived and not waived.sample_size_ok
        assert waived.sample_size_threshold == 32
        ok = erm_risk_bound(**self.kwargs())
        assert ok.sample_size_ok and not ok.sample_size_waived

    def test_closed_form_terms(self):
        out = erm_risk_bound(**self.kwargs(omega_Y=IDENT, omega_U=IDENT, k=4, T=1.0))
        assert out.output_modulus_term == pytest.approx(4.0 * 0.5)
        assert out.input_modulus_term == pytest.approx(2.0 * math.e * 1.0)
        assert out.jet_truncation_term == pytest.approx(3.0 * math.e * 0.5)
        # M = 0.5, T = 2: e^(MT) = e, 2T/sqrt(k) = 2 and T/sqrt(k) = 1, so
        # the input term is 2 M^2 e * 2 = e and the truncation term
        # 3 M T e sqrt(n/k) = 1.5 e; the range multiplier is
        # M(M + sqrt(n) T) + gamma = 1.25 + 1 and the capacity k(n^6 + n^3 log2 k) = 12
        out = erm_risk_bound(**self.kwargs(M=0.5, T=2.0, k=4, omega_Y=IDENT, omega_U=IDENT))
        assert out.output_modulus_term == pytest.approx(4.0)
        assert out.input_modulus_term == pytest.approx(math.e)
        assert out.jet_truncation_term == pytest.approx(1.5 * math.e)
        assert out.estimation_error == pytest.approx(
            2.25 * math.sqrt((12.0 * math.log(1e6) + math.log(10.0)) / 1e6))

    def test_monotone_in_capacity_arguments(self):
        base = self.kwargs()
        e0 = erm_risk_bound(**base).estimation_error
        assert erm_risk_bound(**self.kwargs(k=4)).estimation_error > e0
        assert erm_risk_bound(**self.kwargs(M=2.0)).estimation_error > e0
        assert erm_risk_bound(**self.kwargs(n=2)).estimation_error > e0


class TestOverflow:
    # each certificate's growth factor e^(rate T) names the certificate when
    # it overflows a float, instead of an OverflowError, and a term that
    # overflows in a product or at M**2 names the bound and the term
    # instead of reading inf
    def test_growth_overflow_is_domain_error(self):
        from jetsid import DomainError, io_lipschitz_bound, output_modulus_bound

        big = scalar_params(A=1000.0)
        with pytest.raises(DomainError, match="fixed-model bound"):
            fixed_model_risk_bound(IDENT, IDENT, big, 4, 1.0, 0.0)
        with pytest.raises(DomainError, match="ERM bound"):
            erm_risk_bound(**TestErmRiskBound().kwargs(M=1e300))
        with pytest.raises(DomainError, match="output modulus bound"):
            output_modulus_bound(big, 1.0, 0.1)
        with pytest.raises(DomainError, match="i/o Lipschitz bound"):
            io_lipschitz_bound(big, 1.0)
        huge = scalar_params(b=1e154, c=1e154)  # 2 |c| |b| = 2e308
        with pytest.raises(DomainError, match="fixed-model bound term input_modulus_term"):
            fixed_model_risk_bound(IDENT, IDENT, huge, 4, 1.0, 0.0)
        for M, T in ((1e200, 1e-199), (1e150, 1e-148)):
            with pytest.raises(DomainError, match="ERM bound term input_modulus_term"):
                erm_risk_bound(**TestErmRiskBound().kwargs(M=M, T=T, omega_U=IDENT))


class TestBoundReport:
    ERM = erm_risk_bound(M=1.0, n=2, k=3, T=1.0, N=10, delta=0.1, gamma_R=1.0,
                         Lbar_star_estimate=0.0, c_abs=1.0, omega_Y=ZERO, omega_U=ZERO,
                         waive_sample_size=True)
    FIXED = fixed_model_risk_bound(IDENT, IDENT, scalar_params(), 3, 1.0, 0.0)

    def report(self, probes, **extra):
        return BoundReport(fixed_model=self.FIXED, erm=self.ERM, rademacher_bound=None,
                           c_abs=1.0, gamma=1.0, gamma_probe_count=probes,
                           moduli_source="analytic", **extra)

    @pytest.mark.parametrize("probes", [None, 8])
    def test_derived_fields(self, probes):
        report = self.report(probes)
        assert report.vc_bound == self.ERM.sample_size_threshold == vc_dimension_bound(2, 3)
        assert report.gamma_is_estimate == (probes is not None)
        assert report.sample_size_ok is self.ERM.sample_size_ok is False

    @pytest.mark.parametrize("extra", [{"vc_bound": 1}, {"gamma_is_estimate": True},
                                       {"sample_size_ok": True}])
    def test_derived_fields_are_not_arguments(self, extra):
        with pytest.raises(TypeError):
            self.report(None, **extra)


class TestVcDimensionBound:
    def test_examples(self):
        assert vc_dimension_bound(1, 2) == 32
        assert vc_dimension_bound(1, 1) == 6

    def test_monotone(self):
        for n in (1, 2, 3):
            for k in (1, 2, 5, 9):
                assert vc_dimension_bound(n + 1, k) > vc_dimension_bound(n, k)
                assert vc_dimension_bound(n, k + 1) > vc_dimension_bound(n, k)

    def test_domain(self):
        for n, k in ((0, 2), (1, 0)):
            with pytest.raises(DomainError, match="n and k must be >= 1"):
                vc_dimension_bound(n, k)

    def test_threshold_identity(self):
        # the sample-size threshold equals the capacity bound exactly
        for n in range(1, 11):
            for k in range(1, 11):
                assert sample_size_check(0, n, k).threshold == vc_dimension_bound(n, k)


class TestRademacherBound:
    def test_zero_range(self):
        assert rademacher_bound(0.0, 8, 100) == 0.0

    def test_vc_equals_n(self):
        assert rademacher_bound(1.5, 50, 50) == pytest.approx(1.5 * math.sqrt(math.log(50)))

    def test_frozen_value(self):
        assert rademacher_bound(2.0, 32, 10**4) == pytest.approx(0.34335456420629556, abs=1e-9)

    def test_undersized_rejected(self):
        with pytest.raises(PreconditionError):
            rademacher_bound(1.0, 100, 99)

    def test_negative_range_rejected(self):
        with pytest.raises(DomainError, match="range bound B must be >= 0"):
            rademacher_bound(-1.0, 2, 10)


class TestSandwichErrorBound:
    def test_zero(self):
        assert sandwich_error_bound(0.0, IDENT, ZERO, 4, 1.0) == 0.0

    def test_linear_moduli(self):
        assert sandwich_error_bound(1.0, IDENT, IDENT, 4, 1.0) == pytest.approx(3.0)

    def test_nonincreasing_in_k(self):
        prev = math.inf
        for k in (2, 4, 8, 16):
            cur = sandwich_error_bound(1.0, IDENT, IDENT, k, 1.0)
            assert cur < prev
            prev = cur

    def test_certifies_model_maps(self):
        # measured reconstruction error of a smooth model i/o map stays
        # below the certificate built from measured moduli
        from jetsid import io_lipschitz_bound
        from jetsid.bernstein import bernstein_jet, jet_poly_eval
        from jetsid import simulate, sample_on_grid

        rng = np.random.default_rng(13)
        params = random_feasible(rng, 2)
        ens = EnsembleConfig("fourier", 2, 0.8, 2.0, 1.0, rng_seed=31)
        (spec,) = sample_ensemble(ens, 1)
        k = 8
        T = 1.0
        dense = SimConfig(step=1.0 / 512, grid_size=k * 16 + 1)
        ts = np.linspace(0.0, T, dense.grid_size)
        # G u on the dense grid
        gu = simulate(params, [spec], T, dense)
        # G B_{k-1} u: simulate on the lifted input
        # the lift is the polynomial whose Taylor coefficients are jet / l!
        lift_jet = bernstein_jet(sample_on_grid([spec], k - 1, T), k, T)[0]
        factorials = np.array([math.factorial(ell) for ell in range(k)])
        g_lift = simulate(params, [InputSpec("polynomial", lift_jet / factorials)], T, dense)
        # degree-k lift of G B_{k-1} u
        rebuilt = jet_poly_eval(bernstein_jet(g_lift[:, ::16], k + 1, T), ts)
        measured = np.abs(gu - rebuilt).max()
        omega_u = empirical_modulus(np.asarray(
            [[float(np.sum(spec.coefficients * np.sin(spec.frequencies * t + spec.phases))) for t in ts]]), T)
        omega_gu = empirical_modulus(g_lift, T)
        cert = sandwich_error_bound(io_lipschitz_bound(params, T), lambda d: ens.L * d,
                                    omega_gu, k, T)
        # grid slack: moduli and sups are grid-restricted
        assert measured <= cert + 0.05 * max(1.0, cert)


class TestMonteCarloRisk:
    def setup_method(self):
        self.ens = EnsembleConfig("fourier", 2, 0.8, 2.0, 1.0, rng_seed=77)

    def mean_risk(self, model, truth, count, seed):
        specs = sample_ensemble(self.ens.reseeded(seed), count)
        risks, _, _ = probe_risk_and_gap(model, truth, specs, 4, 1.0, replace(FAST, grid_size=65))
        return float(risks.mean())

    def test_self_risk_is_integrator_noise(self):
        params = scalar_params(A=0.4, b=0.7, c=0.6, xi=0.1)
        assert self.mean_risk(params, params, 4, 5) <= 1e-6

    def test_zero_against_zero(self):
        model = scalar_params(c=0.0)
        truth = scalar_params(b=0.3, c=0.0)
        assert self.mean_risk(model, truth, 4, 6) == pytest.approx(0.0, abs=1e-12)

    def test_gain_probes_ride_in_truth_batch(self):
        # extra ground-truth rows leave risks and gaps bit for bit as they
        # were and come back after the probe rows
        from jetsid import simulate

        model = scalar_params(A=0.4, b=0.7, c=0.6, xi=0.1)
        truth = GROUND_TRUTHS["linear"]()
        specs = sample_ensemble(self.ens.reseeded(3), 5)
        extra = sample_ensemble(self.ens.reseeded(4), 3)
        dense = replace(FAST, grid_size=65)
        plain = probe_risk_and_gap(model, truth, specs, 4, 1.0, dense)
        # a tuple of probes reads as the list
        fused = probe_risk_and_gap(model, truth, tuple(specs), 4, 1.0, dense, gain_probes=extra)
        assert np.array_equal(fused.risks, plain.risks)
        assert np.array_equal(fused.gaps, plain.gaps)
        assert fused.truth.shape == (8, 65)
        assert np.array_equal(fused.truth[:5], plain.truth)
        assert np.array_equal(fused.truth[5:], simulate(truth, extra, 1.0, dense))

    def test_reproducible_to_three_decimals(self):
        rng = np.random.default_rng(14)
        model = random_feasible(rng, 1)
        truth = GROUND_TRUTHS["linear"]()
        r1 = self.mean_risk(model, truth, 6, 9)
        r2 = self.mean_risk(model, truth, 6, 9)
        assert round(r1, 3) == round(r2, 3)
        assert r1 == r2  # fixed seeds are exactly reproducible


class TestRiskBoundEmpiricalValidity:
    def test_risk_below_bound_with_measured_gap(self):
        # small-scale version of the acceptance gate: mean risk stays
        # below the certificate built with the gap measured on the same
        # probes
        truth = GROUND_TRUTHS["linear"]()
        ens = EnsembleConfig("fourier", 2, 0.8, 2.0, 1.0, rng_seed=101)
        omega_U = linear_modulus(ens.L)
        omega_Y = linear_modulus(truth.output_lipschitz(ens.R))
        rng = np.random.default_rng(55)
        hold = 0
        trials = 10
        for trial in range(trials):
            n = int(rng.integers(1, 4))
            params = random_feasible(rng, n)
            specs = sample_ensemble(ens.reseeded(500 + trial), 8)
            risks, gaps, _ = probe_risk_and_gap(params, truth, specs, 6, 1.0,
                                                replace(FAST, grid_size=97))
            bound = fixed_model_risk_bound(omega_Y, omega_U, params, 6, 1.0, float(gaps.mean()))
            diffs = risks - gaps
            se = float(diffs.std(ddof=1) / math.sqrt(diffs.size))
            if risks.mean() <= bound.total + 3.0 * se:
                hold += 1
        assert hold == trials
