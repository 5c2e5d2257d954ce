import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from jetsid import (
    ConfigError,
    DomainError,
    GROUND_TRUTHS,
    JetDataset,
    RnnParams,
    ShapeError,
    SimConfig,
    TrainConfig,
    build_dataset,
    build_teacher_dataset,
    empirical_risk,
    is_feasible,
    jet_poly_eval,
    output_jet,
    sample_ensemble,
    sample_size_check,
    train,
)
from jetsid import erm, jets
from jetsid.signals import EnsembleConfig, InputSpec

from oracles import (GROUND_TRUTH_RHS, difference_gradient, eval_closed_form, project_feasible,
                     project_reference, risk_and_grad, scalar_empirical_risk)

EPS = np.finfo(float).eps


def scalar_params(A=0.0, b=1.0, c=1.0, xi=0.0):
    return RnnParams(np.array([[A]]), np.array([b]), np.array([c]), np.array([xi]))


def const_input(a):
    return InputSpec("polynomial", np.array([float(a)]))


TEACHER = scalar_params(A=0.3, b=0.8, c=0.5, xi=0.1)
FAST = SimConfig(step=1.0 / 512, grid_size=129)


class TestBuildDataset:
    def test_zero_everything(self):
        zero_truth = scalar_params(c=0.0)
        ds = build_dataset([const_input(0.0)] * 3, zero_truth, 3, 1.0, FAST)
        assert np.abs(ds.v).max() == 0.0
        assert np.abs(ds.z).max() == 0.0

    def test_order_preserving(self):
        inputs = [const_input(i) for i in range(5)]
        ds = build_dataset(inputs, GROUND_TRUTHS["linear"](), 2, 1.0, FAST)
        assert ds.N == 5
        assert ds.v[:, 0] == pytest.approx(np.arange(5.0))

    def test_linear_truth_step_response_jets(self):
        # y(t) = 1 - exp(-t); its 3-node lift jet has entries
        # (0, 2(1-e^-0.5), 2(2e^-0.5 - 1 - e^-1)), frozen from the formula
        ds = build_dataset([const_input(1.0)], GROUND_TRUTHS["linear"](), 2, 1.0, SimConfig())
        v, z = ds.v[0], ds.z[0]
        assert v == pytest.approx([1.0, 0.0], abs=1e-12)
        e_half, e_one = math.exp(-0.5), math.exp(-1.0)
        expected = [0.0, 2.0 * (1.0 - e_half), 2.0 * (2.0 * e_half - 1.0 - e_one)]
        assert expected[1] == pytest.approx(0.7869386805747332, abs=1e-15)
        assert expected[2] == pytest.approx(-0.309636243492351, abs=1e-15)
        assert z == pytest.approx(expected, abs=1e-9)

    def test_k_validation(self):
        with pytest.raises(ConfigError):
            build_dataset([const_input(0.0)], TEACHER, 1, 1.0, FAST)

    def test_coarse_grid_snaps_to_the_lift_nodes(self):
        # a grid of at most k/2 intervals rounds to zero intervals per node;
        # it takes one, so the dense grid is the k+1 nodes themselves
        dense, per_node = erm._snap_grid(SimConfig(grid_size=3), 4)
        assert (dense.grid_size, per_node) == (5, 1)
        assert erm._snap_grid(SimConfig(grid_size=9), 4)[0].grid_size == 9
        # the largest grid rounds up past MAX_COUNT points; it takes the
        # largest stride that stays within it
        for k, points, stride in ((2, 999999, 499999), (19, 999990, 52631)):
            dense, per_node = erm._snap_grid(SimConfig(grid_size=10**6), k)
            assert (dense.grid_size, per_node) == (points, stride)


class TestDop853Reference:
    """Dataset output jets against an adaptive DOP853 reference.

    `build_dataset` integrates with fixed-step RK4; the reference samples
    the same system, written out in `oracles.GROUND_TRUTH_RHS`, with
    `solve_ivp(method="DOP853", rtol=1e-13)` at the output nodes jT/k.
    Entry l of an output jet is compared as z_l T^l / perm(k, l), the
    l-th forward difference of those samples, relative to the largest
    such entry of the reference row: the extraction scales rounding by
    perm(k, l) / T^l, so this is the scale at which two converged
    integrators are told apart, as in a2a.  A sample error e moves the
    l-th difference by at most 2^l e, so the bound, fixed before
    measuring, is 2^k * 2.5e-10 (1e-9 at k=2, 1.0e-6 at k=12).  Run at
    the default step and at an explicit T/4096, on the default grid and
    on a 17-point grid, where RK4 substeps each output interval and the
    step, not the grid, sets the accuracy.
    """

    @pytest.mark.parametrize(
        "sim", [SimConfig(), SimConfig(grid_size=17), SimConfig(step=1.0 / 4096)],
        ids=["default", "default-grid17", "T/4096"])
    @pytest.mark.parametrize("name", sorted(GROUND_TRUTHS))
    def test_output_jets_match(self, name, sim):
        T = 1.0
        inputs = sample_ensemble(EnsembleConfig("fourier", 2, 0.8, 2.0, T, rng_seed=61), 8)
        rhs = GROUND_TRUTH_RHS[name]
        system = GROUND_TRUTHS[name]()
        solutions = [
            solve_ivp(lambda t, x, u=u: rhs(x, float(eval_closed_form(u, t))), (0.0, T),
                      np.asarray(system.xi0, float), method="DOP853", rtol=1e-13, atol=1e-15,
                      dense_output=True).sol
            for u in inputs
        ]
        for k in (2, 3, 4, 6, 8, 10, 12):
            z = build_dataset(inputs, system, k, T, sim).z
            y_ref = np.array([system.h @ sol(np.linspace(0.0, T, k + 1)) for sol in solutions])
            ref = np.stack([np.diff(y_ref, ell, axis=1)[:, 0] for ell in range(k + 1)], axis=1)
            scale = np.array([T**ell / math.perm(k, ell) for ell in range(k + 1)])
            dev = np.abs(z * scale - ref).max(axis=1) / np.abs(ref).max(axis=1)
            assert dev.max() <= 2.0**k * 2.5e-10, (
                f"{name}, k={k}: output jets differ from DOP853 by {dev.max():.3g} "
                "in forward-difference scale")


class TestTeacherDataset:
    def test_teacher_attains_zero_risk(self):
        ens = EnsembleConfig("fourier", 2, 0.8, 2.0, 1.0, rng_seed=5)
        ds = build_teacher_dataset(sample_ensemble(ens, 16), TEACHER, 4, 1.0)
        assert empirical_risk(TEACHER, ds) <= 1e-12


def one_pair(v, z, k=2, T=1.0):
    return JetDataset(np.array([v], dtype=float), np.array([z], dtype=float), k, T)


class TestSampleLoss:
    """The loss of one pair, as the risk of a one-row dataset."""

    def test_self_consistency(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            params = project_feasible(
                RnnParams(rng.uniform(-1, 1, (2, 2)), rng.uniform(-1, 1, 2),
                          rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)), 1.0)
            v = rng.uniform(-1, 1, 4)
            z = output_jet(params, v[None], 4)[0]
            assert empirical_risk(params, one_pair(v, z, 4)) == 0.0

    def test_hand_evaluated_ramp_target(self):
        # prediction is identically zero, target polynomial is t, so the
        # loss is max(|t_1|, |t_2|) = 1 on the grid (0.5, 1)
        loss = empirical_risk(scalar_params(), one_pair([0.0, 0.0], [0.0, 1.0, 0.0]))
        assert loss == pytest.approx(1.0, abs=1e-15)

    def test_zero_params_zero_target(self):
        loss = empirical_risk(scalar_params(c=0.0), one_pair([0.0, 0.0], [0.0, 0.0, 0.0]))
        assert loss == 0.0

    def test_order_mismatch(self):
        # a pair whose v or z row does not match the order k has no loss
        with pytest.raises(ShapeError):
            empirical_risk(scalar_params(), one_pair([0.0], [0.0, 1.0, 0.0]))
        with pytest.raises(ShapeError):
            empirical_risk(scalar_params(), one_pair([0.0, 0.0], [0.0, 1.0]))


class TestEmpiricalRisk:
    def test_single_pair(self):
        params = scalar_params(A=0.4, xi=0.2)
        v, z = [0.3, -0.7], [0.1, 1.0, -0.5]
        expected = scalar_empirical_risk(params, [v], [z], 2, 1.0)
        assert abs(empirical_risk(params, one_pair(v, z)) - expected) <= 64 * EPS * max(1.0, expected)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("k", [2, 4, 8, 12])
    def test_matches_scalar_oracle(self, n, k):
        # bound fixed from the dtype: the batched sums run in another order
        rng = np.random.default_rng(2000 * n + k)
        params = project_feasible(
            RnnParams(rng.uniform(-1, 1, (n, n)), rng.uniform(-1, 1, n),
                      rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)), 1.0)
        V, Z = rng.uniform(-1, 1, (64, k)), rng.uniform(-1, 1, (64, k + 1))
        ref = scalar_empirical_risk(params, V, Z, k, 1.0)
        got = empirical_risk(params, JetDataset(V, Z, k, 1.0))
        assert abs(got - ref) <= 64 * EPS * max(1.0, abs(ref))

    def test_mean_of_two(self):
        params = scalar_params(c=0.0)
        ds = JetDataset(np.zeros((2, 2)), [[0.0, 1.0, 0.0], [0.0, 3.0, 0.0]], 2, 1.0)  # losses 1, 3
        assert empirical_risk(params, ds) == pytest.approx(2.0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        V, Z = rng.uniform(-1, 1, (6, 2)), rng.uniform(-1, 1, (6, 3))
        params = scalar_params(A=0.4)
        fwd = empirical_risk(params, JetDataset(V, Z, 2, 1.0))
        rev = empirical_risk(params, JetDataset(V[::-1], Z[::-1], 2, 1.0))
        assert fwd == pytest.approx(rev, abs=1e-15)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ConfigError):
            JetDataset(np.zeros((0, 2)), np.zeros((0, 3)), 2, 1.0)
        with pytest.raises(ConfigError):
            JetDataset.from_json_dict({"k": 2, "T": 1.0, "N": 0, "pairs": []})

    def test_overflow_is_domain_error(self):
        # the mismatch 1e300 times t^2 = 1e200 leaves the float range;
        # unchecked, the risk would come back inf
        ds = JetDataset(np.full((1, 2), 1e300), np.full((1, 3), 1e300), 2, 1e100)
        with pytest.raises(DomainError, match="leaves the float range"):
            empirical_risk(TEACHER, ds)

    def test_overflow_only_in_arg0_gives_ieee_risk(self):
        # A xi overflows to inf, but tanh(inf) = 1 is the float-correct
        # S_0 and ARG_0 reaches nothing else, so the jets and the risk are
        # finite: y_0 = c.xi = 1 against z = 0
        params = RnnParams(1e10 * np.eye(2), [0.0, 0.0], [1e-300, 0.0], [1e300, 1e300])
        ds = JetDataset(np.zeros((1, 2)), np.zeros((1, 3)), 2, 1.0)
        assert empirical_risk(params, ds) == 1.0


class TestProjectFeasible:
    def test_identity_on_feasible(self):
        params = scalar_params(A=0.5, b=0.5, c=0.5, xi=0.5)
        out = project_feasible(params, 1.0)
        assert out.A is params.A and out.b is params.b

    def test_radial_vector_scaling(self):
        params = scalar_params(b=2.0)
        out = project_feasible(params, 1.0)
        assert out.b == pytest.approx([1.0])
        big = scalar_params(b=-4.0)
        assert project_feasible(big, 1.0).b == pytest.approx([-1.0])
        # b @ b overflows; the direction must survive, not collapse to 0
        huge = RnnParams(np.zeros((2, 2)), [1e200, 1e200], [0.0, -1e300], [0.5, 0.0])
        out = project_feasible(huge, 1.0)
        assert out.b == pytest.approx([0.5**0.5, 0.5**0.5], rel=1e-15)
        assert np.array_equal(out.c, [0.0, -1.0])
        assert np.array_equal(out.xi, [0.5, 0.0])
        # the norms are finite though b @ b and c @ c overflow
        norms = huge.norms()
        assert norms["b"] == pytest.approx(2**0.5 * 1e200, rel=1e-15)
        assert (norms["A"], norms["c"], norms["xi"]) == (0.0, 1e300, 0.5)
        assert not is_feasible(huge, 1e250)

    def test_singular_value_clipping(self):
        M = 0.7
        params = RnnParams(np.diag([2 * M, M / 2]), np.zeros(2), np.zeros(2), np.zeros(2))
        out = project_feasible(params, M)
        svals = np.linalg.svd(out.A, compute_uv=False)
        assert svals == pytest.approx([M, M / 2], abs=1e-12)

    def test_idempotent_and_nonexpansive(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            raw = RnnParams(rng.uniform(-3, 3, (3, 3)), rng.uniform(-3, 3, 3),
                            rng.uniform(-3, 3, 3), rng.uniform(-3, 3, 3))
            once = project_feasible(raw, 1.0)
            twice = project_feasible(once, 1.0)
            assert np.array_equal(once.A, twice.A)
            assert np.array_equal(once.b, twice.b)
            assert is_feasible(once, 1.0)
            for key, val in once.norms().items():
                assert val <= raw.norms()[key] + 1e-12

    @staticmethod
    def certificate_rows(n, M, rng):
        """Flat weight rows on both sides of the Frobenius certificate and of
        the budget: A inside; ||A||_F just below and just above
        M * erm._CERTIFIED; a rank-one A (spectral norm = Frobenius norm) at
        M; spectral norm just above M (1 + 1e-12), which clips; entries of
        1e200 in A and b, whose norms take the overflow fallback; b and c
        outside.  Only the last three rows move."""
        def A_at(norm, ord=None, A=None):
            A = rng.uniform(-1, 1, (n, n)) if A is None else A
            return A * (norm / np.linalg.norm(A, ord))

        def vecs(*norms):
            V = rng.uniform(-1, 1, (3, n))
            return V * (np.array(norms) / np.linalg.norm(V, axis=1))[:, None]

        edge, inside = M * erm._CERTIFIED, (0.5 * M,) * 3
        cases = [(A_at(0.5 * M), vecs(*inside)),
                 (A_at(edge * (1 - 1e-12)), vecs(*inside)),
                 (A_at(edge * (1 + 1e-12)), vecs(*inside)),
                 (A_at(M, A=np.outer(*rng.uniform(-1, 1, (2, n)))), vecs(*inside)),
                 (A_at(M * (1 + 1e-11), 2), vecs(*inside)),
                 (rng.uniform(-1, 1, (n, n)) * 1e200,
                  np.vstack([np.full(n, 1e200), vecs(*inside)[1:]])),
                 (A_at(0.5 * M), vecs(2 * M, 3 * M, 0.5 * M))]
        return np.array([np.concatenate([A.ravel(), *V]) for A, V in cases])

    @pytest.mark.parametrize("L", [1, 3, 7])
    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_certificate_matches_svd_of_every_row(self, n, L):
        M = 0.7
        rows = self.certificate_rows(n, M, np.random.default_rng(10 * n + L))
        moved = (project_reference(rows, n, M) != rows).any(axis=1)
        assert moved.tolist() == [False] * 4 + [True] * 3
        for first in range(len(rows)):
            thetas = rows[(first + np.arange(L)) % len(rows)]
            assert erm._project(thetas, n, M).tobytes() == \
                project_reference(thetas, n, M).tobytes()

    def test_svd_only_for_rows_in_doubt(self, monkeypatch):
        M, n = 0.7, 3
        rows = self.certificate_rows(n, M, np.random.default_rng(5))
        svd, stacked = np.linalg.svd, []

        def spy(a, *args, **kwargs):
            stacked.append(len(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        inside = rows[[0, 1]]
        assert erm._project(inside, n, M) is inside
        # row 6 rescales b and c, but its A is certified
        erm._project(rows[[0, 1, 6]], n, M)
        assert stacked == []
        # rows 2-5 are in doubt, and rows 4 and 5 clip
        erm._project(rows, n, M)
        assert stacked == [4, 2]


def flat(params):
    return np.concatenate([params.A.ravel(), params.b, params.c, params.xi])


def unflat(theta, n):
    nn = n * n
    return RnnParams(theta[:nn].reshape(n, n), theta[nn:nn + n], theta[nn + n:nn + 2 * n],
                     theta[nn + 2 * n:])


class TestRiskAndGrad:
    """The adjoint gradient against differences of the oracle risk."""

    @staticmethod
    def problem(n, k, N=12):
        """Feasible weights and random jet pairs, each target redrawn until
        the largest |mismatch| over the grid beats the second largest by
        0.05, so that the risk is smooth around the weights."""
        rng = np.random.default_rng(100 * n + k)
        scale = 1.0 / math.sqrt(n)
        params = project_feasible(RnnParams(*(rng.uniform(-scale, scale, shape) for shape in
                                              ((n, n), n, n, n))), 1.0)
        V, Z = rng.uniform(-1, 1, (N, k)), rng.uniform(-1, 1, (N, k + 1))
        Y = output_jet(params, V, k)
        while True:
            mismatch = np.sort(np.abs(jet_poly_eval(Y - Z, np.arange(1, k + 1) / k)), axis=1)
            close = mismatch[:, -1] - mismatch[:, -2] < 0.05
            if not close.any():
                return params, V, Z
            Z[close] = rng.uniform(-1, 1, (int(close.sum()), k + 1))

    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    @pytest.mark.parametrize("k", [2, 4, 8, 12])
    def test_matches_central_differences(self, n, k):
        params, V, Z = self.problem(n, k)
        risk, grad = risk_and_grad(flat(params), V, Z, n, k, 1.0)
        assert risk == empirical_risk(params, JetDataset(V, Z, k, 1.0))
        ref = difference_gradient(lambda th: scalar_empirical_risk(unflat(th, n), V, Z, k, 1.0),
                                  flat(params), step=1e-6, central=True)
        assert np.abs(grad - ref).max() <= 1e-6 * max(1.0, np.abs(ref).max())

    def test_first_order_close_to_forward_differences(self):
        # the forward differences at step 1e-5 that descent once took are
        # off by O(1e-5) times the curvature
        params, V, Z = self.problem(2, 4)
        ds = JetDataset(V, Z, 4, 1.0)
        _, grad = risk_and_grad(flat(params), V, Z, 2, 4, 1.0)
        ref = difference_gradient(lambda th: empirical_risk(unflat(th, 2), ds), flat(params))
        assert np.abs(grad - ref).max() <= 1e-3 * max(1.0, np.abs(ref).max())

    def test_zero_at_realizable_optimum_with_zero_mismatch(self):
        # every mismatch is exactly 0, so every seed sign(0) is 0
        ens = EnsembleConfig("fourier", 2, 0.8, 2.0, 1.0, rng_seed=9)
        ds = build_teacher_dataset(sample_ensemble(ens, 4), TEACHER, 3, 1.0)
        risk, grad = risk_and_grad(flat(TEACHER), ds.v, ds.z, 1, 3, 1.0)
        assert risk == 0.0
        assert not grad.any()


class TestSampleSizeCheck:
    def test_examples(self):
        assert sample_size_check(32, 1, 2) == (True, 32)
        assert sample_size_check(31, 1, 2) == (False, 32)
        assert sample_size_check(6, 1, 1) == (True, 6)

    def test_validation(self):
        with pytest.raises(ConfigError):
            sample_size_check(10, 0, 2)


class TestTrain:
    def make_dataset(self, n_inputs=16, k=4):
        ens = EnsembleConfig("fourier", 2, 0.8, 2.0, 1.0, rng_seed=9)
        return build_teacher_dataset(sample_ensemble(ens, n_inputs), TEACHER, k, 1.0)

    def test_teacher_init_retains_zero_risk(self, monkeypatch):
        ds = self.make_dataset()
        cfg = TrainConfig(M=1.0, n=1, restarts=1, max_iters=20, rng_seed=0)
        calls = {"_risk_forward": 0, "_risk_backward": 0}
        for name in calls:
            real = getattr(erm, name)

            def counting(*args, name=name, real=real):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(erm, name, counting)
        result = train(ds, cfg, init=TEACHER)
        assert result.risk <= 1e-9
        assert result.stationary  # no descent step can improve on zero
        # the zero gradient stops the descent before any ladder batch
        assert calls == {"_risk_forward": 1, "_risk_backward": 1}

    def test_no_tried_step_is_not_stationary(self):
        result = train(self.make_dataset(), TrainConfig(M=1.0, n=1, restarts=1, max_iters=0),
                       init=TEACHER)
        assert result.trajectory == (result.risk,) and result.stationary is False

    def test_trajectory_nonincreasing_and_feasible(self):
        ds = self.make_dataset()
        cfg = TrainConfig(M=1.0, n=1, restarts=2, max_iters=25, rng_seed=3)
        result = train(ds, cfg)
        traj = np.array(result.trajectory)
        assert (np.diff(traj) <= 0).all()
        assert is_feasible(result.params, 1.0)
        assert result.risk == traj[-1]

    def test_deterministic(self):
        ds = self.make_dataset(n_inputs=8)
        cfg = TrainConfig(M=1.0, n=1, restarts=2, max_iters=10, rng_seed=4)
        r1 = train(ds, cfg)
        r2 = train(ds, cfg)
        assert np.array_equal(r1.params.A, r2.params.A)
        assert r1.trajectory == r2.trajectory

    def test_improves_on_random_init(self):
        ds = self.make_dataset()
        cfg = TrainConfig(M=1.0, n=1, restarts=2, max_iters=60, rng_seed=1)
        result = train(ds, cfg)
        assert result.risk < result.trajectory[0]

    def test_risk_is_empirical_risk_bit_for_bit(self):
        ds = self.make_dataset()
        for n in (1, 2):
            result = train(ds, TrainConfig(M=1.0, n=n, restarts=2, max_iters=15, rng_seed=5))
            assert result.risk == empirical_risk(result.params, ds)

    def test_gradient_overflow_is_domain_error(self):
        # the risk is 1 (y = 0 against z_0 = 1), but the seed t_p^2 =
        # (T/2)^2 = 2.5e399 of the gradient overflows: refused, not a
        # silent stop of the descent
        ds = JetDataset(np.zeros((1, 2)), [[1.0, 0.0, 0.0]], 2, 1e200)
        zero = scalar_params(b=0.0, c=0.0)
        assert empirical_risk(zero, ds) == 1.0
        with pytest.raises(DomainError, match="the gradient of the risk"):
            train(ds, TrainConfig(M=1.0, n=1, restarts=1), init=zero)

    def test_init_of_other_state_count_rejected(self):
        with pytest.raises(ShapeError, match="train.n"):
            train(self.make_dataset(n_inputs=4), TrainConfig(M=1.0, n=3, restarts=1), init=TEACHER)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(M=0.0, n=1)
        with pytest.raises(ConfigError):
            TrainConfig(M=1.0, n=0)


class TestDatasetSerialization:
    def test_round_trip(self, tmp_path):
        ds = build_teacher_dataset([const_input(0.3), const_input(-0.2)], TEACHER, 3, 1.0)
        path = tmp_path / "ds.json"
        ds.save(path)
        back = JetDataset.load(path)
        assert back.k == 3 and back.T == 1.0 and back.N == 2
        assert np.array_equal(ds.v, back.v)
        assert np.array_equal(ds.z, back.z)

    @settings(database=None, derandomize=True)
    @given(st.integers(2, 12).flatmap(lambda k: st.tuples(
        st.just(k),
        st.integers(1, 6).flatmap(lambda N: st.tuples(*(
            st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                              min_size=size, max_size=size), min_size=N, max_size=N)
            for size in (k, k + 1)
        ))),
        st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    )))
    def test_json_round_trip_is_bitwise(self, case):
        k, (V, Z), T = case
        ds = JetDataset(np.array(V), np.array(Z), k, T)
        back = JetDataset.from_json_dict(json.loads(json.dumps(ds.to_json_dict())))
        assert (back.k, back.N) == (k, len(V))
        assert np.float64(back.T).tobytes() == np.float64(T).tobytes()
        assert back.v.tobytes() == ds.v.tobytes()
        assert back.z.tobytes() == ds.z.tobytes()

    def test_n_mismatch_rejected(self):
        doc = {"k": 2, "T": 1.0, "N": 2, "pairs": [{"v": [0.0, 0.0], "z": [0.0, 0.0, 0.0]}]}
        with pytest.raises(ConfigError):
            JetDataset.from_json_dict(doc)

    def test_order_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            JetDataset([[0.0]], [[0.0, 0.0, 0.0]], 2, 1.0)
        with pytest.raises(ShapeError):
            JetDataset([[0.0, 0.0]], [[0.0, 1.0]], 2, 1.0)  # short z row

    def test_nonfinite_entry_rejected(self):
        with pytest.raises(DomainError):
            JetDataset([[0.0, np.nan]], [[0.0, 0.0, 0.0]], 2, 1.0)

    def test_bool_order_rejected(self):
        # True == 1 would pass the shape check of jets of order 0 and 1
        with pytest.raises(ConfigError, match="k must be a whole number"):
            JetDataset([[0.0]], [[0.0, 0.0]], True, 1.0)


class TestDescentPinned:
    """Descents recorded when each step size was tried by its own forward
    sweep, halving one trial at a time: an accepted step that moves, or a
    reordered operation in the jet map, the loss or the projection, changes
    a bit here."""

    PINNED = Path(__file__).with_name("descent_pinned.json")
    TEACHER2 = RnnParams([[0.3, -0.4], [0.2, 0.1]], [0.8, -0.3], [0.5, 0.4], [0.1, -0.2])
    # outside the M = 0.5 budget, so descent pushes candidates onto its boundary
    TEACHER3 = RnnParams([[-1.24, -0.79, 0.9], [0.25, -1.22, -0.2], [-0.06, -1.02, 0.7]],
                         [-1.16, -0.33, 0.05], [-0.28, 0.35, 0.95], [0.46, -0.22, 0.15])
    # inside the M = 1 budget; at rng_seed 21 the first two of three random
    # starts fall outside it (A of spectral norm 1.06) and the third inside
    TEACHER8 = RnnParams(0.03 * (np.arange(64).reshape(8, 8) % 7 - 3), 0.1 * (np.arange(8) % 5 - 2),
                         0.1 * (np.arange(8) % 3 - 1), 0.05 * (np.arange(8) % 4 - 1.5))
    CASES = {
        "n1_k2": (TEACHER, 12, 2, dict(M=1.0, n=1, restarts=1, max_iters=25, rng_seed=1)),
        "n2_k4_two_restarts": (TEACHER2, 16, 4,
                               dict(M=1.0, n=2, restarts=2, max_iters=20, rng_seed=11)),
        "n3_k8_projected": (TEACHER3, 12, 8, dict(M=0.5, n=3, restarts=1, max_iters=15,
                                                  rng_seed=2, step_size=1.0)),
        # stops when all 20 halvings of the last step are rejected
        "n1_k3_ladder_exhausted": (TEACHER, 8, 3, dict(M=1.0, n=1, restarts=1, max_iters=60,
                                                       rng_seed=0, tolerance=0.0)),
        "n1_k3_tolerance": (TEACHER, 8, 3, dict(M=1.0, n=1, restarts=1, max_iters=60,
                                                rng_seed=0, tolerance=1e-4)),
        "n8_k12_three_restarts": (TEACHER8, 24, 12,
                                  dict(M=1.0, n=8, restarts=3, max_iters=8, rng_seed=21)),
        # one input and one state: 6 of its 23 forward sweeps stack 5 to 13
        # rows with N * n == 1; re-recorded when the series sums became
        # einsums, which sum in order where `.sum` had summed pairwise
        "n1_k12_one_input": (TEACHER, 1, 12, dict(M=1.0, n=1, restarts=1, max_iters=10,
                                                  rng_seed=2)),
    }

    @classmethod
    def run(cls, case):
        teacher, n_inputs, k, cfg = cls.CASES[case]
        ens = EnsembleConfig("fourier", 2, 0.8, 2.0, 1.0, rng_seed=9)
        ds = build_teacher_dataset(sample_ensemble(ens, n_inputs), teacher, k, 1.0)
        result = train(ds, TrainConfig(**cfg))
        return {"trajectory": [x.hex() for x in result.trajectory],
                "weights": [float(x).hex() for x in flat(result.params)],
                "best_restart": result.best_restart}

    @pytest.mark.parametrize("case", list(CASES))
    def test_bit_identical_to_recorded_descent(self, case):
        assert self.run(case) == json.loads(self.PINNED.read_text())[case]

    def test_ladder_work_pinned(self, monkeypatch):
        # forward sweeps and their candidate rows: each step's first batch
        # holds as many step sizes as the larger need of the last two steps,
        # and one step size per batch (97 sweeps of one row) gives the same
        # descent; sizing it from the last step alone took (60, 111)
        rows = []
        real = erm._risk_forward

        def counting(thetas, *data):
            rows.append(len(thetas))
            return real(thetas, *data)
        monkeypatch.setattr(erm, "_risk_forward", counting)
        case = "n2_k4_two_restarts"
        assert self.run(case) == json.loads(self.PINNED.read_text())[case]
        assert (len(rows), sum(rows)) == (48, 112)

    def test_first_batch_covers_last_two_rungs(self, monkeypatch):
        # every call of the descent in order: a restart, a backward sweep
        # (which starts a step) or a forward sweep with its candidates' risks
        events = []
        real = {name: getattr(erm, name)
                for name in ("_descend", "_risk_backward", "_risk_forward")}

        def descend(*args):
            events.append(("restart",))
            return real["_descend"](*args)

        def backward(tape):
            events.append(("step",))
            return real["_risk_backward"](tape)

        def forward(thetas, *data):
            risks, tape = real["_risk_forward"](thetas, *data)
            events.append(("sweep", risks))
            return risks, tape
        for name, spy in (("_descend", descend), ("_risk_backward", backward),
                          ("_risk_forward", forward)):
            monkeypatch.setattr(erm, name, spy)
        case = "n2_k4_two_restarts"
        assert self.run(case) == json.loads(self.PINNED.read_text())[case]

        # replay: the accepted rung of a step is the first candidate, over
        # its batches in order, whose risk is below the current one
        steps = differs_from_last_step = 0
        for kind, *rest in events:
            if kind == "restart":
                accepted, risk = [], None
            elif kind == "step":
                want, offset = 1 + max(accepted[-2:], default=0), 0
                steps += 1
            elif risk is None:  # the start's own sweep
                risk = float(rest[0][0])
            else:
                (risks,) = rest
                if offset == 0:  # the step's first batch
                    assert len(risks) == want, (len(accepted), accepted[-2:])
                    differs_from_last_step += want != 1 + (accepted[-1] if accepted else 0)
                lower = np.flatnonzero(risks < risk)
                if lower.size:
                    accepted.append(offset + int(lower[0]))
                    risk = float(risks[lower[0]])
                offset += len(risks)
        assert steps > 20 and differs_from_last_step > 0


class TestStackedKernels:
    """Each row of a stacked forward sweep and projection against the same
    weights in a stack of one, bit for bit."""

    @staticmethod
    def rows(n, L, rng):
        """L flat weight rows cycling through: inside the M = 1 budget; A
        of spectral norm 2 and b, c, xi of norm 2 (all clipped); only b and
        xi outside the budget."""
        out = []
        for i in range(L):
            A = rng.uniform(-1, 1, (n, n))
            b, c, xi = rng.uniform(-1, 1, (3, n))
            kind = i % 3
            A *= (0.5 if kind != 1 else 2.0) / np.linalg.norm(A, 2)
            b, c, xi = (v * scale / np.linalg.norm(v) for v, scale in
                        zip((b, c, xi), ((0.5, 0.5, 0.5), (2.0, 2.0, 2.0), (3.0, 0.5, 1.5))[kind]))
            out.append(np.concatenate([A.ravel(), b, c, xi]))
        return np.array(out)

    @staticmethod
    def same_bits(a, b):
        a, b = np.asarray(a), np.asarray(b)
        return a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("N", [1, 6])
    @pytest.mark.parametrize("L", [1, 3, 7])
    # k = 8 is the first order whose series sums hold 8 terms, where numpy's
    # `sum` would go pairwise; 19 is the largest order a config accepts
    @pytest.mark.parametrize("k", [2, 4, 8, 12, 19])
    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_rows_match_batch_of_one(self, n, k, L, N):
        rng = np.random.default_rng(1000 * n + 10 * k + L + N)
        thetas = self.rows(n, L, rng)
        V, Z = rng.uniform(-1, 1, (N, k)), rng.uniform(-1, 1, (N, k + 1))
        risks, tape = erm._risk_forward(thetas, V, Z, n, k, 1.0)
        projected = erm._project(thetas, n, 1.0)
        assert risks.shape == (L,) and projected.shape == thetas.shape
        for i, theta in enumerate(thetas):
            one_risks, one_tape = erm._risk_forward(theta[None], V, Z, n, k, 1.0)
            assert self.same_bits(risks[i], one_risks[0])
            row, one = erm._tape_row(tape, i), erm._tape_row(one_tape, 0)
            *arrays, (u, X, ARG, S, W) = row
            *one_arrays, one_series = one
            for got, want in zip([*arrays, u, X, ARG, S, W], [*one_arrays, *one_series]):
                assert self.same_bits(got, want)
            assert self.same_bits(erm._risk_backward(row), erm._risk_backward(one))
            assert self.same_bits(projected[i], erm._project(theta[None], n, 1.0)[0])
        if L > 1:
            # both sides of the budget: rows 0 (inside) and 1 (A clipped, b, c, xi rescaled)
            inside, outside = (erm._unflatten(projected[i], n).norms() for i in (0, 1))
            assert np.array_equal(projected[0], thetas[0])
            assert all(v < 0.6 for v in inside.values())
            assert all(v == pytest.approx(1.0, rel=1e-12) for v in outside.values())

    @pytest.mark.parametrize("N", [1, 6])
    @pytest.mark.parametrize("L", [1, 3, 7])
    @pytest.mark.parametrize("k", [2, 4, 8, 12, 19])
    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_tape_mismatch_is_the_loss_polynomial(self, n, k, L, N):
        # the stacked sweep's mismatch is jet_poly_eval of each row's
        # y - z, itself numpy's polyval of the Taylor coefficients, and its
        # risks are the means of the mismatch maxima, all bit for bit
        rng = np.random.default_rng(1000 * n + 10 * k + L + N)
        thetas = self.rows(n, L, rng)
        V, Z = rng.uniform(-1, 1, (N, k)), rng.uniform(-1, 1, (N, k + 1))
        risks, (_, _, t, mismatch, _) = erm._risk_forward(thetas, V, Z, n, k, 1.0)
        assert self.same_bits(t, np.arange(1, k + 1) * (1.0 / k))
        y = jets._jet_and_series(*erm._split(thetas, n), V)[0]
        facts = np.array([float(math.factorial(ell)) for ell in range(k + 1)])
        for i in range(L):
            assert self.same_bits(mismatch[i], jet_poly_eval(y[i] - Z, t))
            for row, taylor in zip(mismatch[i], (y[i] - Z) / facts):
                assert self.same_bits(row, np.polyval(taylor[::-1], t))
        assert self.same_bits(risks, np.abs(mismatch).max(axis=2).mean(axis=1))

    def test_one_recurrence_per_stack(self, monkeypatch):
        # N = n = 1, where the series sums were once pairwise: the stack runs
        # the recurrence once, not once per weight set
        calls = []
        real = jets._jet_and_series

        def counting(*args):
            calls.append(len(args[0]))
            return real(*args)
        for module in (jets, erm):
            monkeypatch.setattr(module, "_jet_and_series", counting)
        rng = np.random.default_rng(5)
        erm._risk_forward(self.rows(1, 3, rng), rng.uniform(-1, 1, (1, 12)),
                          rng.uniform(-1, 1, (1, 13)), 1, 12, 1.0)
        assert calls == [3]
