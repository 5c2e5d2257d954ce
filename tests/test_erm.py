import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    output_jet,
    project_feasible,
    sample_ensemble,
    sample_size_check,
    train,
)
from jetsid.signals import EnsembleConfig, InputSpec

from oracles import scalar_empirical_risk

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

    def test_teacher_init_retains_zero_risk(self):
        ds = self.make_dataset()
        cfg = TrainConfig(M=1.0, n=1, restarts=1, max_iters=20, rng_seed=0)
        result = train(ds, cfg, init=TEACHER)
        assert result.risk <= 1e-9
        assert result.stationary  # no descent step can improve on zero

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
        st.floats(allow_nan=False, allow_infinity=False),
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
