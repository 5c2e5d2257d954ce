import json
import math
from pathlib import Path

import numpy as np
import pytest

from jetsid import (
    ConfigError,
    ControlAffineSystem,
    DivergenceError,
    DomainError,
    GROUND_TRUTHS,
    RnnParams,
    ShapeError,
    SimConfig,
    estimate_modulus,
    io_lipschitz_bound,
    output_modulus_bound,
    output_sup_bound,
    rk4_substeps,
    simulate,
    simulate_runs,
    system_from_config,
)
from jetsid.erm import build_dataset, project_feasible
from jetsid.rnn import bibo_probes
from jetsid.signals import EnsembleConfig, InputSpec, sample_ensemble

from oracles import GROUND_TRUTH_RHS, bibo_gain_estimate, eval_closed_form, rk4


def scalar_params(A=0.0, b=1.0, c=1.0, xi=0.0):
    return RnnParams(np.array([[A]]), np.array([b]), np.array([c]), np.array([xi]))


def const_input(a):
    return InputSpec("polynomial", np.array([float(a)]))


FAST = SimConfig(step=1.0 / 512, grid_size=129)
EPS = np.finfo(float).eps


class TestSimulate:
    def test_zero_readout(self):
        params = scalar_params(c=0.0)
        y = simulate(params, [const_input(1.0)], 1.0, FAST)[0]
        assert np.abs(y).max() == 0.0

    def test_frozen_state(self):
        # zero drive: tanh(0) = 0, state stays at xi
        params = scalar_params(b=0.0, xi=1.0)
        y = simulate(params, [const_input(0.0)], 1.0, FAST)[0]
        assert y == pytest.approx(np.ones(129), abs=1e-14)

    def test_constant_input_closed_form(self):
        # y(t) = tanh(a) * t
        params = scalar_params()
        y = simulate(params, [const_input(1.0)], 1.0, SimConfig(grid_size=65))[0]
        assert y[-1] == pytest.approx(math.tanh(1.0), abs=1e-8)
        assert y == pytest.approx(math.tanh(1.0) * np.linspace(0.0, 1.0, 65), abs=1e-8)

    def test_ramp_input_closed_form(self):
        # u(t) = t: y(t) = log cosh t exactly
        params = scalar_params()
        y = simulate(params, [InputSpec("polynomial", np.array([0.0, 1.0]))], 1.0, FAST)[0]
        expected = np.log(np.cosh(np.linspace(0.0, 1.0, 129)))
        assert y == pytest.approx(expected, abs=1e-10)

    def test_linear_system_step_response(self):
        system = GROUND_TRUTHS["linear"]()
        y = simulate(system, [const_input(1.0)], 1.0, FAST)[0]
        assert y == pytest.approx(1.0 - np.exp(-np.linspace(0.0, 1.0, 129)), abs=1e-9)

    @pytest.mark.parametrize("T", [1.0, 2.5])
    def test_default_step_is_T_over_256(self, T):
        # pins the default: a change to it fails here instead of moving
        # every dataset silently (on the 9-point grid RK4 takes 32 substeps)
        system = GROUND_TRUTHS["duffing"]()
        specs = sample_ensemble(EnsembleConfig("fourier", 2, 0.8, 2.0, T, rng_seed=3), 4)
        assert np.array_equal(simulate(system, specs, T),
                              simulate(system, specs, T, SimConfig(step=T / 256)))
        assert np.array_equal(simulate(system, specs, T, SimConfig(grid_size=9)),
                              simulate(system, specs, T, SimConfig(step=T / 256, grid_size=9)))

    @pytest.mark.parametrize("T", [1.0, 2.5])
    @pytest.mark.parametrize("config", [
        SimConfig(), SimConfig(grid_size=9), SimConfig(grid_size=2), SimConfig(step=1.0 / 100),
        SimConfig(step=1.0 / 700, grid_size=17), SimConfig(step=0.9, grid_size=65)],
        ids=["default", "default-grid9", "default-grid2", "step-1/100", "step-1/700-grid17",
             "coarse-step-grid65"])
    def test_rk4_substeps_counts_simulate_steps(self, T, config):
        # every RK4 step evaluates the drift 4 times, after one shape check
        calls = []

        def drift(x):
            calls.append(1)
            return -x

        system = ControlAffineSystem("counting", drift, lambda x: np.ones_like(x),
                                     np.array([1.0]), np.array([0.0]))
        simulate(system, [const_input(1.0)], T, config)
        assert len(calls) == 1 + 4 * (config.grid_size - 1) * rk4_substeps(T, config)

    def test_rk4_substeps_of_the_default_step(self):
        assert rk4_substeps(2.5) == 1
        assert rk4_substeps(2.5, SimConfig(grid_size=9)) == 32
        assert rk4_substeps(1.0, SimConfig(step=1.0 / 100, grid_size=17)) == 6

    def test_rk4_convergence_order(self):
        # halving the step shrinks the closed-form error by >= 12x
        system = GROUND_TRUTHS["linear"]()
        exact = 1.0 - np.exp(-np.linspace(0.0, 1.0, 17))
        errors = []
        for step in (1.0 / 16, 1.0 / 32, 1.0 / 64):
            y = simulate(system, [const_input(1.0)], 1.0, SimConfig(step=step, grid_size=17))[0]
            errors.append(np.abs(y - exact).max())
        assert errors[0] / errors[1] >= 12.0
        assert errors[1] / errors[2] >= 12.0

    def test_matches_independent_integrator(self):
        rng = np.random.default_rng(0)
        params = project_feasible(
            RnnParams(rng.uniform(-1, 1, (2, 2)), rng.uniform(-1, 1, 2),
                      rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)), 1.0)
        spec = InputSpec("fourier", [0.5], [2.0], [0.3])
        y = simulate(params, [spec], 1.0, SimConfig(step=1.0 / 256, grid_size=9))[0]
        nsteps = 2048
        traj = rk4(
            lambda t, x: np.tanh(params.A @ x + params.b * float(eval_closed_form(spec, t))),
            params.xi, 0.0, 1.0 / nsteps, nsteps,
        )
        oracle_final = float(params.c @ traj[-1])
        assert y[-1] == pytest.approx(oracle_final, abs=1e-9)

    def test_divergence_names_first_bad_time(self):
        blowup = ControlAffineSystem(
            name="blowup",
            drift=lambda x: 1.0 + x**2,
            input_gain=lambda x: np.zeros_like(x),
            h=np.array([1.0]),
            xi0=np.array([0.0]),
        )
        with pytest.raises(DivergenceError) as info:
            simulate(blowup, [const_input(0.0)], 2.0, SimConfig(step=1.0 / 256, grid_size=33))
        assert 0.0 < info.value.time <= 2.0
        assert "t=" in str(info.value)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SimConfig.from_json_dict({"method": "euler"})
        with pytest.raises(ConfigError):
            SimConfig(step=-0.1)
        with pytest.raises(ConfigError):
            SimConfig(grid_size=1)
        with pytest.raises(ConfigError):
            simulate(scalar_params(), [const_input(0.0)], 1.0, SimConfig(step=2.0))
        with pytest.raises(DomainError):
            simulate(scalar_params(), [const_input(0.0)], -1.0, FAST)


def random_rnn(n, seed):
    rng = np.random.default_rng(seed)
    return project_feasible(
        RnnParams(rng.uniform(-1, 1, (n, n)), rng.uniform(-1, 1, n),
                  rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)), 1.0)


def batch_case(name):
    if name in GROUND_TRUTHS:
        system = GROUND_TRUTHS[name]()
        return system, GROUND_TRUTH_RHS[name], np.asarray(system.xi0, float), system.h
    params = random_rnn(int(name[-1]), seed=int(name[-1]))

    def rhs(x, u):
        return np.tanh(params.A @ x + params.b * u)

    return params, rhs, params.xi, params.c


BATCH_SYSTEMS = ["linear", "tanh_affine", "duffing", "rnn1", "rnn2", "rnn3"]
GRID = SimConfig(step=1.0 / 256, grid_size=9)


class TestBatchedSimulate:
    """Row i of a batched run against a batch-of-one run of input i and
    against the independent RK4 in the oracles.

    Tolerances, fixed before measuring: the shipped control-affine systems
    act on each column elementwise, so their rows are bit-identical; the
    RNN's A @ x is a BLAS product whose summation order may depend on the
    batch width, so its rows agree within 64*eps*max(1, max|row|).  The
    oracle takes the same steps with its own arithmetic order, 1e-12."""

    @staticmethod
    def check_rows(name, inputs):
        system, rhs, xi, hvec = batch_case(name)
        batched = simulate(system, inputs, 1.0, GRID)
        assert batched.shape == (len(inputs), GRID.grid_size)
        for i, u in enumerate(inputs):
            single = simulate(system, [u], 1.0, GRID)[0]
            if isinstance(system, RnnParams):
                tol = 64 * EPS * max(1.0, np.abs(single).max())
                assert np.abs(batched[i] - single).max() <= tol
            else:
                assert np.array_equal(batched[i], single)
            traj = rk4(lambda t, x: rhs(x, float(eval_closed_form(u, t))),
                       xi, 0.0, 1.0 / 256, 256)
            assert np.abs(batched[i] - traj[::32] @ hvec).max() <= 1e-12

    @pytest.mark.parametrize("name", BATCH_SYSTEMS)
    def test_rows_match_single_runs_and_oracle(self, name):
        for B in sorted({1, batch_case(name)[0].n, 5}):
            ens = EnsembleConfig("fourier", 2, 0.8, 2.0, 1.0, rng_seed=40 + B)
            self.check_rows(name, sample_ensemble(ens, B))

    @pytest.mark.parametrize("name", BATCH_SYSTEMS)
    def test_mixed_input_kinds(self, name):
        # the stage values are evaluated in groups of one kind and term
        # count; the two 2-term Fourier inputs share a group across others
        inputs = [
            InputSpec("fourier", [0.5, -0.2], [2.0, 1.1], [0.3, 1.0]),
            InputSpec("polynomial", [0.2, -0.4, 0.3]),
            InputSpec("fourier", [0.3, 0.1, -0.25], [1.4, 2.9, 0.7], [2.0, 0.5, 4.1]),
            const_input(-0.7),
            InputSpec("fourier", [-0.4, 0.35], [0.8, 2.4], [1.5, 3.0]),
        ]
        self.check_rows(name, inputs)

    def test_empty_batch_rejected(self):
        with pytest.raises(ConfigError):
            simulate(scalar_params(), [], 1.0, FAST)
        # one input is a batch of one, not a bare input
        for bare in (const_input(0.5), np.array([0.0, 0.5, 1.0])):
            with pytest.raises(ConfigError, match="list of inputs"):
                simulate(scalar_params(), bare, 1.0, FAST)
        # sampled values are not an input: only closed-form InputSpecs are
        with pytest.raises(ConfigError, match="unsupported input type ndarray"):
            simulate(scalar_params(), [np.array([0.0, 0.5, 1.0])], 1.0, FAST)
        # every run of a loop is checked
        with pytest.raises(ConfigError, match="at least one input"):
            simulate_runs([(scalar_params(), [const_input(0.5)]), (scalar_params(), [])], 1.0, FAST)

    def test_one_dim_gain_rejected(self):
        # a (n,) gain broadcasts against the batch axis when B == n, so
        # the rows would silently mix inputs instead of failing
        system = ControlAffineSystem(
            name="flat_gain",
            drift=lambda x: -x,
            input_gain=lambda x: np.array([0.0, 1.0]),
            h=np.array([1.0, 0.0]),
            xi0=np.array([0.0, 0.0]),
        )
        with pytest.raises(ShapeError, match="flat_gain"):
            simulate(system, [const_input(0.5), const_input(-0.5)], 1.0, FAST)
        with pytest.raises(ShapeError, match="input_gain"):
            simulate(system, [const_input(0.5)], 1.0, FAST)

    def test_divergence_names_input_in_batch(self):
        # dx/dt = x^2 + u blows up before t=1 only for the large input
        blowup = ControlAffineSystem(
            name="square",
            drift=lambda x: x**2,
            input_gain=lambda x: np.ones_like(x),
            h=np.array([1.0]),
            xi0=np.array([0.0]),
        )
        inputs = [const_input(a) for a in (0.1, -0.5, 100.0, 0.3)]
        cfg = SimConfig(step=1.0 / 256, grid_size=33)
        with pytest.raises(DivergenceError) as alone:
            simulate(blowup, [inputs[2]], 1.0, cfg)
        with pytest.raises(DivergenceError) as batch:
            simulate(blowup, inputs, 1.0, cfg)
        with pytest.raises(DivergenceError) as dataset:
            build_dataset(inputs, blowup, 4, 1.0, cfg)
        # the same batch as the second run of a loop whose first run stays finite
        with pytest.raises(DivergenceError) as second:
            simulate_runs([(GROUND_TRUTHS["linear"](), inputs), (blowup, inputs)], 1.0, cfg)
        assert 0.0 < batch.value.time < 1.0
        assert batch.value.time == alone.value.time == second.value.time
        assert "system square, sample 2" in str(batch.value)
        assert str(second.value) == str(batch.value)
        assert "sample 2" in str(dataset.value)

    @pytest.mark.parametrize("grid", [GRID, SimConfig()], ids=["substeps32", "default"])
    def test_runs_match_runs_alone(self, grid):
        # runs of every state count and batch width in one loop; the first
        # two share their input list, as a ground truth and its model do
        runs = []
        for r, name in enumerate(["duffing", "rnn2", "linear", "rnn8", "tanh_affine", "rnn1"]):
            ens = EnsembleConfig("fourier", 2, 0.8, 2.0, 1.0, rng_seed=60 + r)
            inputs = runs[0][1] if r == 1 else sample_ensemble(ens, r + 1)
            runs.append((batch_case(name)[0], inputs))
        together = simulate_runs(runs, 1.0, grid)
        assert len(together) == len(runs)
        for (system, inputs), y in zip(runs, together):
            assert np.array_equal(y, simulate(system, inputs, 1.0, grid))


class TestSimulatePinned:
    """Outputs recorded when every RK4 stage built fresh arrays: a reordered
    operation in the stepper, the right-hand sides or the stage inputs
    changes a bit here.  The default grid is pinned at every 4th point,
    the 16-substep grid at every point."""

    PINNED = Path(__file__).with_name("simulate_pinned.json")
    # a horizon whose step is not a power of 2, so that h / 6 and h * (1 / 6) differ
    T = 2.5
    GRIDS = {"default": SimConfig(), "substeps16": SimConfig(step=2.5 / 256, grid_size=17)}
    SYSTEMS = ["rnn1", "rnn2", "rnn8", "linear", "tanh_affine", "duffing"]

    @classmethod
    def system(cls, name):
        if name in GROUND_TRUTHS:
            return GROUND_TRUTHS[name]()
        n = int(name[3:])
        rng = np.random.default_rng(100 + n)
        A, b, c, xi = (rng.uniform(-1, 1, shape) / n for shape in [(n, n), n, n, n])
        return RnnParams(A, b, c, xi)

    @classmethod
    def inputs(cls):
        ens = EnsembleConfig("fourier", 3, 0.8, 2.0, cls.T, rng_seed=17)
        return sample_ensemble(ens, 2) + [InputSpec("polynomial", [0.3, -0.5, 0.2])]

    @classmethod
    def run(cls, name, grid):
        y = simulate(cls.system(name), cls.inputs(), cls.T, cls.GRIDS[grid])
        if grid == "default":
            y = y[:, ::4]
        return [[float(v).hex() for v in row] for row in y]

    @pytest.mark.parametrize("grid", list(GRIDS))
    @pytest.mark.parametrize("name", SYSTEMS)
    def test_bit_identical_to_recorded_run(self, name, grid):
        assert rk4_substeps(self.T, self.GRIDS["substeps16"]) == 16
        assert self.run(name, grid) == json.loads(self.PINNED.read_text())[f"{name}-{grid}"]


class TestCertificates:
    def test_io_lipschitz_examples(self):
        assert io_lipschitz_bound(scalar_params(b=0.0), 1.0) == 0.0
        assert io_lipschitz_bound(scalar_params(), 1.0) == pytest.approx(1.0)
        assert io_lipschitz_bound(scalar_params(A=1.0, b=2.0, c=3.0), 1.0) == pytest.approx(
            6.0 * math.e, abs=1e-12
        )

    def test_output_modulus_examples(self):
        assert output_modulus_bound(scalar_params(c=0.0), 1.0, 0.5) == 0.0
        assert output_modulus_bound(scalar_params(), 1.0, 0.5) == pytest.approx(0.5)
        params = RnnParams(np.eye(4), np.zeros(4), [2.0, 0, 0, 0], np.zeros(4))
        assert output_modulus_bound(params, 1.0, 0.1) == pytest.approx(0.4 * math.e, abs=1e-12)
        with pytest.raises(DomainError):
            output_modulus_bound(params, 1.0, -0.1)

    def test_output_sup_examples(self):
        assert output_sup_bound(scalar_params(c=0.0), 1.0) == 0.0
        assert output_sup_bound(scalar_params(), 1.0) == pytest.approx(1.0)
        params = RnnParams(2.0 * np.eye(4), [2, 0, 0, 0], [2, 0, 0, 0], [2, 0, 0, 0])
        assert output_sup_bound(params, 1.0) == pytest.approx(2.0 * (2.0 + 2.0))

    @pytest.mark.parametrize("seed", range(12))
    def test_empirical_never_exceeds_certificates(self, seed):
        rng = np.random.default_rng(300 + seed)
        n = int(rng.integers(1, 4))
        scale = 1.0 / math.sqrt(n)
        params = project_feasible(
            RnnParams(rng.uniform(-scale, scale, (n, n)), rng.uniform(-scale, scale, n),
                      rng.uniform(-scale, scale, n), rng.uniform(-scale, scale, n)), 1.0)
        ens = EnsembleConfig("fourier", 2, 0.8, 2.0, 1.0, rng_seed=seed)
        u1, u2 = sample_ensemble(ens, 2)
        y1 = simulate(params, [u1], 1.0, FAST)[0]
        y2 = simulate(params, [u2], 1.0, FAST)[0]
        fine = np.linspace(0.0, 1.0, 2049)
        du = np.abs(eval_closed_form(u1, fine) - eval_closed_form(u2, fine)).max()
        if du > 1e-6:
            ratio = np.abs(y1 - y2).max() / du
            assert ratio <= io_lipschitz_bound(params, 1.0) + 1e-6
        assert np.abs(y1).max() <= output_sup_bound(params, 1.0) + 1e-6
        for delta in (0.05, 0.2, 0.5):
            assert (estimate_modulus(y1[None], 1.0, delta)
                    <= output_modulus_bound(params, 1.0, delta) + 1e-6)


class TestBiboGain:
    def test_linear_variation_of_constants(self):
        system = GROUND_TRUTHS["linear"]()
        est = bibo_gain_estimate(system, 1.0, 8, 1.0, rng_seed=0, config=FAST)
        assert est <= 1.0 + 1e-6
        assert est > 0.5  # constant probe u=1 nearly saturates the bound

    def test_zero_system(self):
        assert bibo_gain_estimate(scalar_params(c=0.0), 1.0, 4, 1.0, 0, FAST) == 0.0

    def test_rnn_within_sup_bound(self):
        rng = np.random.default_rng(1)
        params = project_feasible(
            RnnParams(rng.uniform(-1, 1, (2, 2)), rng.uniform(-1, 1, 2),
                      rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)), 1.0)
        est = bibo_gain_estimate(params, 1.0, 6, 1.0, 2, FAST)
        assert est <= output_sup_bound(params, 1.0) + 1e-6

    def test_probe_count_validation(self):
        with pytest.raises(ConfigError):
            bibo_probes(1.0, 0, 1.0, 0)


class TestGroundTruthLibrary:
    def test_registry_contents(self):
        assert set(GROUND_TRUTHS) == {"linear", "tanh_affine", "duffing"}
        for name, factory in GROUND_TRUTHS.items():
            system = factory()
            assert system.name == name

    def test_tanh_affine_certificates_hold(self):
        system = GROUND_TRUTHS["tanh_affine"]()
        y = simulate(system, [const_input(0.9)], 1.0, FAST)
        assert np.abs(y).max() <= system.gamma_bound(0.9, 1.0) + 1e-9
        for delta in (0.1, 0.4):
            assert estimate_modulus(y, 1.0, delta) <= system.output_lipschitz(0.9) * delta + 1e-9

    def test_duffing_runs(self):
        system = GROUND_TRUTHS["duffing"]()
        y = simulate(system, [const_input(0.5)], 2.0, SimConfig(step=1 / 256, grid_size=65))
        assert np.isfinite(y).all()
        assert system.output_lipschitz is None

    def test_system_from_config(self):
        system = system_from_config(
            {"kind": "named", "name": "linear", "params": {"decay": 2.0, "xi0": 0.5}}
        )
        assert system.xi0.tolist() == [0.5]
        assert system.drift(np.array([[1.5]])).tolist() == [[-3.0]]
        rnn = system_from_config({"kind": "rnn", "params": scalar_params().to_json_dict()})
        assert isinstance(rnn, RnnParams)
        with pytest.raises(ConfigError):
            system_from_config({"kind": "named", "name": "nope"})
        with pytest.raises(ConfigError):
            system_from_config({"kind": "named", "name": "linear", "params": {"bogus": 1}})
        with pytest.raises(ConfigError):
            system_from_config({"kind": "mystery"})
