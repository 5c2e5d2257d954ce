import math

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

from jetsid import (
    ConfigError,
    ControlAffineSystem,
    DivergenceError,
    DomainError,
    GROUND_TRUTHS,
    RnnParams,
    SampledSignal,
    ShapeError,
    SimConfig,
    bibo_gain_estimate,
    estimate_modulus,
    io_lipschitz_bound,
    output_modulus_bound,
    output_sup_bound,
    simulate,
    system_from_config,
)
from jetsid.erm import build_dataset, project_feasible
from jetsid.signals import EnsembleConfig, InputSpec, sample_ensemble

from oracles import eval_closed_form, rk4


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

    def test_sampled_input_interpolation(self):
        spec = InputSpec("fourier", [0.8], [3.0], [0.4])
        ts = np.linspace(0.0, 1.0, 257)
        sampled = SampledSignal(eval_closed_form(spec, ts), 1.0)
        params = scalar_params(A=0.2)
        y_exact = simulate(params, [spec], 1.0, FAST)[0]
        y_interp = simulate(params, [sampled], 1.0, FAST)[0]
        assert np.abs(y_exact - y_interp).max() < 1e-5

    def test_divergence_names_first_bad_time(self):
        blowup = ControlAffineSystem(
            name="blowup",
            drift=lambda x: 1.0 + x**2,
            input_gain=lambda x: np.zeros_like(x),
            h=np.array([1.0]),
            xi0=np.array([0.0]),
        )
        with pytest.raises(DivergenceError) as info, np.errstate(over="ignore"):
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


# Right-hand sides written out from the definitions, one state at a time,
# so the oracle shares no code with the systems' batched drift and gain.
ORACLE_RHS = {
    "linear": lambda x, u: -x + u,
    "tanh_affine": lambda x, u: -np.tanh(x) + u / (1.0 + x**2),
    "duffing": lambda x, u: np.array([x[1], -0.5 * x[1] - x[0] - math.tanh(x[0]) ** 3 + u]),
}


def batch_case(name):
    if name in GROUND_TRUTHS:
        system = GROUND_TRUTHS[name]()
        return system, ORACLE_RHS[name], np.asarray(system.xi0, float), system.h
    params = random_rnn(int(name[-1]), seed=int(name[-1]))

    def rhs(x, u):
        return np.tanh(params.A @ x + params.b * u)

    return params, rhs, params.xi, params.c


def input_function(u):
    if isinstance(u, SampledSignal):
        interp = PchipInterpolator(u.grid, u.values)
        return lambda t: float(interp(min(max(t, 0.0), u.horizon_T)))
    return lambda t: float(eval_closed_form(u, t))


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
            f = input_function(u)
            traj = rk4(lambda t, x: rhs(x, f(t)), xi, 0.0, 1.0 / 256, 256)
            assert np.abs(batched[i] - traj[::32] @ hvec).max() <= 1e-12

    @pytest.mark.parametrize("name", BATCH_SYSTEMS)
    def test_rows_match_single_runs_and_oracle(self, name):
        for B in sorted({1, batch_case(name)[0].n, 5}):
            ens = EnsembleConfig("fourier", 2, 0.8, 2.0, 1.0, rng_seed=40 + B)
            self.check_rows(name, sample_ensemble(ens, B))

    @pytest.mark.parametrize("name", BATCH_SYSTEMS)
    def test_mixed_input_kinds(self, name):
        sampled = InputSpec("fourier", [0.6], [2.5], [0.2])
        inputs = [
            InputSpec("fourier", [0.5, -0.2], [2.0, 1.1], [0.3, 1.0]),
            InputSpec("polynomial", [0.2, -0.4, 0.3]),
            SampledSignal(eval_closed_form(sampled, np.linspace(0.0, 1.0, 65)), 1.0),
            const_input(-0.7),
        ]
        self.check_rows(name, inputs)

    def test_empty_batch_rejected(self):
        with pytest.raises(ConfigError):
            simulate(scalar_params(), [], 1.0, FAST)
        # one input is a batch of one, not a bare input
        for bare in (const_input(0.5), SampledSignal([0.0, 0.5, 1.0], 1.0)):
            with pytest.raises(ConfigError, match="list of inputs"):
                simulate(scalar_params(), bare, 1.0, FAST)

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
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as alone:
                simulate(blowup, [inputs[2]], 1.0, cfg)
            with pytest.raises(DivergenceError) as batch:
                simulate(blowup, inputs, 1.0, cfg)
            with pytest.raises(DivergenceError) as dataset:
                build_dataset(inputs, blowup, 4, 1.0, cfg)
        assert 0.0 < batch.value.time < 1.0
        assert batch.value.time == alone.value.time
        assert "sample 2" in str(batch.value)
        assert "sample 2" in str(dataset.value)


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
            bibo_gain_estimate(scalar_params(), 1.0, 0, 1.0, 0)


class TestTrajectoryExport:
    def test_csv_round_trip(self, tmp_path):
        spec = InputSpec("fourier", [0.5], [2.0], [0.1])
        ts = np.linspace(0.0, 1.0, 33)
        u = SampledSignal(eval_closed_form(spec, ts), 1.0)
        y = SampledSignal(
            simulate(scalar_params(), [spec], 1.0, SimConfig(step=1 / 256, grid_size=33))[0], 1.0)
        path = tmp_path / "traj.csv"
        from jetsid import write_trajectory_csv

        write_trajectory_csv(path, u, y)
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        assert path.read_text().splitlines()[0] == "t,u,y"
        assert rows.shape == (33, 3)
        assert rows[:, 1] == pytest.approx(u.values)
        assert rows[:, 2] == pytest.approx(y.values)
        with pytest.raises(DomainError):
            write_trajectory_csv(path, u, SampledSignal(y.values[:-1], 1.0))


class TestGroundTruthLibrary:
    def test_registry_contents(self):
        assert set(GROUND_TRUTHS) == {"linear", "tanh_affine", "duffing"}
        for name, factory in GROUND_TRUTHS.items():
            system = factory()
            assert system.name == name
            assert system.lipschitz  # declared constants present

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
        assert system.params == {"decay": 2.0, "xi0": 0.5}
        rnn = system_from_config({"kind": "rnn", "params": scalar_params().to_json_dict()})
        assert isinstance(rnn, RnnParams)
        with pytest.raises(ConfigError):
            system_from_config({"kind": "named", "name": "nope"})
        with pytest.raises(ConfigError):
            system_from_config({"kind": "named", "name": "linear", "params": {"bogus": 1}})
        with pytest.raises(ConfigError):
            system_from_config({"kind": "mystery"})
