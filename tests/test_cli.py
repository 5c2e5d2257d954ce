import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetsid import RnnParams, build_dataset, sample_ensemble
from jetsid.cli import cmd_generate, config_from_dict, derive_seed, load_config, main
from jetsid.errors import ConfigError


def base_doc(out_dir):
    return {
        "ensemble": {"kind": "fourier", "m_terms": 2, "R": 0.8, "L": 2.0},
        "ground_truth": {"kind": "named", "name": "linear", "params": {}},
        "k": 3,
        "T": 1.0,
        "N": 6,
        "train": {"M": 1.0, "n": 1, "restarts": 2, "max_iters": 8},
        "sim": {"step": 1.0 / 256, "grid_size": 65},
        "delta": 0.1,
        "probe_count": 4,
        "rng_seed": 7,
        "out_dir": str(out_dir),
    }


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestConfigLoading:
    def test_unknown_field_rejected(self, tmp_path):
        doc = base_doc(tmp_path / "run")
        doc["mystery"] = 1
        assert main(["bounds", "--config", write_config(tmp_path, doc)]) == 2

    def test_missing_field_rejected(self, tmp_path):
        doc = base_doc(tmp_path / "run")
        del doc["ensemble"]
        with pytest.raises(ConfigError, match="ensemble"):
            load_config(write_config(tmp_path, doc))

    def test_parse_error_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"k": 3,\n  broken\n}')
        with pytest.raises(ConfigError, match="line 2"):
            load_config(str(path))

    def test_missing_file_is_io_error(self, tmp_path):
        assert main(["generate", "--config", str(tmp_path / "absent.json")]) == 4

    def test_seed_and_out_overrides(self, tmp_path):
        doc = base_doc(tmp_path / "a")
        cfg = load_config(write_config(tmp_path, doc), seed_override=99,
                          out_override=str(tmp_path / "b"))
        assert cfg.rng_seed == 99
        assert cfg.out_dir == str(tmp_path / "b")

    def test_resolved_echo_has_no_silent_defaults(self, tmp_path):
        cfg = load_config(write_config(tmp_path, base_doc(tmp_path / "run")))
        echo = cfg.to_json_dict()
        assert echo["ensemble"]["rng_seed"] is not None
        assert echo["train"]["rng_seed"] is not None
        assert echo["probe_count"] == 4
        assert echo["c_abs"] == 1.0
        assert echo["ensemble"]["horizon_T"] == 1.0

    def test_horizon_mismatch_rejected(self, tmp_path):
        doc = base_doc(tmp_path / "run")
        doc["ensemble"]["horizon_T"] = 2.0
        with pytest.raises(ConfigError, match="horizon"):
            load_config(write_config(tmp_path, doc))

    def test_validation_exit_code(self, tmp_path):
        doc = base_doc(tmp_path / "run")
        doc["N"] = 0
        assert main(["generate", "--config", write_config(tmp_path, doc)]) == 2

    # config edits that must be rejected, with the command that reads them
    BAD_CONFIG = {
        "non_integer_k": ("bounds", lambda doc: doc.update(k="abc")),
        "fractional_k": ("bounds", lambda doc: doc.update(k=4.5)),
        "fractional_train_n": ("train", lambda doc: doc["train"].update(n=2.5)),
        "fractional_m_terms": ("generate", lambda doc: doc["ensemble"].update(m_terms=2.5)),
    }
    # edits of a valid dataset.json document
    BAD_DATASET = {
        "nan_in_dataset": lambda ds: ds["pairs"][1]["z"].__setitem__(2, math.nan),
        "short_z_row": lambda ds: ds["pairs"][1]["z"].pop(),
        "missing_z": lambda ds: ds["pairs"][0].pop("z"),
        "empty_pairs": lambda ds: ds.update(pairs=[], N=0),
        "fractional_dataset_k": lambda ds: ds.update(k=3.5),
    }
    # model.json edits that `int()` would read as n=1
    BAD_MODEL_N = {"fractional_model_n": 1.5, "string_model_n": "1"}
    BAD_LOG = {
        "log_not_numeric": "iter,risk\n0,abc\n",
        "log_header_only": "iter,risk\n",
        "log_one_column": "iter\n0\n",
    }

    # config values that a dataset.json of k=3, T=1, N=2 does not match
    DATASET_MISMATCH = {
        "dataset_k_mismatch": ("k", 4),
        "dataset_T_mismatch": ("T", 2.0),
        "dataset_N_mismatch": ("N", 5),
    }

    # a missing file evaluate reads is an I/O error (exit 4)
    EXIT_4 = ("evaluate_without_dataset", "evaluate_without_inputs")

    @pytest.mark.parametrize("case", ["corrupt_dataset", "model_without_n", "init_without_n",
                                      "evaluate_without_dataset", "evaluate_without_inputs",
                                      "evaluate_seed_mismatch", *DATASET_MISMATCH,
                                      *BAD_CONFIG, *BAD_DATASET, *BAD_MODEL_N, *BAD_LOG])
    def test_bad_input_file_exits_2(self, tmp_path, capsys, case):
        from jetsid import EnsembleConfig, build_teacher_dataset

        run = tmp_path / "run"
        run.mkdir()
        doc = base_doc(run)
        model = RnnParams([[0.3]], [0.8], [0.5], [0.1])
        without_n = {key: v for key, v in model.to_json_dict().items() if key != "n"}
        ens = EnsembleConfig("fourier", 2, 0.8, 2.0, 1.0, rng_seed=5)
        dataset = build_teacher_dataset(sample_ensemble(ens, 2), model, 3, 1.0).to_json_dict()
        extra = []
        if case == "corrupt_dataset":
            bad, command = run / "dataset.json", "train"
            bad.write_text('{"k": 3, "pairs": [')
        elif case in self.BAD_DATASET:
            self.BAD_DATASET[case](dataset)
            bad, command = run / "dataset.json", "train"
            bad.write_text(json.dumps(dataset))
        elif case == "model_without_n" or case in self.BAD_MODEL_N:
            bad, command = run / "model.json", "evaluate"
            if case in self.BAD_MODEL_N:
                without_n["n"] = self.BAD_MODEL_N[case]
            bad.write_text(json.dumps(without_n))
        elif case == "init_without_n":
            (run / "dataset.json").write_text(json.dumps(dataset))
            bad, command = run / "init.json", "train"
            bad.write_text(json.dumps(without_n))
            extra = ["--init", str(bad)]
        elif case == "evaluate_without_dataset" or case in self.DATASET_MISMATCH:
            # a missing dataset is an I/O error (exit 4), a mismatched one exits 2
            (run / "model.json").write_text(json.dumps(model.to_json_dict()))
            bad, command = run / "dataset.json", "evaluate"
            if case in self.DATASET_MISMATCH:
                bad.write_text(json.dumps(dataset))
                field, value = self.DATASET_MISMATCH[case]
                doc["N"] = 2
                doc[field] = value
        elif case in ("evaluate_without_inputs", "evaluate_seed_mismatch"):
            # train_inputs.json holds the inputs of the config's seed 7,
            # which an evaluate at seed 2 does not draw
            cmd_generate(config_from_dict(doc))
            (run / "model.json").write_text(json.dumps(model.to_json_dict()))
            bad, command = run / "train_inputs.json", "evaluate"
            if case == "evaluate_without_inputs":
                bad.unlink()
            else:
                extra = ["--seed", "2"]
        elif case in self.BAD_LOG:
            (run / "model.json").write_text(json.dumps(model.to_json_dict()))
            bad, command = run / "training_log.csv", "evaluate"
            bad.write_text(self.BAD_LOG[case])
        else:
            command, edit = self.BAD_CONFIG[case]
            edit(doc)
            bad = tmp_path / "config.json"
        path = write_config(tmp_path, doc)
        code, prefix = (4, "i/o error:") if case in self.EXIT_4 else (2, "error:")
        assert main([command, "--config", path, *extra]) == code
        err = capsys.readouterr().err
        assert err.startswith(prefix) and bad.name in err
        if case in self.DATASET_MISMATCH:
            assert f"{self.DATASET_MISMATCH[case][0]}=" in err

    @settings(database=None, derandomize=True)
    @given(
        k=st.integers(2, 12),
        N=st.integers(1, 10**4),
        T=st.floats(0.1, 10.0),
        m_terms=st.integers(1, 5),
        kind=st.sampled_from(["fourier", "polynomial"]),
        R=st.floats(0.01, 10.0),
        n=st.integers(1, 4),
        grid_size=st.integers(2, 1025),
        delta=st.floats(0.001, 0.999),
        probe_count=st.integers(1, 64),
        seed=st.integers(0, 2**63),
        truth=st.sampled_from(["linear", "tanh_affine", "duffing"]),
    )
    def test_config_round_trip(self, k, N, T, m_terms, kind, R, n, grid_size, delta,
                               probe_count, seed, truth):
        doc = base_doc("out")
        doc["ensemble"].update(kind=kind, m_terms=m_terms, R=R)
        doc["train"]["n"] = n
        doc["sim"]["grid_size"] = grid_size
        doc["ground_truth"]["name"] = truth
        doc.update(k=k, N=N, T=T, delta=delta, probe_count=probe_count, rng_seed=seed)
        c = config_from_dict(doc)
        assert config_from_dict(c.to_json_dict()) == c


class TestGenerate:
    def test_deterministic_bytes(self, tmp_path):
        path = write_config(tmp_path, base_doc(tmp_path / "run"))
        assert main(["generate", "--config", path]) == 0
        first = (tmp_path / "run" / "dataset.json").read_bytes()
        assert main(["generate", "--config", path]) == 0
        assert (tmp_path / "run" / "dataset.json").read_bytes() == first

    def test_matches_library_pipeline(self, tmp_path):
        doc = base_doc(tmp_path / "run")
        doc["k"], doc["N"] = 4, 8
        cfg = load_config(write_config(tmp_path, doc))
        cmd_generate(cfg)
        saved = json.loads((tmp_path / "run" / "dataset.json").read_text())
        direct = build_dataset(
            sample_ensemble(cfg.ensemble, 8), cfg.system(), 4, 1.0, cfg.sim
        )
        assert saved["k"] == 4 and saved["N"] == 8
        for pair, v, z in zip(saved["pairs"], direct.v, direct.z):
            assert pair["v"] == pytest.approx(v)
            assert pair["z"] == pytest.approx(z)

    def test_writes_input_specs(self, tmp_path):
        path = write_config(tmp_path, base_doc(tmp_path / "run"))
        assert main(["generate", "--config", path]) == 0
        inputs = json.loads((tmp_path / "run" / "train_inputs.json").read_text())["inputs"]
        assert len(inputs) == 6


class TestTrain:
    def test_missing_dataset_names_path(self, tmp_path, capsys):
        path = write_config(tmp_path, base_doc(tmp_path / "run"))
        (tmp_path / "run").mkdir()
        assert main(["train", "--config", path]) == 4
        assert "dataset.json" in capsys.readouterr().err

    def test_trains_and_logs(self, tmp_path):
        path = write_config(tmp_path, base_doc(tmp_path / "run"))
        assert main(["generate", "--config", path]) == 0
        assert main(["train", "--config", path]) == 0
        model = json.loads((tmp_path / "run" / "model.json").read_text())
        params = RnnParams.from_json_dict(model)
        assert params.n == 1
        rows = read_rows(tmp_path / "run" / "training_log.csv")
        risks = [float(r["risk"]) for r in rows]
        assert risks == sorted(risks, reverse=True) or all(
            a >= b for a, b in zip(risks, risks[1:])
        )

    def test_fixed_seed_reproducible_bytes(self, tmp_path):
        path = write_config(tmp_path, base_doc(tmp_path / "run"))
        main(["generate", "--config", path])
        main(["train", "--config", path])
        first = (tmp_path / "run" / "model.json").read_bytes()
        main(["train", "--config", path])
        assert (tmp_path / "run" / "model.json").read_bytes() == first

    def test_warm_start_keeps_realizable_zero_risk(self, tmp_path):
        from jetsid import EnsembleConfig, build_teacher_dataset

        teacher = RnnParams([[0.3]], [0.8], [0.5], [0.1])
        ens = EnsembleConfig("fourier", 2, 0.8, 2.0, 1.0, rng_seed=5)
        ds = build_teacher_dataset(sample_ensemble(ens, 12), teacher, 3, 1.0)
        run = tmp_path / "run"
        run.mkdir()
        ds.save(run / "dataset.json")
        (run / "teacher.json").write_text(json.dumps(teacher.to_json_dict()))
        doc = base_doc(run)
        doc["train"]["restarts"] = 1
        path = write_config(tmp_path, doc)
        assert main(["train", "--config", path, "--init", str(run / "teacher.json")]) == 0
        rows = read_rows(run / "training_log.csv")
        assert float(rows[-1]["risk"]) <= 1e-9


class TestEvaluate:
    def run_pipeline(self, tmp_path, doc=None):
        doc = doc or base_doc(tmp_path / "run")
        path = write_config(tmp_path, doc)
        assert main(["generate", "--config", path]) == 0
        assert main(["train", "--config", path]) == 0
        assert main(["evaluate", "--config", path]) == 0
        return path, json.loads((tmp_path / "run" / "report.json").read_text())

    def test_report_totals_consistent(self, tmp_path):
        _, report = self.run_pipeline(tmp_path)
        fm = report["bounds"]["fixed_model"]
        expected = (
            fm["output_modulus_term"] + fm["input_modulus_term"]
            + fm["jet_truncation_term"] + fm["bernstein_gap_term"]
        )
        assert fm["total"] == pytest.approx(expected, abs=1e-12)
        erm = report["bounds"]["erm"]
        expected = (
            erm["output_modulus_term"] + erm["input_modulus_term"]
            + erm["jet_truncation_term"] + erm["approximation_error"]
            + erm["estimation_error"]
        )
        assert erm["total"] == pytest.approx(expected, abs=1e-12)
        assert report["bounds"]["c_abs"] == 1.0
        # end-to-end: held-out risk sits inside the fixed-model certificate
        slack = 3.0 * report["risk_standard_error"]
        assert report["empirical_risk"] <= fm["total"] + slack

    def test_held_out_inputs_disjoint(self, tmp_path):
        _, report = self.run_pipeline(tmp_path)
        train_set = {json.dumps(s, sort_keys=True) for s in report["train_inputs"]}
        eval_set = {json.dumps(s, sort_keys=True) for s in report["eval_inputs"]}
        assert not train_set & eval_set
        assert report["seeds"]["eval"] != report["seeds"]["ensemble"]

    def test_zero_model_against_zero_truth(self, tmp_path):
        doc = base_doc(tmp_path / "run")
        zero = RnnParams(np.zeros((1, 1)), [0.3], [0.0], [0.0])
        doc["ground_truth"] = {"kind": "rnn", "params": zero.to_json_dict()}
        path = write_config(tmp_path, doc)
        run = tmp_path / "run"
        assert main(["generate", "--config", path]) == 0
        (run / "model.json").write_text(json.dumps(zero.to_json_dict()))
        assert main(["evaluate", "--config", path]) == 0
        report = json.loads((run / "report.json").read_text())
        assert report["empirical_risk"] == pytest.approx(0.0, abs=1e-9)

    def test_infeasible_model_rejected(self, tmp_path):
        doc = base_doc(tmp_path / "run")
        path = write_config(tmp_path, doc)
        run = tmp_path / "run"
        run.mkdir()
        big = RnnParams(np.zeros((1, 1)), [5.0], [1.0], [0.0])
        (run / "model.json").write_text(json.dumps(big.to_json_dict()))
        assert main(["evaluate", "--config", path]) == 2

    @pytest.mark.parametrize("probe_count", [3, 10])
    def test_fused_estimates_match_separate_runs(self, tmp_path, monkeypatch, probe_count):
        # k divides grid_size - 1, so the truth batch runs on the config's
        # grid: gamma is bibo_gain_estimate's, and the modulus that of a
        # separate run of the first min(8, probe_count) probes
        import jetsid.cli as cli
        from jetsid import bibo_gain_estimate, simulate
        from jetsid.bounds import empirical_modulus

        doc = base_doc(tmp_path / "run")
        doc["ground_truth"] = {"kind": "named", "name": "duffing", "params": {}}
        doc["k"], doc["probe_count"] = 4, probe_count
        path = write_config(tmp_path, doc)
        cfg = load_config(path)
        assert main(["generate", "--config", path]) == 0
        assert main(["train", "--config", path]) == 0
        seen = []
        real = cli._bound_report

        def spy(config, model_n, gap_mean, Lbar_star, fixed, omega_Y, source, gamma, probes):
            seen.append((omega_Y, source, gamma, probes))
            return real(config, model_n, gap_mean, Lbar_star, fixed, omega_Y, source,
                        gamma, probes)

        monkeypatch.setattr(cli, "_bound_report", spy)
        assert main(["evaluate", "--config", path]) == 0
        ((omega_Y, source, gamma, probes),) = seen
        system = cfg.system()
        assert (source, probes) == ("empirical", probe_count)
        assert gamma == bibo_gain_estimate(system, cfg.ensemble.R, probe_count, cfg.T,
                                           derive_seed(cfg.rng_seed, 4), cfg.sim)
        specs = sample_ensemble(cfg.ensemble.reseeded(derive_seed(cfg.rng_seed, 3)),
                                probe_count)
        outputs = simulate(system, specs[:8], cfg.T, cfg.sim)
        separate = empirical_modulus(outputs, cfg.T)
        for delta in (0.01, 0.05, 0.2, 0.5, 1.0):
            assert omega_Y(delta) == separate(delta)

    @pytest.mark.parametrize("system", ["linear", "duffing"])
    def test_simulation_count(self, tmp_path, monkeypatch, system):
        # evaluate makes one ground-truth and one model simulation; a full
        # sweep point adds the dataset build
        import jetsid.bounds
        import jetsid.cli
        import jetsid.erm
        import jetsid.rnn

        calls = []
        real = jetsid.rnn.simulate

        def counting(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        for mod in (jetsid.cli, jetsid.bounds, jetsid.erm, jetsid.rnn):
            monkeypatch.setattr(mod, "simulate", counting, raising=False)
        doc = base_doc(tmp_path / "run")
        doc["ground_truth"] = {"kind": "named", "name": system, "params": {}}
        doc["sweep"] = {"param": "k", "values": [4], "mode": "full"}
        path = write_config(tmp_path, doc)
        assert main(["generate", "--config", path]) == 0
        assert main(["train", "--config", path]) == 0
        calls.clear()
        assert main(["evaluate", "--config", path]) == 0
        assert len(calls) == 2
        calls.clear()
        assert main(["sweep", "--config", path]) == 0
        assert read_rows(tmp_path / "run" / "sweep.csv")[0]["error"] == ""
        assert len(calls) == 3

    def test_timings_in_sidecar_not_report(self, tmp_path):
        _, report = self.run_pipeline(tmp_path)
        assert "timings" not in report
        timings = json.loads((tmp_path / "run" / "timings.json").read_text())
        assert set(timings) == {"dataset_and_risk", "held_out_probes", "bounds"}


class TestSweep:
    def test_bounds_only_k_sweep_monotone(self, tmp_path):
        doc = base_doc(tmp_path / "run")
        doc["sweep"] = {"param": "k", "values": [2, 4, 8, 16], "mode": "bounds_only"}
        path = write_config(tmp_path, doc)
        assert main(["sweep", "--config", path]) == 0
        rows = read_rows(tmp_path / "run" / "sweep.csv")
        assert [r["error"] for r in rows] == [""] * 4
        for col in (
            "fixed_model.output_modulus_term",
            "fixed_model.input_modulus_term",
            "fixed_model.jet_truncation_term",
        ):
            vals = [float(r[col]) for r in rows]
            assert all(a > b for a, b in zip(vals, vals[1:])), col

    def test_full_mode_and_failure_row(self, tmp_path):
        doc = base_doc(tmp_path / "run")
        doc["N"] = 4
        doc["probe_count"] = 3
        doc["train"]["restarts"] = 1
        doc["train"]["max_iters"] = 3
        doc["sweep"] = {"param": "k", "values": [2, 1, 3]}
        path = write_config(tmp_path, doc)
        assert main(["sweep", "--config", path, "--jobs", "2"]) == 0
        rows = read_rows(tmp_path / "run" / "sweep.csv")
        assert rows[0]["error"] == "" and rows[2]["error"] == ""
        assert "k must be >= 2" in rows[1]["error"]
        assert float(rows[0]["risk"]) >= 0.0
        assert rows[0]["mode"] == "full"

    @pytest.mark.parametrize("system", ["linear", "duffing"])
    def test_full_point_matches_cli_chain(self, tmp_path, system):
        # one sweep point and generate -> train -> evaluate share one path:
        # linear declares its output modulus, duffing takes the empirical one
        doc = base_doc(tmp_path / "chain")
        doc["ground_truth"] = {"kind": "named", "name": system, "params": {}}
        doc["N"], doc["probe_count"] = 4, 3
        doc["sim"]["grid_size"] = 33
        doc["sweep"] = {"param": "k", "values": [doc["k"]], "mode": "full"}
        path = write_config(tmp_path, doc)
        seed = str(derive_seed(doc["rng_seed"], 1000))
        for command in ("generate", "train", "evaluate"):
            assert main([command, "--config", path, "--seed", seed]) == 0
        assert main(["sweep", "--config", path, "--out", str(tmp_path / "sweep")]) == 0
        (chain,) = read_rows(tmp_path / "chain" / "report_row.csv")
        (point,) = read_rows(tmp_path / "sweep" / "sweep.csv")
        assert point["error"] == ""
        shared = sorted(set(chain) & set(point))
        assert len(shared) == 24
        assert [chain[c] for c in shared] == [point[c] for c in shared]

    def test_missing_sweep_block(self, tmp_path):
        path = write_config(tmp_path, base_doc(tmp_path / "run"))
        assert main(["sweep", "--config", path]) == 2


class TestBoundsCommand:
    def test_writes_report(self, tmp_path):
        path = write_config(tmp_path, base_doc(tmp_path / "run"))
        assert main(["bounds", "--config", path]) == 0
        doc = json.loads((tmp_path / "run" / "bounds.json").read_text())
        assert doc["bounds"]["vc_bound"] > 0
        assert doc["bounds"]["erm"]["sample_size_threshold"] > 0
        assert doc["config"]["k"] == 3
        rows = read_rows(tmp_path / "run" / "bounds_row.csv")
        assert len(rows) == 1
        assert float(rows[0]["fixed_model.total"]) > 0

    def test_worst_case_terms_match_formula(self, tmp_path):
        cfg = load_config(write_config(tmp_path, base_doc(tmp_path / "run")))
        from jetsid.cli import _closed_form_report

        report = _closed_form_report(cfg)
        M, T, k = 1.0, 1.0, 3
        L_Y = cfg.system().output_lipschitz(0.8)
        assert report.fixed_model.output_modulus_term == pytest.approx(
            2.0 * L_Y / math.sqrt(k)
        )
        assert report.fixed_model.input_modulus_term == pytest.approx(
            2.0 * M * M * math.exp(M * T) * 2.0 * 2.0 / math.sqrt(k)
        )
