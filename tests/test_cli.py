import ast
import contextlib
import copy
import csv
import io
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jetsid
from jetsid import RnnParams, build_dataset, sample_ensemble
from jetsid.cli import (ExperimentConfig, cmd_generate, config_from_dict, derive_seed,
                        load_config, main)
from jetsid.errors import ConfigError, write_json

from test_cli_pinned import DUFFING, SWEEP_LINEAR_K, TEACHER_FIT


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


def diverging_doc(out_dir):
    # negative damping makes the Duffing state overflow a float near t = 14
    doc = base_doc(out_dir)
    doc["ground_truth"] = {"kind": "named", "name": "duffing", "params": {"damping": -60.0}}
    doc["T"], doc["N"] = 20.0, 2
    return doc


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
        assert set(echo) == {"ensemble", "ground_truth", "k", "T", "N", "train", "sim", "delta",
                             "probe_count", "rng_seed", "out_dir", "c_abs", "sweep"}
        assert set(echo["ensemble"]) == {"kind", "m_terms", "R", "L", "horizon_T", "rng_seed",
                                         "coef_scale", "freq_range", "phase_range"}
        assert set(echo["train"]) == {"M", "n", "restarts", "max_iters", "step_size", "rng_seed",
                                      "tolerance"}
        assert set(echo["sim"]) == {"step", "grid_size"}
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
        "negative_c_abs": ("bounds", lambda doc: doc.update(c_abs=-1)),
        "nan_c_abs": ("bounds", lambda doc: doc.update(c_abs=math.nan)),
        "infinite_train_M": ("bounds", lambda doc: doc["train"].update(M=math.inf)),
        "negative_train_seed": ("bounds", lambda doc: doc["train"].update(rng_seed=-1)),
        "negative_ensemble_seed": ("generate", lambda doc: doc["ensemble"].update(rng_seed=-1)),
        "sweep_not_object": ("sweep", lambda doc: doc.update(sweep=5)),
        "sweep_values_not_list": ("sweep", lambda doc: doc.update(sweep={"param": "k", "values": 5})),
        "sweep_values_string": ("sweep",
                                lambda doc: doc.update(sweep={"param": "k", "values": "24"})),
        "duffing_short_xi0": ("generate", lambda doc: doc["ground_truth"].update(
            name="duffing", params={"xi0": [0.0]})),
        "out_dir_not_string": ("generate", lambda doc: doc.update(out_dir=5)),
        # nonfinite floats, which would be echoed as Infinity or make gamma nonfinite
        "infinite_train_tolerance": ("bounds", lambda doc: doc["train"].update(tolerance=math.inf)),
        "infinite_sim_step": ("bounds", lambda doc: doc["sim"].update(step=math.inf)),
        "nan_linear_xi0": ("bounds", lambda doc: doc["ground_truth"].update(
            params={"xi0": math.nan})),
        "infinite_linear_xi0": ("bounds", lambda doc: doc["ground_truth"].update(
            params={"xi0": -math.inf})),
        # a real field takes neither a bool nor a string
        "train_M_true": ("train", lambda doc: doc["train"].update(M=True)),
        "delta_string": ("bounds", lambda doc: doc.update(delta="0.1")),
        "linear_decay_string": ("bounds", lambda doc: doc["ground_truth"].update(
            params={"decay": "2"})),
        "sim_step_true": ("generate", lambda doc: doc["sim"].update(step=True)),
        "duffing_xi0_strings": ("generate", lambda doc: doc["ground_truth"].update(
            name="duffing", params={"xi0": ["0.1", "0.2"]})),
        "ground_truth_empty_list": ("bounds", lambda doc: doc.update(ground_truth=[])),
        "rnn_truth_A_bool": ("bounds", lambda doc: doc.update(ground_truth={
            "kind": "rnn", "params": {"A": [True], "b": [1.0], "c": [1.0], "xi": [0.0], "n": 1}})),
    }
    # unknown and missing fields of each config block, with the message
    # naming the block (sim has no required field), then two fields of the
    # wrong type, with the message naming the field
    BAD_FIELDS = {
        "unknown_top_field": ("unknown config fields", lambda doc: doc.update(mystery=1)),
        "missing_top_field": ("missing config fields", lambda doc: doc.pop("delta")),
        "unknown_ensemble_field": ("unknown ensemble fields",
                                   lambda doc: doc["ensemble"].update(mystery=1)),
        "missing_ensemble_field": ("missing ensemble fields", lambda doc: doc["ensemble"].pop("L")),
        "unknown_train_field": ("unknown train fields", lambda doc: doc["train"].update(mystery=1)),
        "missing_train_field": ("missing train fields", lambda doc: doc["train"].pop("M")),
        # the finite-difference step went with the finite-difference gradient
        "train_fd_step": ("unknown train fields", lambda doc: doc["train"].update(fd_step=1e-5)),
        "unknown_sim_field": ("unknown sim fields", lambda doc: doc["sim"].update(method="rk4")),
        "unknown_sweep_field": ("unknown sweep fields", lambda doc: doc.update(
            sweep={"param": "k", "values": [2], "mystery": 1})),
        "missing_sweep_param": ("missing sweep fields", lambda doc: doc.update(sweep={"values": [2]})),
        "ground_truth_string": ("ground_truth must be a JSON object",
                                lambda doc: doc.update(ground_truth="linear")),
        # a string in a real field is refused naming the field, not by numpy
        "ensemble_R_string": ("ensemble.R must be a real number",
                              lambda doc: doc["ensemble"].update(R="0.8")),
        "negative_train_tolerance": ("train.tolerance must be >= 0",
                                     lambda doc: doc["train"].update(tolerance=-1)),
        "reversed_freq_range": ("bad freq_range",
                                lambda doc: doc["ensemble"].update(freq_range=[3.0, 0.5])),
        "unknown_ground_truth_field": ("unknown ground_truth fields",
                                       lambda doc: doc["ground_truth"].update(extra=1)),
        "rnn_truth_without_params": ("rnn ground truth needs a params block",
                                     lambda doc: doc.update(ground_truth={"kind": "rnn"})),
    }
    # configs whose certificates overflow a float, with the growth factor or
    # term the error must name: e^(MT) at M = 1e300 or T = 1e300, an rnn
    # teacher's e^(||A|| T) = e^1000, M^2 = 1e400 at a harmless MT = 10,
    # and 2 M^2 e^(MT) = 2e300 * e^100 overflowing in a product
    OVERFLOW = {
        "overflow_train_M": ("ERM bound e^(M T)", lambda doc: doc["train"].update(M=1e300)),
        "overflow_T": ("ERM bound e^(M T)", lambda doc: doc.update(T=1e300)),
        "overflow_rnn_truth": ("output modulus bound e^(||A|| T)", lambda doc: doc.update(ground_truth={
            "kind": "rnn", "params": {"A": [1000.0], "b": [1.0], "c": [1.0], "xi": [0.0], "n": 1}})),
        "overflow_train_M_squared": ("ERM bound term input_modulus_term", lambda doc: (
            doc["train"].update(M=1e200), doc.update(T=1e-199))),
        "overflow_in_product": ("ERM bound term input_modulus_term", lambda doc: (
            doc["train"].update(M=1e150), doc.update(T=1e-148))),
    }
    # size fields past their documented maximum, with the command that would
    # try to allocate them and the field the error must name
    TOO_LARGE = {
        "huge_N": ("generate", "N", lambda doc: doc.update(N=1e300)),
        "huge_k": ("generate", "k", lambda doc: doc.update(k=1e300)),
        # the output lift of k = 20 takes 21 samples, past the conditioning limit
        "k_20": ("generate", "k", lambda doc: doc.update(k=20)),
        "huge_grid_size": ("generate", "sim.grid_size",
                           lambda doc: doc["sim"].update(grid_size=1e30)),
        "huge_m_terms": ("generate", "ensemble.m_terms",
                         lambda doc: doc["ensemble"].update(m_terms=1e300)),
        "huge_train_n": ("bounds", "train.n", lambda doc: doc["train"].update(n=1e30)),
    }
    # configs that load but that the command refuses when it runs, with the
    # text the error must hold: T^2 in the input jets of k = 3 overflows a
    # float at T = 1e160 and underflows to 0 at T = 1e-300, a step of 1e-12
    # takes 6.4e10 RK4 steps, and the smallest subnormal step makes the
    # step ratio itself overflow
    REFUSED_AT_RUN = {
        "huge_T_generate": ("generate", "horizon 1e+160", lambda doc: doc.update(T=1e160)),
        "tiny_T_generate": ("generate", "horizon 1e-300", lambda doc: doc.update(T=1e-300)),
        "tiny_sim_step": ("generate", "sim.step 1e-12 takes over",
                          lambda doc: doc["sim"].update(step=1e-12)),
        "subnormal_sim_step": ("generate", "sim.step 5e-324 takes over",
                               lambda doc: doc["sim"].update(step=5e-324)),
        "no_out_dir": ("generate", "no output directory", lambda doc: doc.pop("out_dir")),
    }
    # edits of a valid dataset.json document
    BAD_DATASET = {
        "nan_in_dataset": lambda ds: ds["pairs"][1]["z"].__setitem__(2, math.nan),
        "short_z_row": lambda ds: ds["pairs"][1]["z"].pop(),
        "missing_z": lambda ds: ds["pairs"][0].pop("z"),
        "empty_pairs": lambda ds: ds.update(pairs=[], N=0),
        "fractional_dataset_k": lambda ds: ds.update(k=3.5),
        "negative_dataset_T": lambda ds: ds.update(T=-1.0),
        "nan_dataset_T": lambda ds: ds.update(T=math.nan),
        "string_dataset_T": lambda ds: ds.update(T="1.0"),
        "dataset_v_string": lambda ds: ds["pairs"][0]["v"].__setitem__(1, "0.3"),
        "dataset_z_bool": lambda ds: ds["pairs"][1]["z"].__setitem__(0, True),
    }
    # edits of a valid model.json document: `int()` would read the two
    # bad n as 1, numpy the string and the bool as numbers, and n = 0 was
    # refused only after the RK4 loop
    BAD_MODEL = {
        "model_without_n": lambda m: m.pop("n"),
        "fractional_model_n": lambda m: m.update(n=1.5),
        "string_model_n": lambda m: m.update(n="1"),
        "model_A_string": lambda m: m.update(A=["0.3"]),
        "model_b_bool": lambda m: m.update(b=[True]),
        "model_n_zero": lambda m: m.update(A=[], b=[], c=[], xi=[], n=0),
        # an integer too large for a float
        "model_A_huge_integer": lambda m: m.update(A=[10**400]),
    }
    # the same kind of edit made to an --init file
    BAD_INIT = {
        "init_without_n": lambda m: m.pop("n"),
        "init_xi_string": lambda m: m.update(xi=["0.1"]),
    }
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

    @pytest.mark.parametrize("case", ["corrupt_dataset", "evaluate_without_dataset",
                                      "evaluate_without_inputs", "evaluate_seed_mismatch",
                                      *DATASET_MISMATCH, *BAD_CONFIG, *BAD_FIELDS, *OVERFLOW,
                                      *TOO_LARGE, *REFUSED_AT_RUN, *BAD_DATASET, *BAD_MODEL,
                                      *BAD_INIT, *BAD_LOG, "huge_model_norm"])
    def test_bad_input_file_exits_2(self, tmp_path, capsys, case):
        from jetsid import EnsembleConfig, build_teacher_dataset

        run = tmp_path / "run"
        run.mkdir()
        doc = base_doc(run)
        model = RnnParams([[0.3]], [0.8], [0.5], [0.1])
        model_doc = model.to_json_dict()
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
        elif case in self.BAD_MODEL:
            # every other file evaluate reads is valid
            cmd_generate(config_from_dict(doc))
            self.BAD_MODEL[case](model_doc)
            bad, command = run / "model.json", "evaluate"
            bad.write_text(json.dumps(model_doc))
        elif case == "huge_model_norm":
            # b @ b overflows a float, |b| = 1.41e200 does not
            bad, command = run / "model.json", "evaluate"
            huge = RnnParams(0.1 * np.eye(2), [1e200, 1e200], [0.5, 0.5], [0.0, 0.0])
            bad.write_text(json.dumps(huge.to_json_dict()))
        elif case in self.BAD_INIT:
            self.BAD_INIT[case](model_doc)
            (run / "dataset.json").write_text(json.dumps(dataset))
            bad, command = run / "init.json", "train"
            bad.write_text(json.dumps(model_doc))
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
        elif case in self.TOO_LARGE or case in self.REFUSED_AT_RUN:
            command, _, edit = {**self.TOO_LARGE, **self.REFUSED_AT_RUN}[case]
            edit(doc)
            bad = tmp_path / "config.json"
        else:
            command, edit = (self.BAD_CONFIG.get(case)
                             or ("bounds", {**self.BAD_FIELDS, **self.OVERFLOW}[case][1]))
            edit(doc)
            bad = tmp_path / "config.json"
        path = write_config(tmp_path, doc)
        code, prefix = (4, "i/o error:") if case in self.EXIT_4 else (2, "error:")
        assert main([command, "--config", path, *extra]) == code
        err = capsys.readouterr().err
        assert err.startswith(prefix)
        named = {**{name: text for name, (text, _) in self.OVERFLOW.items()},
                 **{name: text for name, (_, text, _) in self.REFUSED_AT_RUN.items()}}
        assert named.get(case, bad.name) in err
        if case in self.DATASET_MISMATCH:
            assert f"{self.DATASET_MISMATCH[case][0]}=" in err
        if case in self.BAD_FIELDS:
            assert self.BAD_FIELDS[case][0] in err
        if case in self.TOO_LARGE:
            assert f"{self.TOO_LARGE[case][1]} must be <= " in err
        if case == "model_A_huge_integer":
            assert "A contains nonfinite entries" in err
        if case == "huge_model_norm":
            assert "violates the norm budget" in err and "'b': 1.41421356237309" in err

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
        c_abs=st.floats(1e-3, 1e3),
        step=st.none() | st.floats(1e-4, 1.0),
        step_size=st.floats(1e-3, 10.0),
        tolerance=st.floats(0.0, 1e-3),
        freq_range=st.lists(st.floats(0.0, 10.0), min_size=2, max_size=2).map(sorted),
        sweep=st.none() | st.fixed_dictionaries(
            {"param": st.sampled_from(["k", "N"]),
             "values": st.lists(st.integers(1, 64), min_size=1, max_size=4)},
            optional={"mode": st.sampled_from(["full", "bounds_only"])}),
    )
    def test_config_round_trip(self, k, N, T, m_terms, kind, R, n, grid_size, delta,
                               probe_count, seed, truth, c_abs, step, step_size, tolerance,
                               freq_range, sweep):
        doc = base_doc("out")
        doc["ensemble"].update(kind=kind, m_terms=m_terms, R=R, freq_range=freq_range)
        doc["train"].update(n=n, step_size=step_size, tolerance=tolerance)
        doc["sim"].update(grid_size=grid_size, step=step)
        doc["ground_truth"]["name"] = truth
        doc.update(k=k, N=N, T=T, delta=delta, probe_count=probe_count, rng_seed=seed,
                   c_abs=c_abs, sweep=sweep)
        c = config_from_dict(doc)
        echo = json.loads(json.dumps(c.to_json_dict()))
        if sweep is not None:
            assert echo["sweep"] == {"mode": "full", **sweep}
        assert config_from_dict(echo) == c
        assert ExperimentConfig.from_json_dict(echo) == c


class TestConfigFuzz:
    """No config ends in a traceback: every edit of one or two fields of a
    valid config, each set to an edge value of some JSON type or deleted, makes
    `bounds`, `generate` and `sweep` exit 0, 2, 3 or 4, and a command that
    exits 0 writes JSON without NaN or Infinity."""

    # the benchmark's identify_duffing and sweep_linear_k configs and an rnn
    # teacher's, shrunk so that each command takes milliseconds, as resolved
    # echoes: every field, defaults and the teacher's arrays included, is
    # there to edit
    ECHOES = [config_from_dict(dict(doc, N=4, probe_count=2, sim={"grid_size": 33},
                                    sweep={"param": "k", "values": [2, 3],
                                           "mode": "bounds_only"})).to_json_dict()
              for doc in (DUFFING, SWEEP_LINEAR_K, TEACHER_FIT)]
    DELETE = object()
    VALUES = [0, -1, 1e300, -1e300, 1e-300, math.nan, math.inf, -math.inf, "", "x", None, [],
              [1], {}, 10**30, True, DELETE]

    @staticmethod
    def draw_field(data, node):
        """A field or list entry of a JSON document, as its container and
        key: a top-level field, or, by a coin flip at each level, one
        nested in it, so that each of the few top-level fields is often
        drawn."""
        while True:
            key = data.draw(st.sampled_from(list(node) if isinstance(node, dict)
                                            else range(len(node))))
            if not (isinstance(node[key], (dict, list)) and node[key] and data.draw(st.booleans())):
                return node, key
            node = node[key]

    @staticmethod
    def reject_constant(name):
        raise ValueError(f"{name} in JSON output")

    @settings(database=None, derandomize=True, max_examples=300, deadline=None)
    @given(data=st.data())
    def test_no_traceback(self, data):
        doc = json.loads(json.dumps(data.draw(st.sampled_from(self.ECHOES))))
        for _ in range(data.draw(st.integers(1, 2))):
            container, key = self.draw_field(data, doc)
            value = data.draw(st.sampled_from(self.VALUES))
            if value is self.DELETE:
                del container[key]
            else:
                container[key] = copy.deepcopy(value)
        with tempfile.TemporaryDirectory() as tmp:
            path = write_config(Path(tmp), doc)
            for command in ("bounds", "generate", "sweep"):
                out = Path(tmp) / command
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = main([command, "--config", path, "--out", str(out)])
                assert code in (0, 2, 3, 4)
                if code == 0:
                    for written in out.glob("*.json"):
                        json.loads(written.read_text(), parse_constant=self.reject_constant)


class TestFileFuzz:
    """No file that `generate` and `train` write ends in a traceback when it
    is edited: every edit of one or two fields or entries of dataset.json,
    model.json (read by `evaluate`, and by `train` as --init) and
    train_inputs.json, or of cells of training_log.csv, each set to a value
    of `TestConfigFuzz.VALUES` or deleted, makes `evaluate` and `train` exit
    0, 2, 3 or 4.  JSON they write at exit 0 holds no NaN or Infinity, and a
    bool or a string in an A, b, c, xi, v or z array never exits 0."""

    ARRAYS = {"A", "b", "c", "xi", "v", "z"}

    @pytest.fixture(scope="class")
    def written(self, tmp_path_factory):
        """The config of a tiny generate -> train run and the four files it
        leaves, parsed: the JSON documents, and the log as a list of rows."""
        run = tmp_path_factory.mktemp("written")
        config = write_config(run, TestConfigFuzz.ECHOES[0])
        with contextlib.redirect_stdout(io.StringIO()):
            for command in ("generate", "train"):
                assert main([command, "--config", config, "--out", str(run)]) == 0
        docs = {name: json.loads((run / name).read_text())
                for name in ("dataset.json", "model.json", "train_inputs.json")}
        with open(run / "training_log.csv", newline="") as fh:
            docs["training_log.csv"] = list(csv.reader(fh))
        return config, docs

    @classmethod
    def text_in_array(cls, node, in_array=False) -> bool:
        """Whether a bool or a string sits in an A, b, c, xi, v or z array
        of a JSON document, or is one."""
        if isinstance(node, dict):
            return any(cls.text_in_array(v, key in cls.ARRAYS) for key, v in node.items())
        if isinstance(node, list):
            return any(cls.text_in_array(v, in_array) for v in node)
        return in_array and isinstance(node, (bool, str))

    @settings(database=None, derandomize=True, max_examples=250, deadline=None)
    @given(data=st.data())
    def test_no_traceback(self, written, data):
        config, docs = written
        docs = copy.deepcopy(docs)
        for _ in range(data.draw(st.integers(1, 2))):
            name = data.draw(st.sampled_from([name for name in sorted(docs) if docs[name]]))
            if name == "training_log.csv":
                container = data.draw(st.sampled_from([row for row in docs[name] if row]))
                key = data.draw(st.sampled_from(range(len(container))))
            else:
                container, key = TestConfigFuzz.draw_field(data, docs[name])
            value = data.draw(st.sampled_from(TestConfigFuzz.VALUES))
            if value is TestConfigFuzz.DELETE:
                del container[key]
            else:
                container[key] = copy.deepcopy(value)
        with tempfile.TemporaryDirectory() as tmp:
            run = Path(tmp)
            for name, doc in docs.items():
                if name == "training_log.csv":
                    with open(run / name, "w", newline="") as fh:
                        csv.writer(fh, lineterminator="\n").writerows(doc)
                else:
                    (run / name).write_text(json.dumps(doc))
            codes = []
            for argv, outputs in (
                    (["evaluate", "--out", str(run)], ["report.json", "timings.json"]),
                    (["train", "--out", str(run / "train"), "--dataset", str(run / "dataset.json"),
                      "--init", str(run / "model.json")], ["train/model.json"])):
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = main([*argv, "--config", config])
                assert code in (0, 2, 3, 4)
                if code == 0:
                    for output in outputs:
                        json.loads((run / output).read_text(),
                                   parse_constant=TestConfigFuzz.reject_constant)
                codes.append(code)
        if any(self.text_in_array(docs[name]) for name in ("dataset.json", "model.json")):
            assert 0 not in codes


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

    def test_largest_k_runs_without_warning(self, tmp_path):
        # pytest turns warnings into errors (pyproject.toml), so a
        # conditioning warning from the k+1-sample output lift fails this
        doc = base_doc(tmp_path / "run")
        doc["k"], doc["N"] = 19, 4
        assert main(["generate", "--config", write_config(tmp_path, doc)]) == 0
        assert json.loads((tmp_path / "run" / "dataset.json").read_text())["k"] == 19

    def test_divergence_exits_3_with_one_line(self, tmp_path, capsys):
        # pytest turns warnings into errors, so an overflow warning from the
        # RK4 loop would escape main as a traceback before the exit-3 line
        path = write_config(tmp_path, diverging_doc(tmp_path / "run"))
        assert main(["generate", "--config", path]) == 3
        err = capsys.readouterr().err
        assert err.startswith("divergence: state became nonfinite at t=")
        assert "(system duffing, sample " in err and err.count("\n") == 1

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

    def test_log_columns_swapped(self, tmp_path):
        # the log is read by its header, whatever the column order
        path, _ = self.run_pipeline(tmp_path)
        (tmp_path / "run" / "training_log.csv").write_text("risk,iter\n0.5,0\n0.25,1\n")
        assert main(["evaluate", "--config", path]) == 0
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert report["loss_trajectory"] == [0.5, 0.25]

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
        from jetsid import simulate
        from jetsid.bounds import empirical_modulus
        from oracles import bibo_gain_estimate

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
        # evaluate steps the ground truth and the model in one RK4 loop; a
        # full sweep point adds the dataset build's loop
        import jetsid.bounds
        import jetsid.cli
        import jetsid.erm
        import jetsid.rnn

        calls = []
        real = jetsid.rnn.simulate_runs

        def counting(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        for mod in (jetsid.cli, jetsid.bounds, jetsid.erm, jetsid.rnn):
            monkeypatch.setattr(mod, "simulate_runs", counting, raising=False)
        doc = base_doc(tmp_path / "run")
        doc["ground_truth"] = {"kind": "named", "name": system, "params": {}}
        doc["sweep"] = {"param": "k", "values": [4], "mode": "full"}
        path = write_config(tmp_path, doc)
        assert main(["generate", "--config", path]) == 0
        assert main(["train", "--config", path]) == 0
        calls.clear()
        assert main(["evaluate", "--config", path]) == 0
        assert [len(runs) for runs in calls] == [2]
        calls.clear()
        assert main(["sweep", "--config", path]) == 0
        assert read_rows(tmp_path / "run" / "sweep.csv")[0]["error"] == ""
        assert [len(runs) for runs in calls] == [1, 2]

    def test_shared_probes_evaluated_once(self, tmp_path, monkeypatch):
        # the held-out probes ride in the ground-truth run and the model run,
        # and their stage values are computed once: 16 probes and 16 gain
        # probes, not 16 + 16 + 16 rows
        import jetsid.rnn

        rows = []
        real = jetsid.rnn._eval_array

        def counting(specs, ts):
            rows.append(len(specs))
            return real(specs, ts)

        doc = base_doc(tmp_path / "run")
        doc["ground_truth"] = {"kind": "named", "name": "duffing", "params": {}}
        doc["probe_count"] = 16
        path = write_config(tmp_path, doc)
        assert main(["generate", "--config", path]) == 0
        assert main(["train", "--config", path]) == 0
        monkeypatch.setattr(jetsid.rnn, "_eval_array", counting)
        assert main(["evaluate", "--config", path]) == 0
        assert rows == [32]

    # the bound report's CSV header, in the order every row file writes it
    BOUND_COLUMNS = [
        "fixed_model.output_modulus_term", "fixed_model.input_modulus_term",
        "fixed_model.jet_truncation_term", "fixed_model.bernstein_gap_term", "fixed_model.total",
        "erm.output_modulus_term", "erm.input_modulus_term", "erm.jet_truncation_term",
        "erm.approximation_error", "erm.estimation_error", "erm.total", "erm.sample_size_ok",
        "erm.sample_size_threshold", "erm.sample_size_waived",
        "vc_bound", "rademacher_bound", "c_abs", "gamma", "gamma_is_estimate",
        "gamma_probe_count", "moduli_source", "sample_size_ok",
    ]

    def test_bound_report_format_pinned(self, tmp_path):
        path, report = self.run_pipeline(tmp_path)
        assert main(["bounds", "--config", path]) == 0
        run = tmp_path / "run"
        header = {name: (run / name).read_text().splitlines()[0].split(",")
                  for name in ("report_row.csv", "bounds_row.csv")}
        assert header["report_row.csv"] == ["k", "N", "risk", "risk_se", *self.BOUND_COLUMNS]
        assert header["bounds_row.csv"] == self.BOUND_COLUMNS
        sweep_doc = {**base_doc(run), "sweep": {"param": "k", "values": [3], "mode": "bounds_only"}}
        assert main(["sweep", "--config", write_config(tmp_path, sweep_doc, "sweep.json")]) == 0
        assert (run / "sweep.csv").read_text().splitlines()[0].split(",") == [
            "param", "value", "k", "N", "mode", "risk", "risk_se", *self.BOUND_COLUMNS, "error"]
        doc = json.loads((run / "bounds.json").read_text())
        assert set(doc) == {"config", "bounds"}
        for bounds in (doc["bounds"], report["bounds"]):
            keys = [f"{key}.{sub}" for key in ("fixed_model", "erm") for sub in bounds[key]]
            keys += [key for key, val in bounds.items() if not isinstance(val, dict)]
            assert sorted(keys) == sorted(self.BOUND_COLUMNS)

    def test_timings_in_sidecar_not_report(self, tmp_path):
        _, report = self.run_pipeline(tmp_path)
        assert "timings" not in report
        timings = json.loads((tmp_path / "run" / "timings.json").read_text())
        assert set(timings) == {"dataset_and_risk", "held_out_probes", "bounds"}


class TestSweep:
    def test_bounds_only_k_sweep_monotone(self, tmp_path):
        doc = base_doc(tmp_path / "run")
        doc["sweep"] = {"param": "k", "values": [2, 4, 8, 16, 25], "mode": "bounds_only"}
        path = write_config(tmp_path, doc)
        assert main(["sweep", "--config", path]) == 0
        rows = read_rows(tmp_path / "run" / "sweep.csv")
        # the failed point's error holds a comma, quoted so that its row
        # keeps one cell per column
        assert [r["error"] for r in rows] == [""] * 4 + ["k must be <= 19, got 25"]
        assert not any(None in r for r in rows)
        rows = rows[:4]
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
        assert len(shared) == 26
        assert [chain[c] for c in shared] == [point[c] for c in shared]

    def test_diverging_points_fill_error(self, tmp_path):
        doc = diverging_doc(tmp_path / "run")
        doc["sweep"] = {"param": "N", "values": [2, 3], "mode": "full"}
        assert main(["sweep", "--config", write_config(tmp_path, doc)]) == 0
        rows = read_rows(tmp_path / "run" / "sweep.csv")
        assert [r["value"] for r in rows] == ["2", "3"]
        assert all(r["error"].startswith("state became nonfinite at t=") for r in rows)

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


def scipy_imports(source: str) -> list[str]:
    """The scipy modules the import statements of `source` name, anywhere
    in its syntax tree, inside functions too."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [f"{name} (line {node.lineno})" for name in names
                  if name.partition(".")[0] == "scipy"]
    return found


class TestImport:
    def test_scipy_imports_detector(self):
        nested = "def f():\n    if True:\n        from scipy.integrate import solve_ivp\n"
        assert scipy_imports(nested) == ["scipy.integrate (line 3)"]
        assert scipy_imports("import numpy, scipy.integrate as si") == ["scipy.integrate (line 1)"]
        assert scipy_imports("from scipy import integrate") == ["scipy (line 1)"]
        assert scipy_imports('from .signals import x\nimport scipyx\n"""scipy"""') == []

    def test_package_does_not_import_scipy(self):
        # scipy is a test and benchmark dependency only: no module of the
        # package imports it, at any depth
        modules = sorted(Path(jetsid.__file__).parent.rglob("*.py"))
        assert len(modules) >= 9
        found = {path.name: scipy_imports(path.read_text()) for path in modules}
        assert {name: hits for name, hits in found.items() if hits} == {}


class TestWriteJson:
    def test_nonfinite_document_refused_before_writing(self, tmp_path):
        for value in (math.inf, -math.inf, math.nan):
            path = tmp_path / "bounds.json"
            with pytest.raises(ConfigError, match=re.escape(str(path))):
                write_json(path, {"bounds": {"total": value}})
            assert not path.exists()

    def test_finite_bytes_unchanged(self, tmp_path):
        doc = {"b": [1.0, 2.5e-300, -0.0], "a": {"z": None, "y": True, "x": 3}}
        write_json(tmp_path / "doc.json", doc)
        expected = json.dumps(doc, sort_keys=True, indent=2) + "\n"
        assert (tmp_path / "doc.json").read_text() == expected
