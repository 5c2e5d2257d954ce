"""The names the benchmark (perfbench/spans.py and perfbench/workloads.py)
reads from jetsid, and the literal documents the workloads load.

The tracer wraps functions by name and counts work from their arguments and
results; a helper it cannot find is skipped without a word, so a rename
would zero a count rather than fail.  A name the workloads read that is gone,
or a document a reader refuses, would only show as a crashed benchmark
setup.  Both files are read with `ast` here, never imported or edited.
"""

import ast
import copy
import importlib
import inspect
import json
from dataclasses import replace
from pathlib import Path

import pytest

import jetsid
import jetsid.cli
from jetsid import RnnParams, TrainConfig, build_teacher_dataset, erm, sample_ensemble, train
from jetsid.signals import EnsembleConfig

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
TREE = ast.parse(SPANS.read_text())
WORKLOADS = ast.parse(SPANS.with_name("workloads.py").read_text())


def assigned(name):
    """The literal value assigned to a module-level or local `name`."""
    for node in ast.walk(TREE):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no assignment to {name} in {SPANS}")


def workload_literal(scope, name):
    """The value assigned to `name` in class `scope` of workloads.py, or at
    module level when `scope` is None, each name in it replaced by the
    literal assigned to it in that class or at module level."""
    def literals(body):
        return {target.id: node.value for node in body if isinstance(node, ast.Assign)
                for target in node.targets if isinstance(target, ast.Name)}

    names = literals(WORKLOADS.body)
    if scope is not None:
        names.update(literals(next(node for node in WORKLOADS.body if isinstance(
            node, ast.ClassDef) and node.name == scope).body))

    class Inline(ast.NodeTransformer):
        def visit_Name(self, node):
            return self.visit(names[node.id])

    return ast.literal_eval(Inline().visit(copy.deepcopy(names[name])))


def function(name):
    return next(node for node in ast.walk(TREE)
                if isinstance(node, ast.FunctionDef) and node.name == name)


def resolve(span):
    """The jetsid function behind a span name `module.function`."""
    module, _, attr = span.partition(".")
    return getattr(importlib.import_module(f"jetsid.{module}"), attr)


def argument_reads():
    """(span name, position, parameter name) for every `args[i] if len(args)
    > i else kwargs[name]` (or `kwargs.get(name)`) in a work counter."""
    reads = []
    for branch in ast.walk(function("_work_counter")):
        if not (isinstance(branch, ast.If) and isinstance(branch.test, ast.Compare)):
            continue
        span = branch.test.comparators[0].value
        for body in branch.body:
            for node in ast.walk(body):
                if not (isinstance(node, ast.IfExp) and isinstance(node.body, ast.Subscript)
                        and isinstance(node.body.value, ast.Name)
                        and node.body.value.id == "args"):
                    continue
                fallback = node.orelse
                key = (fallback.slice if isinstance(fallback, ast.Subscript)
                       else fallback.args[0])
                reads.append((span, node.body.slice.value, key.value))
    return reads


@pytest.mark.parametrize("module, path, span", assigned("EXTRA"))
def test_extra_helpers_resolve(module, path, span):
    owner = importlib.import_module(f"jetsid.{module}")
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    assert inspect.getattr_static(owner, attr, None) is not None, f"{span} is gone"


def test_counted_arguments_keep_their_names_and_places():
    reads = argument_reads()
    assert ("jets.output_jet", 1, "input_jet") in reads
    for span, position, name in reads:
        params = list(inspect.signature(resolve(span)).parameters)
        assert params[position] == name, (span, params)


def test_rk4_step_count_reads_simulate_arguments_in_order():
    names = list(assigned("names"))
    assert list(inspect.signature(jetsid.simulate).parameters)[:len(names)] == names


def test_descend_returns_params_trajectory_stationary():
    # the tracer counts erm.train.iters as len(result[1]) - 1 of each descent
    ens = EnsembleConfig("fourier", 2, 0.8, 2.0, 1.0, rng_seed=9)
    teacher = RnnParams([[0.3]], [0.8], [0.5], [0.1])
    ds = build_teacher_dataset(sample_ensemble(ens, 8), teacher, 3, 1.0)
    config = TrainConfig(M=1.0, n=1, restarts=1, max_iters=5)
    start = RnnParams([[0.1]], [0.2], [0.3], [0.0])
    result = erm._descend(ds, config, start)
    assert isinstance(result, tuple) and len(result) == 3
    params, trajectory, stationary = result
    assert isinstance(params, RnnParams) and stationary is False
    assert tuple(trajectory) == train(ds, config, init=start).trajectory
    assert len(trajectory) - 1 == 5


def test_train_descends_once_per_restart(monkeypatch):
    # the tracer reads erm.train.iters from the erm._descend calls, one per
    # restart: a train that stacked its restarts into one call would change
    # the count without failing the benchmark
    ens = EnsembleConfig("fourier", 2, 0.8, 2.0, 1.0, rng_seed=9)
    teacher = RnnParams([[0.3, -0.2], [0.1, 0.4]], [0.8, -0.5], [0.5, 0.6], [0.1, 0.0])
    ds = build_teacher_dataset(sample_ensemble(ens, 8), teacher, 3, 1.0)
    config = TrainConfig(M=1.0, n=2, restarts=3, max_iters=6, rng_seed=4)
    descend, calls = erm._descend, []

    def spy(dataset, config, start):
        calls.append((start, descend(dataset, config, start)))
        return calls[-1][1]

    monkeypatch.setattr(erm, "_descend", spy)
    result = train(ds, config)
    assert len(calls) == 3
    monkeypatch.setattr(erm, "_descend", descend)
    # each call's accepted steps are those of its restart trained alone
    alone = [train(ds, replace(config, restarts=1), init=start).trajectory
             for start, _ in calls]
    traced = [tuple(traj) for _, (_, traj, _) in calls]
    assert traced == alone and sum(len(traj) - 1 for traj in traced) > 3
    assert result.trajectory == alone[result.best_restart]


def test_rk4_stepper_is_a_traced_public_function():
    # the tracer wraps every public function a jetsid module defines; the
    # RK4 loop runs in simulate_runs, whose span keeps its time in rnn.self_s
    # whether it is entered through simulate or directly
    stepper = jetsid.rnn.simulate_runs
    assert inspect.isfunction(stepper) and stepper.__module__ == "jetsid.rnn"
    assert not stepper.__name__.startswith("_")
    assert "simulate_runs" in inspect.getsource(jetsid.rnn.simulate)


def test_workload_reads_exist():
    # every jetsid.<name> and jetsid.cli.<name> the workloads read
    reads = {(ast.unparse(node.value), node.attr) for node in ast.walk(WORKLOADS)
             if isinstance(node, ast.Attribute)
             and ast.unparse(node.value) in ("jetsid", "jetsid.cli")}
    assert ("jetsid", "empirical_risk") in reads and ("jetsid.cli", "main") in reads
    missing = [f"{owner}.{name}" for owner, name in sorted(reads)
               if not hasattr(importlib.import_module(owner), name)]
    assert not missing, f"perfbench/workloads.py reads names jetsid lacks: {missing}"


def test_stopwatch_names_are_public_functions():
    spans = [span for node in ast.walk(WORKLOADS)
             if isinstance(node, ast.Call) and ast.unparse(node.func) == "Stopwatch"
             for span in ast.literal_eval(node.args[0])]
    assert "bounds.probe_risk_and_gap" in spans
    for span in spans:
        module, _, name = span.partition(".")
        fn = getattr(importlib.import_module(f"jetsid.{module}"), name, None)
        assert inspect.isfunction(fn) and fn.__module__ == f"jetsid.{module}", span
        assert not name.startswith("_"), span


def test_workload_documents_load():
    # the documents the workloads hand to the readers, as setup does
    assert RnnParams.from_json_dict(workload_literal("TeacherFit", "TEACHER")).n == 2
    assert TrainConfig.from_json_dict(workload_literal("TeacherFit", "TRAIN")).restarts == 2
    ensemble = dict(workload_literal(None, "FOURIER"), horizon_T=workload_literal(None, "T"),
                    rng_seed=1)
    assert EnsembleConfig.from_json_dict(ensemble).m_terms == 2
    for scope in ("IdentifyDuffing", "SweepLinearK"):
        config = jetsid.cli.config_from_dict(workload_literal(scope, "CONFIG"))
        assert config.ensemble.kind == "fourier", scope


def test_cli_runs_a_command_replaced_after_the_first_call(tmp_path, monkeypatch):
    # the tracer and the sweep's stopwatch replace jetsid.cli.cmd_* after the
    # first command ran; a parser cached with the command functions bound in
    # would keep running the originals
    config = tmp_path / "config.json"
    config.write_text(json.dumps(workload_literal("IdentifyDuffing", "CONFIG")))
    assert jetsid.cli.main(["bounds", "--config", str(tmp_path / "absent.json")]) == 4
    calls = []
    monkeypatch.setattr(jetsid.cli, "cmd_generate", lambda *args: calls.append(args))
    assert jetsid.cli.main(["generate", "--config", str(config), "--out", str(tmp_path)]) == 0
    (loaded,), = calls
    assert loaded.out_dir == str(tmp_path)
