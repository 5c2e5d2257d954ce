"""Span tracing and call timing of jetsid from outside the package.

`patch` replaces a function at its definition and at every jetsid module
that imported it by name (`from .erm import train` makes `jetsid.cli.train`
a second reference that must be replaced too).

`Tracer` wraps every public function of every jetsid module, plus the
methods and private helpers named in `EXTRA`, so that each call records a
span: name, start, end, parent span and thread.  Each thread keeps its own
span stack.  Spans are held in compact arrays and written out when the run
ends.  A span's self time is its duration minus the time its children in the
same thread cover, so the self times of one thread's spans under a root span
sum to the root's duration.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import pkgutil
import statistics
import threading
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

PACKAGE = "jetsid"

# Private helpers and methods traced besides the public module functions:
# (module, attribute path, span name).
EXTRA = (
    ("erm", "_descend", "erm._descend"),
    ("erm", "JetDataset.save", "erm.JetDataset.save"),
    ("erm", "JetDataset.load", "erm.JetDataset.load"),
)

# The four work counts that must repeat exactly between runs of one seed.
REPEATING_COUNTS = (
    "erm.empirical_risk.calls",
    "jets.output_jet.samples",
    "rnn.simulate.rk4_steps",
    "erm.train.iters",
)

CALCULATORS = (
    "bounds.fixed_model_risk_bound",
    "bounds.erm_risk_bound",
    "bounds.vc_dimension_bound",
    "bounds.rademacher_bound",
)
CLI_COMMANDS = ("generate", "train", "evaluate", "sweep")
LAYERS = ("jets", "erm", "rnn", "bernstein", "signals", "bounds", "cli", "bench")

# Names of the per-layer metrics, in report order (BENCHMARK.json lists the
# same names).
PER_LAYER = (
    "jets.output_jet.calls", "jets.output_jet.self_s", "jets.output_jet.samples",
    "erm.empirical_risk.calls", "erm.empirical_risk.self_s",
    "erm.project_feasible.calls", "erm.project_feasible.self_s",
    "erm.train.self_s", "erm.train.iters", "erm.train.final_risk",
    "erm.build_dataset.self_s", "erm.dataset_io_s",
    "rnn.simulate.calls", "rnn.simulate.self_s", "rnn.simulate.rk4_steps",
    "rnn.bibo_gain_estimate.self_s",
    "bernstein.bernstein_jet.calls", "bernstein.bernstein_jet.self_s",
    "bernstein.bernstein_eval.self_s", "bernstein.jet_poly_eval.self_s",
    "signals.sample_ensemble.self_s", "signals.estimate_modulus.self_s",
    "bounds.probe_risk_and_gap.self_s", "bounds.probe_risk_and_gap.mean_risk",
    "bounds.calculators.self_s",
    *(f"cli.{c}.self_s" for c in CLI_COMMANDS),
    *(f"{layer}.self_s" for layer in LAYERS),
    "trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s",
    "trace.self_sum_s", "trace.spans",
)


def jetsid_modules() -> list:
    """The package and every submodule, imported."""
    pkg = importlib.import_module(PACKAGE)
    subs = [importlib.import_module(f"{PACKAGE}.{m.name}")
            for m in pkgutil.iter_modules(pkg.__path__)]
    return [pkg, *subs]


def patch(originals: dict, modules: list) -> None:
    """Replace each function in `originals` (function -> wrapper) wherever a
    module namespace holds it by name."""
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in originals:
                setattr(mod, attr, originals[obj])


def public_functions(modules: list) -> dict:
    """Span name -> function for every public function a module defines."""
    found = {}
    for mod in modules:
        short = mod.__name__.rpartition(".")[2]
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__ == mod.__name__):
                found[f"{short}.{attr}"] = obj
    return found


class Stopwatch:
    """The (start, end) interval of every call to a few named functions, with
    a work count taken from the arguments.  Used in untraced runs, where the
    spans of a full trace would distort the times."""

    def __init__(self, names: tuple[str, ...]):
        self.samples: dict[str, list[tuple[float, float, int]]] = defaultdict(list)
        modules = jetsid_modules()
        funcs = public_functions(modules)
        wrappers = {}
        for name in names:
            wrappers[funcs[name]] = self._wrap(name, funcs[name])
        patch(wrappers, modules)

    def _wrap(self, name, fn):
        samples = self.samples[name]
        # the work of a dataset build is its number of inputs
        count_inputs = name == "erm.build_dataset"

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            samples.append((t0, time.perf_counter(), len(args[0]) if count_inputs else 1))
            return result

        return timed

    def take(self, name: str) -> list[tuple[float, float, int]]:
        """Samples recorded since the last take."""
        out = list(self.samples[name])
        self.samples[name].clear()
        return out


def _batch(x) -> int:
    """Number of items in a possibly batched argument (1 when unbatched)."""
    d = getattr(x, "derivs", x)
    if isinstance(d, (list, tuple)):
        return len(d)
    return 1 if np.ndim(d) <= 1 else int(np.shape(d)[0])


def _rk4_steps(args, kwargs) -> int:
    """RK4 steps `simulate(system, input_u, T, config)` takes, per input,
    times the number of inputs; mirrors its step-snapping rule."""
    names = ("system", "input_u", "T", "config")
    bound = dict(zip(names, args), **kwargs)
    T, config = bound["T"], bound.get("config")
    g = config.grid_size if config is not None else 257
    step = config.step if config is not None else None
    dt_dense = T / (g - 1)
    h_req = step if step is not None else T / 4096.0
    return (g - 1) * max(1, round(dt_dense / h_req)) * _batch(bound["input_u"])


class Tracer:
    """Per-thread span stacks over the wrapped jetsid functions."""

    def __init__(self):
        self.names: list[str] = []
        self._layer: list[str] = []
        self._ids: dict[str, int] = {}
        # one entry per finished span; sid/parent link spans to each other
        self.sid = array("i")
        self.parent = array("i")
        self.name = array("h")
        self.thread = array("b")
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")
        self.work: dict[str, float] = defaultdict(float)
        self.final_risks: list[float] = []
        self.mean_risks: list[float] = []
        self.op = ""
        self._next_sid = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = 0

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._layer.append(name.partition(".")[0])
        return self._ids[name]

    def _stack(self) -> list:
        local = self._local
        if not hasattr(local, "stack"):
            with self._lock:
                local.tid = self._threads
                self._threads += 1
            local.stack = []
        return local.stack

    def _enter(self) -> list:
        frame = [next(self._next_sid), 0.0]
        self._stack().append(frame)
        return frame

    def _leave(self, frame: list, nid: int, t0: float, t1: float) -> None:
        stack = self._local.stack
        stack.pop()
        dur = t1 - t0
        parent = -1
        if stack:
            stack[-1][1] += dur
            parent = stack[-1][0]
        self_t = dur - frame[1]
        with self._lock:
            self.sid.append(frame[0])
            self.parent.append(parent)
            self.name.append(nid)
            self.thread.append(self._local.tid)
            self.start.append(t0)
            self.end.append(t1)
            self.self_time.append(self_t)
            if self._layer[nid] == "cli":
                self.work[f"cli.{self.op}.self_s"] += self_t

    @contextmanager
    def span(self, name: str):
        nid = self._name_id(name)
        frame = self._enter()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._leave(frame, nid, t0, time.perf_counter())

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        count = self._work_counter(name)
        perf = time.perf_counter
        lock = self._lock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter()
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(frame, nid, t0, perf())
            if count is not None:
                # pool threads count into the same totals
                with lock:
                    count(args, kwargs, result)
            return result

        return traced

    def _work_counter(self, name: str):
        work = self.work
        if name == "jets.output_jet":
            def count(args, kwargs, result):
                work["jets.output_jet.samples"] += _batch(
                    args[1] if len(args) > 1 else kwargs["input_jet"])
        elif name == "rnn.simulate":
            def count(args, kwargs, result):
                work["rnn.simulate.rk4_steps"] += _rk4_steps(args, kwargs)
        elif name == "erm._descend":
            def count(args, kwargs, result):
                work["erm.train.iters"] += len(result[1]) - 1
        elif name == "erm.train":
            def count(args, kwargs, result):
                init = args[2] if len(args) > 2 else kwargs.get("init")
                if init is None:
                    self.final_risks.append(result.risk)
        elif name == "bounds.probe_risk_and_gap":
            def count(args, kwargs, result):
                self.mean_risks.append(float(np.mean(result[0])))
        else:
            count = None
        return count

    def install(self) -> None:
        """Wrap every public jetsid function, and EXTRA, at every import site."""
        modules = jetsid_modules()
        wrappers = {fn: self.wrap(name, fn)
                    for name, fn in public_functions(modules).items()}
        patch(wrappers, modules)
        by_name = {m.__name__.rpartition(".")[2]: m for m in modules}
        for mod_name, path, span_name in EXTRA:
            owner = by_name[mod_name]
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            raw = inspect.getattr_static(owner, attr, None)
            if raw is None:
                continue
            if isinstance(raw, staticmethod):
                setattr(owner, attr, staticmethod(self.wrap(span_name, raw.__func__)))
            elif inspect.isclass(owner):
                setattr(owner, attr, self.wrap(span_name, raw))
            else:
                patch({raw: self.wrap(span_name, raw)}, modules)

    def reset_round(self) -> int:
        """Clear the per-round counters; returns the index of the next span."""
        self.work.clear()
        self.final_risks.clear()
        self.mean_risks.clear()
        return len(self.sid)

    def round_metrics(self, first: int, root_name: str) -> dict:
        """Per-layer metrics of the spans recorded since `first`; the round's
        root span is the one named `root_name`."""
        sl = slice(first, len(self.sid))
        names = np.frombuffer(self.name, dtype=np.int16)[sl]
        selfs = np.frombuffer(self.self_time, dtype=np.float64)[sl]
        threads = np.frombuffer(self.thread, dtype=np.int8)[sl]
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        self_s = np.bincount(names, weights=selfs, minlength=k)

        def c(name):
            i = self._ids.get(name)
            return int(calls[i]) if i is not None else 0

        def s(*span_names):
            return float(sum(self_s[self._ids[n]] for n in span_names if n in self._ids))

        root = self._ids[root_name]
        root_rows = np.flatnonzero(names == root)
        if root_rows.size != 1:
            raise RuntimeError(f"expected one {root_name} span, found {root_rows.size}")
        r = first + int(root_rows[0])
        wall = self.end[r] - self.start[r]
        main_thread = threads[root_rows[0]]
        m = {
            "jets.output_jet.calls": c("jets.output_jet"),
            "jets.output_jet.self_s": s("jets.output_jet"),
            "jets.output_jet.samples": int(self.work["jets.output_jet.samples"]),
            "erm.empirical_risk.calls": c("erm.empirical_risk"),
            "erm.empirical_risk.self_s": s("erm.empirical_risk"),
            "erm.project_feasible.calls": c("erm.project_feasible"),
            "erm.project_feasible.self_s": s("erm.project_feasible"),
            "erm.train.self_s": s("erm.train", "erm._descend"),
            "erm.train.iters": int(self.work["erm.train.iters"]),
            "erm.train.final_risk": _median(self.final_risks),
            "erm.build_dataset.self_s": s("erm.build_dataset"),
            "erm.dataset_io_s": s("erm.JetDataset.save", "erm.JetDataset.load"),
            "rnn.simulate.calls": c("rnn.simulate"),
            "rnn.simulate.self_s": s("rnn.simulate"),
            "rnn.simulate.rk4_steps": int(self.work["rnn.simulate.rk4_steps"]),
            "rnn.bibo_gain_estimate.self_s": s("rnn.bibo_gain_estimate"),
            "bernstein.bernstein_jet.calls": c("bernstein.bernstein_jet"),
            "bernstein.bernstein_jet.self_s": s("bernstein.bernstein_jet"),
            "bernstein.bernstein_eval.self_s": s("bernstein.bernstein_eval"),
            "bernstein.jet_poly_eval.self_s": s("bernstein.jet_poly_eval"),
            "signals.sample_ensemble.self_s": s("signals.sample_ensemble"),
            "signals.estimate_modulus.self_s": s("signals.estimate_modulus"),
            "bounds.probe_risk_and_gap.self_s": s("bounds.probe_risk_and_gap"),
            "bounds.probe_risk_and_gap.mean_risk": _median(self.mean_risks),
            "bounds.calculators.self_s": s(*CALCULATORS),
        }
        for cmd in CLI_COMMANDS:
            m[f"cli.{cmd}.self_s"] = float(self.work.get(f"cli.{cmd}.self_s", 0.0))
        layer_of = np.array([self._layer[i] for i in range(k)] or [""])
        for layer in LAYERS:
            ids = np.flatnonzero(layer_of == layer)
            m[f"{layer}.self_s"] = float(self_s[ids].sum())
        m["trace.wall_s"] = wall
        m["trace.self_sum_s"] = float(selfs[threads == main_thread].sum())
        m["trace.spans"] = int(names.size)
        top = np.argsort(self_s)[::-1][:5]
        m["top_self_s"] = [[self.names[i], float(self_s[i])] for i in top if calls[i]]
        return m

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            sid=np.frombuffer(self.sid, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            name=np.frombuffer(self.name, dtype=np.int16),
            thread=np.frombuffer(self.thread, dtype=np.int8),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            self_time=np.frombuffer(self.self_time, dtype=np.float64),
        )


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0
