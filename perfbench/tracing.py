"""Span tracing around bforage's public calls, installed from outside the program.

:meth:`Tracer.install` replaces the public functions of ``engines``,
``problem``, ``bfa``, ``metrics``, ``experiment`` and ``cli`` -- in every
bforage module that holds them -- with wrappers that record one span
(name, start, end, parent) per call in memory, plus a few counters the
per-layer ratios need. :meth:`Tracer.uninstall` puts the originals back, so
untraced calls run the program exactly as shipped.

Pool workers record their own spans and send a per-task summary back with
each result; the parent merges them. :meth:`Tracer.summary` derives each
span name's call count, total time and self time (its duration minus the
time its child spans cover), and :func:`layer_metrics` turns that into the
per-layer metrics listed in ``perfbench/README.md``.
"""

from __future__ import annotations

import functools
import json
import os
import time
from array import array
from collections import Counter
from concurrent.futures import ProcessPoolExecutor

import numpy as np

import bforage
from bforage import bfa, cli, engines, experiment, metrics, problem

_MODULES = (bforage, bfa, cli, engines, experiment, metrics, problem)
_KINDS = tuple(k.value for k in engines.EngineKind)

# hvi_exact calls on more points than this count as "large" frontiers
HV_SMALL_MAX_POINTS = 100

# every per-layer metric with its unit, in the order BENCHMARK.json lists them
PER_LAYER_UNITS = {
    **{f"engines.draw_ns.{kind}": "ns" for kind in _KINDS},
    "engines.draws_per_run": "count",
    "problem.score_us": "us",
    "problem.evaluations_per_run": "count",
    "problem.busy_s": "s",
    "bfa.swarming_term_us": "us",
    "bfa.swarming_calls_per_eval": "ratio",
    "bfa.tumble_us": "us",
    "bfa.generation_ms": "ms",
    "bfa.self_s": "s",
    "bfa.moves_per_tumble": "ratio",
    "bfa.clamped_move_ratio": "ratio",
    "bfa.unchanged_move_ratio": "ratio",
    "metrics.hv_exact_s.small": "s",
    "metrics.hv_exact_s.large": "s",
    "metrics.hv_mc_samples_per_s": "1/s",
    "metrics.pareto_filter_us": "us",
    "metrics.aer_us": "us",
    "experiment.task_s": "s",
    "experiment.parallel_efficiency": "ratio",
    "experiment.reduce_s": "s",
    "experiment.write_bytes": "B",
    "experiment.write_s": "s",
    "experiment.read_rows_per_s": "rows/s",
    "cli.overhead_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
}

# the tracer that owns the wrappers in this process; pool workers reach it
# through traced_sweep_task, which the pool can only send by import path
_ACTIVE: "Tracer | None" = None


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self.sweep_task = None  # the program's own per-run task function
        self.is_worker = False
        self.reset()

    def reset(self) -> None:
        """Drop every recorded span and counter (a forked worker starts here)."""
        self.pid = os.getpid()
        self.epoch = time.perf_counter()
        self.name_of = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self._stack: list[int] = []
        self.counters: Counter = Counter()
        self.worker_summaries: list[dict] = []
        self.last_pool_end = None

    # -- recording -------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> float:
        now = time.perf_counter()
        self.end[index] = now
        self._stack.pop()
        return now

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside one span; ``after(args, kwargs, result)`` runs outside it."""
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # -- installation ----------------------------------------------------

    def _replace(self, original, wrapper) -> None:
        for module in _MODULES:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def _wrap_public(self, module, name: str, after=None) -> None:
        """Trace ``module.name`` as span ``<module>.<name>``; a missing name is skipped."""
        fn = getattr(module, name, None)
        if fn is not None:
            span = f"{module.__name__.rsplit('.', 1)[-1]}.{name}"
            self._replace(fn, self.wrap(span, fn, after))

    def _patch_attr(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        global _ACTIVE
        if self._patches:
            raise RuntimeError("tracer already installed")
        _ACTIVE = self

        # engines: one span per public draw, named by engine kind
        sample_unit = engines.StochasticEngine.sample_unit
        draw_ids = {kind: self.name_id(f"engines.draw.{kind.value}") for kind in engines.EngineKind}

        def traced_sample_unit(engine):
            index = self.open(draw_ids[engine.config.kind])
            try:
                return sample_unit(engine)
            finally:
                self.close(index)

        self._patch_attr(engines.StochasticEngine, "sample_unit", traced_sample_unit)
        self._wrap_public(engines, "make_engine")

        # problem: the three calls that score one evaluation
        for name in ("to_physical", "evaluate", "aggregate"):
            self._wrap_public(problem, name)

        # bfa
        def after_run(args, kwargs, result):
            self.counters["bfa.runs"] += 1
            self.counters["bfa.evaluations"] += result.evaluations

        self._wrap_public(bfa, "run_bfa", after_run)
        for name in ("initialize_swarm", "chemotaxis_generation", "tumble_direction",
                     "swarming_term", "reproduce", "eliminate_disperse"):
            self._wrap_public(bfa, name)
        move = bfa.chemotaxis_move
        move_id = self.name_id("bfa.chemotaxis_move")

        def traced_move(b, direction, swarm, score, params):
            before = b.theta
            target = before + params.step_size * direction
            index = self.open(move_id)
            try:
                result = move(b, direction, swarm, score, params)
            finally:
                self.close(index)
            self.counters["bfa.moves"] += 1
            self.counters["bfa.clamped_moves"] += bool(((target < 0.0) | (target > 1.0)).any())
            self.counters["bfa.unchanged_moves"] += bool(np.array_equal(b.theta, before))
            return result

        self._replace(move, functools.wraps(move)(traced_move))

        # metrics
        hv = metrics.hvi_exact
        hv_ids = {size: self.name_id(f"metrics.hvi_exact.{size}") for size in ("small", "large")}

        def traced_hv(points, reference):
            size = "small" if len(points) <= HV_SMALL_MAX_POINTS else "large"
            index = self.open(hv_ids[size])
            try:
                return hv(points, reference)
            finally:
                self.close(index)

        self._replace(hv, functools.wraps(hv)(traced_hv))

        def after_mc(args, kwargs, result):
            self.counters["metrics.mc_samples"] += kwargs["samples"] if "samples" in kwargs else args[2]

        self._wrap_public(metrics, "hvi_monte_carlo", after_mc)
        for name in ("pareto_filter", "aer"):
            self._wrap_public(metrics, name)

        # experiment
        def after_read(args, kwargs, result):
            self.counters["experiment.read_rows"] += len(result)

        def after_write(args, kwargs, result):
            self.counters["experiment.write_bytes"] += os.path.getsize(args[1])

        def after_sweep(args, kwargs, result):
            self.counters["experiment.sweeps"] += 1
            if self.last_pool_end is not None:
                self.counters["experiment.reduce_s"] += time.perf_counter() - self.last_pool_end
                self.last_pool_end = None

        self._wrap_public(experiment, "run_sweep", after_sweep)
        self._wrap_public(experiment, "read_frontier_csv", after_read)
        for name in ("write_frontier_csv", "write_report_json"):
            self._wrap_public(experiment, name, after_write)
        for name in ("compare", "generate_weights"):
            self._wrap_public(experiment, name)
        # the pool's task function and the pool itself: worker spans and pool lifetime
        self.sweep_task = experiment._sweep_task
        self._patch_attr(experiment, "_sweep_task", traced_sweep_task)
        self._patch_attr(experiment, "ProcessPoolExecutor", _TracedPool)

        # cli
        self._wrap_public(cli, "dispatch")

    def uninstall(self) -> None:
        global _ACTIVE
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        _ACTIVE = None

    # -- results ---------------------------------------------------------

    def summary(self) -> dict:
        """Per span name ``[calls, total_s, self_s]`` plus counters, workers merged."""
        names = np.array(self.name_of, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        duration = np.array(self.end) - np.array(self.start)
        covered = np.zeros(len(duration))
        nested = parent >= 0
        np.add.at(covered, parent[nested], duration[nested])
        own = duration - covered
        spans = {}
        for nid, name in enumerate(self.names):
            mask = names == nid
            if mask.any():
                spans[name] = [int(mask.sum()), float(duration[mask].sum()), float(own[mask].sum())]
        merged = {"spans": spans, "counters": dict(self.counters)}
        for worker in self.worker_summaries:
            merged = merge_summaries(merged, worker)
        return merged

    def write_json(self, path, meta: dict) -> None:
        """All recorded spans, times in ns from the tracer's epoch.

        The span columns are written in slices, so a large trace never
        exists as Python lists in memory.
        """
        columns = {
            "name": np.array(self.name_of, dtype=np.int64),
            "start_ns": np.rint((np.array(self.start) - self.epoch) * 1e9).astype(np.int64),
            "end_ns": np.rint((np.array(self.end) - self.epoch) * 1e9).astype(np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
        }
        head = {**meta, "names": self.names, "summary": self.summary()}
        with open(path, "w") as fh:
            fh.write(json.dumps(head)[:-1] + ', "spans": {')
            for i, (key, values) in enumerate(columns.items()):
                fh.write(f'{", " if i else ""}"{key}": [')
                for lo in range(0, len(values), 65536):
                    fh.write(("," if lo else "") + ",".join(map(str, values[lo:lo + 65536].tolist())))
                fh.write("]")
            fh.write("}}\n")


def merge_summaries(a: dict, b: dict) -> dict:
    spans = {name: list(v) for name, v in a["spans"].items()}
    for name, (calls, total, own) in b["spans"].items():
        if name in spans:
            spans[name] = [spans[name][0] + calls, spans[name][1] + total, spans[name][2] + own]
        else:
            spans[name] = [calls, total, own]
    counters = Counter(a["counters"])
    counters.update(b["counters"])
    return {"spans": spans, "counters": dict(counters)}


def traced_sweep_task(task):
    """The sweep's per-run task inside one span; workers attach their summary."""
    global _ACTIVE
    tracer = _ACTIVE
    if tracer is None:  # a worker started by spawn: trace this process too
        tracer = Tracer()
        tracer.install()
        tracer.is_worker = True
    elif tracer.pid != os.getpid():  # a forked worker: drop the parent's spans
        tracer.reset()
        tracer.is_worker = True
    index = tracer.open(tracer.name_id("experiment.task"))
    try:
        result = tracer.sweep_task(task)
    finally:
        tracer.close(index)
    if tracer.is_worker:
        summary = tracer.summary()
        tracer.reset()
        object.__setattr__(result, "_perfbench_summary", summary)
    return result


class _TracedPool(ProcessPoolExecutor):
    """Pool whose lifetime is one span and whose map collects worker summaries."""

    def __init__(self, *args, **kwargs):
        tracer = _ACTIVE
        self._span = tracer.open(tracer.name_id("experiment.pool"))
        super().__init__(*args, **kwargs)

    def map(self, fn, *iterables, timeout=None, chunksize=1):
        results = list(super().map(fn, *iterables, timeout=timeout, chunksize=chunksize))
        for result in results:
            summary = result.__dict__.pop("_perfbench_summary", None)
            if summary is not None:
                _ACTIVE.worker_summaries.append(summary)
        return results

    def shutdown(self, wait=True, **kwargs):
        super().shutdown(wait=wait, **kwargs)
        if self._span is not None:
            _ACTIVE.last_pool_end = _ACTIVE.close(self._span)
            self._span = None


def layer_metrics(summary: dict, jobs: int) -> dict[str, float]:
    """Per-layer metrics from a merged summary; a layer the workload never
    called reads 0."""
    spans, counters = summary["spans"], summary["counters"]

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return spans.get(name, [0, 0.0, 0.0])[1]

    def ratio(a, b):
        return a / b if b else 0.0

    def layer_self(prefix):
        return sum(v[2] for k, v in spans.items() if k.startswith(prefix + "."))

    runs = counters.get("bfa.runs", 0)
    evals = counters.get("bfa.evaluations", 0)
    moves = counters.get("bfa.moves", 0)
    draws = sum(calls(f"engines.draw.{k}") for k in _KINDS)
    problem_names = ("problem.to_physical", "problem.evaluate", "problem.aggregate")
    problem_busy = sum(total(n) for n in problem_names)
    sweeps = counters.get("experiment.sweeps", 0)
    dispatches = calls("cli.dispatch")
    writes = calls("experiment.write_frontier_csv") + calls("experiment.write_report_json")
    out = {}
    for kind in _KINDS:
        name = f"engines.draw.{kind}"
        out[f"engines.draw_ns.{kind}"] = 1e9 * ratio(total(name), calls(name))
    out["engines.draws_per_run"] = ratio(draws, runs)
    out["problem.score_us"] = 1e6 * ratio(problem_busy, calls("problem.evaluate"))
    out["problem.evaluations_per_run"] = ratio(calls("problem.evaluate"), runs)
    out["problem.busy_s"] = ratio(problem_busy, runs)
    out["bfa.swarming_term_us"] = 1e6 * ratio(total("bfa.swarming_term"), calls("bfa.swarming_term"))
    out["bfa.swarming_calls_per_eval"] = ratio(calls("bfa.swarming_term"), evals)
    out["bfa.tumble_us"] = 1e6 * ratio(total("bfa.tumble_direction"), calls("bfa.tumble_direction"))
    out["bfa.generation_ms"] = 1e3 * ratio(
        total("bfa.chemotaxis_generation"), calls("bfa.chemotaxis_generation"))
    out["bfa.self_s"] = ratio(layer_self("bfa"), runs)
    out["bfa.moves_per_tumble"] = ratio(moves, calls("bfa.tumble_direction"))
    out["bfa.clamped_move_ratio"] = ratio(counters.get("bfa.clamped_moves", 0), moves)
    out["bfa.unchanged_move_ratio"] = ratio(counters.get("bfa.unchanged_moves", 0), moves)
    for size in ("small", "large"):
        name = f"metrics.hvi_exact.{size}"
        out[f"metrics.hv_exact_s.{size}"] = ratio(total(name), calls(name))
    out["metrics.hv_mc_samples_per_s"] = ratio(
        counters.get("metrics.mc_samples", 0), total("metrics.hvi_monte_carlo"))
    out["metrics.pareto_filter_us"] = 1e6 * ratio(
        total("metrics.pareto_filter"), calls("metrics.pareto_filter"))
    out["metrics.aer_us"] = 1e6 * ratio(total("metrics.aer"), calls("metrics.aer"))
    out["experiment.task_s"] = ratio(total("experiment.task"), calls("experiment.task"))
    out["experiment.parallel_efficiency"] = ratio(
        total("experiment.task"), jobs * total("experiment.run_sweep"))
    out["experiment.reduce_s"] = ratio(counters.get("experiment.reduce_s", 0.0), sweeps)
    out["experiment.write_bytes"] = ratio(counters.get("experiment.write_bytes", 0), writes)
    out["experiment.write_s"] = ratio(
        total("experiment.write_frontier_csv") + total("experiment.write_report_json"), writes)
    out["experiment.read_rows_per_s"] = ratio(
        counters.get("experiment.read_rows", 0), total("experiment.read_frontier_csv"))
    out["cli.overhead_s"] = ratio(spans.get("cli.dispatch", [0, 0.0, 0.0])[2], dispatches)
    return out
