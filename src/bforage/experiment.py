"""Sweep orchestration: weight lattices, best-of-R runs, frontier reports.

A sweep runs the optimizer for every (engine, weight vector) pair ``R``
times with per-task derived seeds, keeps the best run per pair, and folds
the winners into one frontier report per engine (hypervolume at the nadir
reference, best/median/worst by aggregate value, mean explorative rate).
The map over (engine, weight, run) tasks is embarrassingly parallel and
reduces deterministically, so serial and parallel sweeps are identical.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import struct
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .bfa import BfaParams, RunResult, _batch_limit, run_batch
from .engines import EngineConfig, EngineKind
from .errors import ConfigError, LatticeError, SchemaError
from .metrics import aer, hvi_exact
from .problem import (
    DecisionVector,
    LOWER_BOUNDS,
    ObjectiveVector,
    UPPER_BOUNDS,
    WeightVector,
    aggregate,
    evaluate,
    to_physical,
    unit_block_scorer,
)

__all__ = [
    "SolutionRecord",
    "ExperimentConfig",
    "FrontierReport",
    "NADIR_REFERENCE",
    "generate_weights",
    "derive_seed",
    "run_sweep",
    "compare",
    "FRONTIER_HEADER",
    "write_frontier_csv",
    "read_frontier_csv",
    "write_trace_csv",
    "read_trace_csv",
    "write_weights_csv",
    "read_weights_csv",
    "report_to_dict",
    "write_report_json",
    "atomic_write_text",
]

NADIR_REFERENCE = (0.0, 0.0, 0.0, 0.0)

# the most weight vectors a lattice may hold (about 185 MB); step 0.01 at minimum 0 gives 176 851
_MAX_WEIGHTS = 1_000_000

FRONTIER_HEADER = [
    "engine", "w1", "w2", "w3", "w4", "run_id", "seed",
    "A", "B", "C", "D", "f1", "f2", "f3", "f4", "F", "aer",
]

_N_TOTAL_FOR_AER = "n_total must be >= 2, as the explorative rate needs two trace values, got {}"

TRACE_HEADER = ["generation", "best_F"]
WEIGHTS_HEADER = ["w1", "w2", "w3", "w4"]


class SolutionRecord(NamedTuple):
    """Best solution found for one (engine, weight vector) pair.

    Immutable: ``record._replace(F=...)`` gives an edited copy.
    """

    engine: EngineKind
    weights: WeightVector
    run_id: int
    seed: int
    decision: DecisionVector
    objectives: ObjectiveVector
    F: float
    aer: float


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a sweep needs; seeds for individual runs are derived."""

    engines: tuple[EngineConfig, ...]
    weights: tuple[WeightVector, ...]
    bfa: BfaParams
    master_seed: int
    runs_per_weight: int = 10
    aer_threshold: float = 0.01

    def __post_init__(self):
        if not self.engines:
            raise ConfigError("at least one engine configuration is required")
        if not self.weights:
            raise ConfigError("at least one weight vector is required")
        if not (isinstance(self.runs_per_weight, int) and self.runs_per_weight >= 1):
            raise ConfigError(f"runs_per_weight must be an integer >= 1, got {self.runs_per_weight!r}")
        if not (isinstance(self.master_seed, int) and 0 <= self.master_seed < 2**64):
            raise ConfigError(f"master_seed must be an unsigned 64-bit integer, got {self.master_seed!r}")
        if not self.aer_threshold >= 0:  # NaN fails too
            raise ConfigError(f"aer_threshold must be non-negative, got {self.aer_threshold}")
        if self.bfa.n_total < 2:
            raise ConfigError(_N_TOTAL_FOR_AER.format(self.bfa.n_total))


@dataclass(frozen=True)
class FrontierReport:
    """Per-engine frontier: one record per weight vector plus summary metrics."""

    engine: EngineKind
    solutions: tuple[SolutionRecord, ...]
    hvi: float
    best: SolutionRecord
    median: SolutionRecord
    worst: SolutionRecord
    mean_aer: float

    @property
    def n_solutions(self) -> int:
        return len(self.solutions)


def generate_weights(step: float, minimum: float) -> list[WeightVector]:
    """All weight 4-tuples on the lattice ``{minimum, minimum+step, ...}``
    that sum to one, in lexicographic order.
    """
    if not 0 < step < math.inf:
        raise LatticeError(f"step must be positive and finite, got {step}")
    if not minimum >= 0:
        raise LatticeError(f"minimum must be non-negative, got {minimum}")
    resolution = 1.0 / step
    if not (math.isfinite(resolution) and abs(resolution - round(resolution)) <= 1e-9):
        raise LatticeError(f"1/step must be a finite integer, got step={step}")
    budget = (1.0 - 4.0 * minimum) / step
    if budget < -1e-9:
        raise LatticeError(f"no tuple exists: 4 * {minimum} exceeds 1")
    if abs(budget - round(budget)) > 1e-9:
        raise LatticeError(f"(1 - 4*minimum)/step must be an integer, got {budget}")
    total = int(round(budget))
    count = math.comb(total + 3, 3)  # compositions of total into four parts
    if count > _MAX_WEIGHTS:
        shown = count if count < 10**15 else f"about 10**{int(math.log10(count))}"
        raise LatticeError(f"step={step}, minimum={minimum} gives {shown} weight vectors, "
                           f"over the limit of {_MAX_WEIGHTS}")
    out = []
    for i in range(total + 1):
        for j in range(total - i + 1):
            for k in range(total - i - j + 1):
                m = total - i - j - k
                out.append(WeightVector(
                    minimum + i * step,
                    minimum + j * step,
                    minimum + k * step,
                    minimum + m * step,
                ))
    return out


def derive_seed(master_seed: int, engine_index: int, weight_index: int, run_index: int) -> int:
    """Mix the four indices into one 64-bit run seed.

    Fixed construction: the little-endian packing of the four values is
    hashed with BLAKE2b to an 8-byte digest. Pure, order-independent and
    collision-checked across the experiment grid by the test suite.
    """
    packed = struct.pack(
        "<QQQQ",
        master_seed & (2**64 - 1),
        engine_index & (2**64 - 1),
        weight_index & (2**64 - 1),
        run_index & (2**64 - 1),
    )
    digest = hashlib.blake2b(packed, digest_size=8).digest()
    return int.from_bytes(digest, "little")


# the most runs per lockstep batch: numpy's fixed cost per call is spread
# over the batch (a default run took 0.088 s of CPU alone, 0.036 s at 8 and
# 0.035 s at 16, on a shared 2-vCPU host), and a sweep of 32 runs on two
# workers still gives each worker one batch
_MAX_BATCH = 16


@dataclass
class _BatchResult:
    """The pool's result for one batch of tasks, in task order.

    Not frozen and not slotted: a result may carry attributes set by a
    caller's tracing wrapper around the task function.
    """

    runs: list[RunResult]


def _run_tasks(tasks) -> list[RunResult]:
    return run_batch(unit_block_scorer([weights for _, weights, _, _, _ in tasks]), tasks[0][2],
                     [dataclasses.replace(config, seed=seed) for config, _, _, seed, _ in tasks])


def _sweep_task(batch) -> _BatchResult:
    """Run a contiguous batch of tasks in lockstep.

    When the batch fails, its runs are run again one at a time, so that the
    error names the run that failed, as a serial sweep would.
    """
    try:
        return _BatchResult(_run_tasks(batch))
    except Exception:
        for task in batch:
            try:
                _run_tasks([task])
            except Exception as exc:
                engine_config, weights, _, _, run_id = task
                context = (f"engine={engine_config.kind.value} "
                           f"weights={tuple(weights)} run={run_id}")
                try:
                    wrapped = type(exc)(f"{context}: {exc}")
                except TypeError:  # exception type with a non-string constructor
                    raise exc from None
                raise wrapped from exc
        raise


def _task_list(config: ExperimentConfig):
    tasks = []
    for e_idx, engine_config in enumerate(config.engines):
        for w_idx, weights in enumerate(config.weights):
            for run_id in range(config.runs_per_weight):
                seed = derive_seed(config.master_seed, e_idx, w_idx, run_id)
                tasks.append((engine_config, weights, config.bfa, seed, run_id))
    return tasks


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set, else the host's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_sweep(config: ExperimentConfig, jobs: int = 1) -> list[FrontierReport]:
    """Execute the full protocol and build one report per engine.

    The runs go out in contiguous batches of the task list, each advanced in
    lockstep; ``jobs`` > 1 maps the batches over at most ``jobs`` worker
    processes, never more than there are batches or usable CPUs. A run's
    result does not depend on its batch, and the reduce is by task index, so
    the result is identical to a serial sweep.
    """
    if not (isinstance(jobs, int) and jobs >= 1):
        raise ConfigError(f"jobs must be an integer >= 1, got {jobs!r}")
    tasks = _task_list(config)
    # a fork pool starts all its workers at its first submit, and workers
    # beyond the usable CPUs would only take turns on them
    jobs = min(jobs, _usable_cpus())
    # a batch stays under the memory limit of one array; a run too large
    # even alone fails in its batch of one
    size = max(1, min(_MAX_BATCH, math.ceil(len(tasks) / jobs), _batch_limit(config.bfa)))
    batches = [tasks[k : k + size] for k in range(0, len(tasks), size)]
    workers = min(jobs, len(batches))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_sweep_task, batches))
    else:
        done = [_sweep_task(batch) for batch in batches]
    results = [run for batch in done for run in batch.runs]

    reports = []
    runs_per_pair = config.runs_per_weight
    cursor = 0
    for engine_config in config.engines:
        records = []
        for weights in config.weights:
            pair = results[cursor : cursor + runs_per_pair]
            cursor += runs_per_pair
            best_id = max(range(runs_per_pair), key=lambda run_id: pair[run_id].best_f)  # first on ties
            records.append(_solution_record(engine_config.kind, weights, best_id, pair[best_id],
                                            config.aer_threshold))
        reports.append(_build_report(engine_config.kind, records))
    return reports


def _solution_record(kind: EngineKind, weights: WeightVector, run_id: int, result: RunResult,
                     aer_threshold: float) -> SolutionRecord:
    """The record of ``result``, the run ``run_id`` of ``kind`` under ``weights``,
    with its decision and objective vectors recomputed at its best position."""
    decision = to_physical(result.best_theta)
    return SolutionRecord(
        engine=kind,
        weights=weights,
        run_id=run_id,
        seed=result.seed,
        decision=decision,
        objectives=evaluate(decision),
        F=result.best_f,
        aer=aer(result.trace, aer_threshold),
    )


def _build_report(kind: EngineKind, records: list[SolutionRecord]) -> FrontierReport:
    volume = hvi_exact([r.objectives for r in records], NADIR_REFERENCE)
    by_f = sorted(range(len(records)), key=lambda i: records[i].F)  # stable on ties
    worst = records[by_f[0]]
    best = records[by_f[-1]]
    median = records[by_f[(len(records) - 1) // 2]]  # lower middle on even counts
    mean_aer = sum(r.aer for r in records) / len(records)
    return FrontierReport(
        engine=kind,
        solutions=tuple(records),
        hvi=volume,
        best=best,
        median=median,
        worst=worst,
        mean_aer=mean_aer,
    )


def compare(reports: Sequence[FrontierReport]) -> dict:
    """Rank engines by hypervolume and explorative rate.

    Returns a JSON-ready mapping with the hypervolume ranking (ties
    flagged, stable input order preserved), the leader's percentage gap
    over every other engine (``None`` over an engine whose volume is 0),
    and the mean-AER ranking.
    """
    if not reports:
        raise ConfigError("nothing to compare")
    # row order carries no meaning, but a repeated vector counts once per row
    weight_sets = {tuple(sorted(s.weights for s in r.solutions)) for r in reports}
    if len(weight_sets) > 1:
        raise ConfigError("reports cover different weight sets and cannot be compared")

    by_hvi = sorted(range(len(reports)), key=lambda i: (-reports[i].hvi, i))
    ranking = []
    for rank, idx in enumerate(by_hvi, start=1):
        report = reports[idx]
        previous = reports[by_hvi[rank - 2]].hvi if rank > 1 else None
        ranking.append({
            "rank": rank,
            "engine": report.engine.value,
            "hvi": report.hvi,
            "tied_with_previous": previous is not None and report.hvi == previous,
        })
    leader = reports[by_hvi[0]]
    gaps = [
        {
            "engine": reports[idx].engine.value,
            # a frontier of no volume has no relative gap
            "percent": (None if reports[idx].hvi == 0.0
                        else 100.0 * (leader.hvi - reports[idx].hvi) / reports[idx].hvi),
        }
        for idx in by_hvi[1:]
    ]
    by_aer = sorted(range(len(reports)), key=lambda i: (-reports[i].mean_aer, i))
    aer_ranking = [
        {"rank": rank, "engine": reports[idx].engine.value, "mean_aer": reports[idx].mean_aer}
        for rank, idx in enumerate(by_aer, start=1)
    ]
    return {
        "hvi_ranking": ranking,
        "leader": leader.engine.value,
        "leader_gaps_percent": gaps,
        "aer_ranking": aer_ranking,
    }


# -- persistence -------------------------------------------------------------


def atomic_write_text(path, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see a prefix."""
    path = Path(path)
    handle, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(handle, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _csv_text(header: Sequence[str], rows: Iterable[Iterable]) -> str:
    """The CSV text of ``header`` and ``rows``, in the one dialect bforage reads.

    UTF-8, ``\\n`` line ends, fields joined by commas with nothing quoted:
    floats as their ``repr``, at round-trip precision, everything else as its ``str``.
    """
    # float() first: numpy 2 spells repr(np.float64(x)) as "np.float64(x)"
    lines = [",".join(header)]
    lines.extend(",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row)
                 for row in rows)
    return "\n".join(lines) + "\n"


def _read_csv(path, header: Sequence[str], parse_columns) -> list:
    """Parse every data row of a CSV whose first line must be ``header``.

    The text read is the text :func:`_csv_text` writes: each row is one
    physical line, split at every comma, and a quote is part of its field.
    A carriage return anywhere is rejected at its line, as is a UTF-8
    byte-order mark at line 1. Blank lines are skipped.
    ``parse_columns(columns, count)`` gets the rows' fields a column at a
    time, one sequence per header field, and the number of rows before
    them, and returns one value per row. All rows go in one call; when a
    row has the wrong number of fields, or the call raises a ``ValueError``
    or ``ConfigError``, the lines are replayed one at a time, and the first
    that fails becomes a :class:`SchemaError` at its line. Every
    :class:`SchemaError` names the file, so a bad input among several is known.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            text = fh.read()  # decoded whole, so a bad byte anywhere is reported before any row
    except UnicodeDecodeError as exc:
        raise SchemaError(f"not UTF-8 text ({exc.reason})", path=path) from None
    if not text:
        raise SchemaError("empty file", line=1, path=path)
    if text.startswith("\ufeff"):
        raise SchemaError("starts with a UTF-8 byte-order mark; save the file without one",
                          line=1, path=path)
    if "\r" in text:
        raise SchemaError("has a carriage return (CR); save the file with \\n line endings",
                          line=text.count("\n", 0, text.index("\r")) + 1, path=path)
    lines = text.removesuffix("\n").split("\n")
    if lines[0] != ",".join(header):
        first = lines[0].split(",")
        missing = [c for c in header if c not in first]
        if missing:
            raise SchemaError(f"missing column {missing[0]!r}", line=1, path=path)
        raise SchemaError(f"unexpected header {first!r}", line=1, path=path)
    rows = list(map(str.split, filter(None, lines[1:]), repeat(",")))  # blank lines hold no row
    if not rows:
        return []
    if set(map(len, rows)) == {len(header)}:
        try:
            return parse_columns(list(zip(*rows)), 0)
        except (ValueError, ConfigError):
            pass  # the lines one at a time name the first fault and its line
    parsed = []
    for line_no, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        row = line.split(",")
        if len(row) != len(header):
            raise SchemaError(f"expected {len(header)} fields, got {len(row)}", line=line_no, path=path)
        try:
            parsed += parse_columns(list(zip(row)), len(parsed))
        except (ValueError, ConfigError) as exc:
            raise SchemaError(str(exc), line=line_no, path=path) from exc
    return parsed


def _record_fields(r: SolutionRecord) -> list:
    """A record's values in ``FRONTIER_HEADER`` order."""
    return [r.engine.value, *r.weights, r.run_id, r.seed,
            *r.decision, *r.objectives, r.F, r.aer]


def write_frontier_csv(records: Sequence[SolutionRecord], path) -> None:
    """Persist records; floats keep full round-trip precision."""
    atomic_write_text(path, _csv_text(FRONTIER_HEADER, map(_record_fields, records)))


_ENGINES = {kind.value: kind for kind in EngineKind}

# plain floats: comparing against np.float64 scalars costs about 0.6 us more a row
_DECISION_BOUNDS = tuple(zip("ABCD", LOWER_BOUNDS.tolist(), UPPER_BOUNDS.tolist()))

# the unchecked named tuples of a row, built in C from a tuple of their fields:
# each one's own constructor is a Python function, about 0.25 us more a row
_new_decision = partial(tuple.__new__, DecisionVector)
_new_objectives = partial(tuple.__new__, ObjectiveVector)
_new_record = partial(tuple.__new__, SolutionRecord)


def _frontier_records(columns: list[Sequence[str]], _count: int) -> list[SolutionRecord]:
    # a column at a time: each column parses, then each check runs over all
    # rows, so on one row this is the audit order read_frontier_csv gives;
    # each object is built once, and a record holds the objects that were checked
    names, w1, w2, w3, w4, run_ids, seeds, *floats = columns
    engines = list(map(_ENGINES.get, names))
    if None in engines:
        EngineKind(names[engines.index(None)])  # raises the enum's own error
    weights = list(map(WeightVector, *[list(map(float, column)) for column in (w1, w2, w3, w4)]))
    run_ids, seeds = list(map(int, run_ids)), list(map(int, seeds))
    a, b, c, d, f1, f2, f3, f4, F, rate = [list(map(float, column)) for column in floats]
    if min(run_ids) < 0:
        run_id = next(run_id for run_id in run_ids if run_id < 0)
        raise ValueError(f"run_id={run_id} is negative")
    if min(seeds) < 0 or max(seeds) >= 2**64:
        seed = next(seed for seed in seeds if not 0 <= seed < 2**64)
        raise ValueError(f"seed={seed} outside [0, 2**64)")
    # negated comparisons, so that NaN fails them too
    objectives = list(map(_new_objectives, zip(f1, f2, f3, f4)))
    for objective, weight, stored in zip(objectives, weights, F):
        recomputed = aggregate(objective, weight)
        if not abs(recomputed - stored) <= 1e-9:
            raise ValueError(f"aggregate mismatch: stored F={stored!r}, recomputed {recomputed!r}")
    for value in rate:
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"aer={value!r} outside [0, 1]")
    for column, (name, lo, hi) in zip((a, b, c, d), _DECISION_BOUNDS):
        for value in column:
            if not lo <= value <= hi:
                raise ValueError(f"decision {name}={value} outside [{lo}, {hi}]")
    return list(map(_new_record, zip(engines, weights, run_ids, seeds,
                                     map(_new_decision, zip(a, b, c, d)), objectives, F, rate)))


def read_frontier_csv(path) -> list[SolutionRecord]:
    """Load and audit records: header, field types, bounds, aggregate identity.

    The first fault in file order is raised, a row's in this order: the
    engine name; the weights, parsed, then checked for sign and sum; then
    ``run_id`` and ``seed`` as integers; the decision, objectives, ``F`` and
    ``aer`` as floats; ``run_id >= 0``; ``0 <= seed < 2**64``; the aggregate
    identity to 1e-9; ``0 <= aer <= 1``; the decision bounds, ``A`` to ``D``.
    The audit runs a column at a time, and again row by row to name a fault.
    """
    return _read_csv(path, FRONTIER_HEADER, _frontier_records)


def write_trace_csv(trace: Sequence[float], path) -> None:
    atomic_write_text(path, _csv_text(TRACE_HEADER, enumerate(trace, start=1)))


def _trace_values(columns: list[Sequence[str]], count: int) -> list[float]:
    generations, values = list(map(int, columns[0])), list(map(float, columns[1]))
    for expected, generation in enumerate(generations, start=count + 1):
        if generation != expected:
            raise ValueError(f"generations must run 1..N, got {generation}")
    return values


def read_trace_csv(path) -> list[float]:
    return _read_csv(path, TRACE_HEADER, _trace_values)


def write_weights_csv(weights: Sequence[WeightVector], path) -> None:
    atomic_write_text(path, _csv_text(WEIGHTS_HEADER, weights))


def _weight_vectors(columns: list[Sequence[str]], _count: int) -> list[WeightVector]:
    return list(map(WeightVector, *[list(map(float, column)) for column in columns]))


def read_weights_csv(path) -> list[WeightVector]:
    return _read_csv(path, WEIGHTS_HEADER, _weight_vectors)


def _record_to_dict(record: SolutionRecord) -> dict:
    return dict(zip(FRONTIER_HEADER, _record_fields(record)))


def report_to_dict(report: FrontierReport) -> dict:
    return {
        "engine": report.engine.value,
        "hvi": report.hvi,
        "mean_aer": report.mean_aer,
        "best": _record_to_dict(report.best),
        "median": _record_to_dict(report.median),
        "worst": _record_to_dict(report.worst),
        "n_solutions": report.n_solutions,
    }


def write_report_json(reports: Sequence[FrontierReport], path) -> None:
    payload = [report_to_dict(r) for r in reports]
    atomic_write_text(path, json.dumps(payload, indent=2) + "\n")
