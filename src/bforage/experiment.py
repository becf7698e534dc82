"""Sweep orchestration: weight lattices, best-of-R runs, frontier reports.

A sweep runs the optimizer for every (engine, weight vector) pair ``R``
times with per-task derived seeds, keeps the best run per pair, and folds
the winners into one frontier report per engine (hypervolume at the nadir
reference, best/median/worst by aggregate value, mean explorative rate).
The map over (engine, weight, run) tasks is embarrassingly parallel and
reduces deterministically, so serial and parallel sweeps are identical.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import struct
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .bfa import BfaParams, RunResult, _batch_limit, run_batch
from .engines import EngineConfig, EngineKind
from .errors import ConfigError, LatticeError, SchemaError
from .metrics import aer, hvi_exact, hvi_percent_gap
from .problem import (
    DecisionVector,
    LOWER_BOUNDS,
    ObjectiveVector,
    UPPER_BOUNDS,
    WeightVector,
    aggregate,
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
    "frontier_row",
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

FRONTIER_HEADER = [
    "engine", "w1", "w2", "w3", "w4", "run_id", "seed",
    "A", "B", "C", "D", "f1", "f2", "f3", "f4", "F", "aer",
]

TRACE_HEADER = ["generation", "best_F"]
WEIGHTS_HEADER = ["w1", "w2", "w3", "w4"]


@dataclass(frozen=True)
class SolutionRecord:
    """Best solution found for one (engine, weight vector) pair."""

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
    if abs(resolution - round(resolution)) > 1e-9:
        raise LatticeError(f"1/step must be an integer, got step={step}")
    budget = (1.0 - 4.0 * minimum) / step
    if budget < -1e-9:
        raise LatticeError(f"no tuple exists: 4 * {minimum} exceeds 1")
    if abs(budget - round(budget)) > 1e-9:
        raise LatticeError(f"(1 - 4*minimum)/step must be an integer, got {budget}")
    total = int(round(budget))
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


# the most runs per lockstep batch: by 8 runs numpy's fixed cost per call is
# mostly spread (a default run took 0.21 s of CPU at 8 and 0.20 s at 16),
# and small batches keep the workers' shares of a sweep even
_MAX_BATCH = 8


@dataclass
class _BatchResult:
    """The pool's result for one batch of tasks, in task order.

    Not frozen and not slotted: a result may carry attributes set by a
    caller's tracing wrapper around the task function.
    """

    runs: list[RunResult]


def _run_tasks(tasks) -> list[RunResult]:
    return run_batch([weights for _, weights, _, _, _ in tasks], tasks[0][2],
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
                           f"weights={weights.as_tuple()} run={run_id}")
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


def run_sweep(config: ExperimentConfig, jobs: int = 1) -> list[FrontierReport]:
    """Execute the full protocol and build one report per engine.

    The runs go out in contiguous batches of the task list, each advanced in
    lockstep; ``jobs`` > 1 maps the batches over at most ``jobs`` worker
    processes, never more than there are batches. A run's result does not
    depend on its batch, and the reduce is by task index, so the result is
    identical to a serial sweep.
    """
    tasks = _task_list(config)
    # a batch stays under the memory limit of one array; a run too large
    # even alone fails in its batch of one
    size = max(1, min(_MAX_BATCH, math.ceil(len(tasks) / max(jobs, 1)), _batch_limit(config.bfa)))
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
    """The record of ``result``, the run ``run_id`` of ``kind`` under ``weights``."""
    return SolutionRecord(
        engine=kind,
        weights=weights,
        run_id=run_id,
        seed=result.seed,
        decision=result.best_decision,
        objectives=result.best_objectives,
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
    over every other engine, and the mean-AER ranking.
    """
    if not reports:
        raise ConfigError("nothing to compare")
    weight_sets = {tuple(s.weights.as_tuple() for s in r.solutions) for r in reports}
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
            "percent": hvi_percent_gap(leader.hvi, reports[idx].hvi),
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


def _format_row(values: Iterable) -> str:
    # float() first: numpy 2 spells repr(np.float64(x)) as "np.float64(x)"
    return ",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in values)


def _write_csv(path, header: Sequence[str], rows: Iterable[Iterable]) -> None:
    lines = [",".join(header)]
    lines.extend(_format_row(row) for row in rows)
    atomic_write_text(path, "\n".join(lines) + "\n")


def _read_csv(path, header: Sequence[str], parse_row) -> list:
    """Parse every data row of a CSV whose first line must be ``header``.

    Blank rows are skipped. ``parse_row(row, count)`` gets the fields of one
    row and the number of rows parsed before it; a ``ValueError`` or
    ``ConfigError`` it raises becomes a :class:`SchemaError` at that line.
    Every :class:`SchemaError` it raises names the file, so a bad input among several is known.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            text = fh.read()  # decoded whole, so a bad byte anywhere is reported before any row
    except UnicodeDecodeError as exc:
        raise SchemaError(f"not UTF-8 text ({exc.reason})", path=path) from None
    rows = csv.reader(io.StringIO(text, newline=""))
    first = next(rows, None)
    if first is None:
        raise SchemaError("empty file", line=1, path=path)
    if first != header:
        missing = [c for c in header if c not in first]
        if missing:
            raise SchemaError(f"missing column {missing[0]!r}", line=1, path=path)
        raise SchemaError(f"unexpected header {first!r}", line=1, path=path)
    parsed = []
    for line_no, row in enumerate(rows, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise SchemaError(f"expected {len(header)} fields, got {len(row)}", line=line_no, path=path)
        try:
            parsed.append(parse_row(row, len(parsed)))
        except (ValueError, ConfigError) as exc:
            raise SchemaError(str(exc), line=line_no, path=path) from exc
    return parsed


def _record_fields(r: SolutionRecord) -> list:
    """A record's values in ``FRONTIER_HEADER`` order."""
    return [r.engine.value, *r.weights.as_tuple(), r.run_id, r.seed,
            *r.decision, *r.objectives, r.F, r.aer]


def frontier_row(r: SolutionRecord) -> str:
    """One CSV data line for a record, floats at round-trip precision."""
    return _format_row(_record_fields(r))


def write_frontier_csv(records: Sequence[SolutionRecord], path) -> None:
    """Persist records; floats keep full round-trip precision."""
    _write_csv(path, FRONTIER_HEADER, map(_record_fields, records))


_ENGINES = {kind.value: kind for kind in EngineKind}

# plain floats: comparing against np.float64 scalars costs about 0.6 us more a row
(_A_LO, _B_LO, _C_LO, _D_LO), (_A_HI, _B_HI, _C_HI, _D_HI) = LOWER_BOUNDS.tolist(), UPPER_BOUNDS.tolist()
_DECISION_BOUNDS = tuple(zip("ABCD", LOWER_BOUNDS.tolist(), UPPER_BOUNDS.tolist()))


def _frontier_record(row: list[str], _count: int) -> SolutionRecord:
    # fields parse in FRONTIER_HEADER order, then the audit runs; each
    # object is built once, and the record holds the objects it checked
    engine = _ENGINES.get(row[0])
    if engine is None:
        engine = EngineKind(row[0])  # raises the enum's own error
    weights = WeightVector(*map(float, row[1:5]))
    run_id = int(row[5])
    seed = int(row[6])
    a, b, c, d, f1, f2, f3, f4, F, rate = map(float, row[7:])
    if run_id < 0:
        raise ValueError(f"run_id={run_id} is negative")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed={seed} outside [0, 2**64)")
    objectives = ObjectiveVector(f1, f2, f3, f4)
    # negated comparisons, so that NaN fails them too
    recomputed = aggregate(objectives, weights)
    if not abs(recomputed - F) <= 1e-9:
        raise ValueError(f"aggregate mismatch: stored F={F!r}, recomputed {recomputed!r}")
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"aer={rate!r} outside [0, 1]")
    decision = DecisionVector(a, b, c, d)
    if not (_A_LO <= a <= _A_HI and _B_LO <= b <= _B_HI
            and _C_LO <= c <= _C_HI and _D_LO <= d <= _D_HI):
        for value, (name, lo, hi) in zip(decision, _DECISION_BOUNDS):
            if not lo <= value <= hi:
                raise ValueError(f"decision {name}={value} outside [{lo}, {hi}]")
    return SolutionRecord(engine, weights, run_id, seed, decision, objectives, F, rate)


def read_frontier_csv(path) -> list[SolutionRecord]:
    """Load and audit records: header, field types, bounds, aggregate identity."""
    return _read_csv(path, FRONTIER_HEADER, _frontier_record)


def write_trace_csv(trace: Sequence[float], path) -> None:
    _write_csv(path, TRACE_HEADER, enumerate(trace, start=1))


def _trace_value(row: list[str], count: int) -> float:
    generation, value = int(row[0]), float(row[1])
    if generation != count + 1:
        raise ValueError(f"generations must run 1..N, got {generation}")
    return value


def read_trace_csv(path) -> list[float]:
    return _read_csv(path, TRACE_HEADER, _trace_value)


def write_weights_csv(weights: Sequence[WeightVector], path) -> None:
    _write_csv(path, WEIGHTS_HEADER, (w.as_tuple() for w in weights))


def read_weights_csv(path) -> list[WeightVector]:
    return _read_csv(path, WEIGHTS_HEADER, lambda row, _count: WeightVector(*map(float, row)))


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
