import csv
import dataclasses
import json
import math
import os
import re
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frontier_oracle

from bforage import experiment
from bforage.bfa import BfaParams, run_bfa
from bforage.cli import dispatch
from bforage.engines import EngineConfig, EngineKind
from bforage.errors import ConfigError, DomainError, LatticeError, SchemaError
from bforage.experiment import (
    ExperimentConfig,
    FrontierReport,
    NADIR_REFERENCE,
    SolutionRecord,
    compare,
    derive_seed,
    generate_weights,
    read_frontier_csv,
    read_trace_csv,
    read_weights_csv,
    report_to_dict,
    run_sweep,
    write_frontier_csv,
    write_report_json,
    write_trace_csv,
    write_weights_csv,
    atomic_write_text,
)
from bforage.metrics import hvi_exact
from bforage.problem import (
    DecisionVector,
    ObjectiveVector,
    WeightVector,
    aggregate,
    evaluate,
    to_physical,
)

TINY_BFA = BfaParams(n_total=4, pop_size=5, n_chemo=2, n_repro=2)


def tiny_config(**overrides):
    base = dict(
        engines=(EngineConfig(kind=EngineKind.GAUSSIAN, seed=0),),
        weights=(WeightVector(0.25, 0.25, 0.25, 0.25),),
        bfa=TINY_BFA,
        master_seed=2024,
        runs_per_weight=1,
        aer_threshold=0.01,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def make_record(objectives, weights=WeightVector(0.25, 0.25, 0.25, 0.25), run_id=0, aer=0.5,
                engine=EngineKind.GAUSSIAN):
    objectives = ObjectiveVector(*objectives)
    return SolutionRecord(
        engine=engine,
        weights=weights,
        run_id=run_id,
        seed=derive_seed(1, 0, 0, run_id),
        decision=DecisionVector(2.0, 40.0, 4.0, 80.0),
        objectives=objectives,
        F=aggregate(objectives, weights),
        aer=aer,
    )


def make_report(engine, hvi_value, mean_aer, n=3):
    records = tuple(make_record((100.0 + i, 200.0, 300.0, 400.0), engine=engine)
                    for i in range(n))
    ranked = sorted(records, key=lambda r: r.F)
    return FrontierReport(
        engine=engine, solutions=records, hvi=hvi_value,
        best=ranked[-1], median=ranked[(n - 1) // 2], worst=ranked[0],
        mean_aer=mean_aer,
    )


# -- weight lattice -----------------------------------------------------------


def test_lattice_tenth_step_has_84_members():
    weights = generate_weights(0.1, 0.1)
    assert len(weights) == 84
    tuples = [w.as_tuple() for w in weights]
    assert tuples == sorted(tuples)  # lexicographic emission
    for w in weights:
        assert abs(sum(w.as_tuple()) - 1.0) <= 1e-9
        assert min(w.as_tuple()) >= 0.1 - 1e-12


def test_lattice_forced_singleton():
    weights = generate_weights(0.25, 0.25)
    assert [w.as_tuple() for w in weights] == [(0.25, 0.25, 0.25, 0.25)]


def test_lattice_errors():
    with pytest.raises(LatticeError):
        generate_weights(0.1, 0.3)      # 4 * 0.3 > 1
    with pytest.raises(LatticeError):
        generate_weights(0.0, 0.1)
    with pytest.raises(LatticeError):
        generate_weights(0.3, 0.0)      # 1/0.3 is not an integer
    with pytest.raises(LatticeError):
        generate_weights(0.5, 0.1)      # leftover budget of 1.2 steps misses the lattice
    # 1/1e-320 overflows to inf
    for step, minimum in ((math.nan, 0.1), (math.inf, 0.1), (0.1, math.nan), (1e-320, 0.1)):
        with pytest.raises(LatticeError):
            generate_weights(step, minimum)


@pytest.mark.parametrize("step,minimum,size", [(0.1, 0.1, 84), (0.05, 0.1, 455), (0.05, 0.05, 969)])
def test_lattice_limit_counts_the_vectors_the_lattice_holds(monkeypatch, step, minimum, size):
    assert len(generate_weights(step, minimum)) == size
    monkeypatch.setattr(experiment, "_MAX_WEIGHTS", size - 1)
    with pytest.raises(LatticeError, match=f"gives {size} weight vectors, over the limit of {size - 1}$"):
        generate_weights(step, minimum)


def test_lattice_limit_holds_the_step_001_lattice():
    assert experiment._MAX_WEIGHTS >= 176_851  # C(103, 3), at step 0.01 and minimum 0


def test_a_lattice_too_large_for_memory_is_rejected_before_any_vector():
    # 1/1e-300 is a finite integer, and the lattice holds C(10**300 + 3, 3) vectors
    with pytest.raises(LatticeError, match=r"gives about 10\*\*899 weight vectors"):
        generate_weights(1e-300, 0.0)


def test_lattice_zero_minimum_includes_one_hot_corners():
    weights = generate_weights(0.5, 0.0)
    tuples = [w.as_tuple() for w in weights]
    assert (1.0, 0.0, 0.0, 0.0) in tuples
    assert (0.0, 0.5, 0.0, 0.5) in tuples
    assert len(tuples) == 10  # compositions of 2 into 4 parts


# -- seed derivation ------------------------------------------------------------


def test_derive_seed_is_pure_and_in_range():
    a = derive_seed(42, 1, 2, 3)
    assert a == derive_seed(42, 1, 2, 3)
    assert 0 <= a < 2**64
    assert derive_seed(42, 1, 2, 4) != a
    assert derive_seed(43, 1, 2, 3) != a


def test_derive_seed_has_no_collisions_over_the_protocol_grid():
    seeds = {
        derive_seed(7, e, w, r)
        for e in range(4) for w in range(84) for r in range(10)
    }
    assert len(seeds) == 4 * 84 * 10


# -- sweeps ----------------------------------------------------------------------


def test_minimal_sweep_single_record_report():
    reports = run_sweep(tiny_config())
    assert len(reports) == 1
    report = reports[0]
    assert report.n_solutions == 1
    record = report.solutions[0]
    assert record.run_id == 0
    # F is the run's own score, the unit-coordinate quadratic: it agrees
    # with the recomputed objectives to a relative bound, not bit for bit
    recomputed = aggregate(record.objectives, record.weights)
    assert abs(record.F - recomputed) <= 1e-12 * abs(recomputed)
    assert report.hvi == pytest.approx(math.prod(record.objectives), rel=1e-12)
    assert report.best == report.median == report.worst == record


def test_sweep_is_deterministic():
    assert run_sweep(tiny_config()) == run_sweep(tiny_config())


def test_sweep_serial_equals_parallel(monkeypatch, tmp_path):
    # 2 engines x 6 weights x 3 runs = 36 tasks. Batch caps 1, 8 and 16 cut
    # them into 36 batches of 1, 8 + 8 + 8 + 8 + 4 or 16 + 16 + 4, which
    # run in this process at one job and in two workers at two, on any
    # host; neither the reports nor the written bytes may notice
    config = tiny_config(
        engines=(EngineConfig(kind=EngineKind.GAUSSIAN, seed=0),
                 EngineConfig(kind=EngineKind.CHAOTIC, seed=0)),
        weights=tuple(generate_weights(0.5, 0.0)[:6]),
        runs_per_weight=3,
    )
    argv = ["sweep", "--engines", "gaussian,chaotic", "--seed", "7", "--runs", "3",
            "--weight-step", "0.5", "--weight-min", "0.0", "--pop", "5", "--nc", "2",
            "--nr", "2", "--nt", "5"]
    monkeypatch.setattr(experiment, "_usable_cpus", lambda: 2)
    reports, files = [], []
    for cap in (1, 8, 16):
        monkeypatch.setattr(experiment, "_MAX_BATCH", cap)
        for jobs in (1, 2):
            reports.append(run_sweep(config, jobs=jobs))
            out_dir = tmp_path / f"cap{cap}-jobs{jobs}"
            assert dispatch([*argv, "--jobs", str(jobs), "--out", str(out_dir)]) == 0
            files.append({path.name: path.read_bytes() for path in sorted(out_dir.iterdir())})
    assert all(report == reports[0] for report in reports[1:])
    assert all(written == files[0] for written in files[1:])
    assert {"report.json", "frontier_gaussian.csv", "frontier_chaotic.csv"} <= set(files[0])


def test_sweep_starts_no_more_workers_than_batches(monkeypatch):
    # threads stand in for worker processes; the sweep sizes its pool
    started = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers=None):
            started.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(experiment, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(experiment, "_usable_cpus", lambda: 4)  # so 4 jobs are not capped
    # 2 tasks at 4 jobs go out as 2 batches of 1; 9 tasks as 3, 3 and 3
    for runs, workers in ((2, [2]), (9, [3])):
        config = tiny_config(runs_per_weight=runs)
        started.clear()
        assert run_sweep(config, jobs=4) == run_sweep(config, jobs=1)
        assert started == workers
    # one batch runs in this process
    started.clear()
    run_sweep(tiny_config(), jobs=4)
    assert started == []


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_sweep_starts_no_more_workers_than_usable_cpus(monkeypatch, cpus):
    # a fork pool starts every worker at its first submit, so a huge --jobs
    # would fork one process per batch; this pool starts none and maps here
    started, batches = [], []

    class InlinePool:
        def __init__(self, max_workers=None):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            items = list(items)
            batches.append([len(batch) for batch in items])
            return map(fn, items)

    monkeypatch.setattr(experiment, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(experiment, "_usable_cpus", lambda: cpus)
    config = tiny_config(runs_per_weight=9)  # 9 tasks
    assert run_sweep(config, jobs=10**6) == run_sweep(config, jobs=1)
    # the batches are cut for the capped count: 9 in this process, 5 + 4 or 3 + 3 + 3
    expected = {1: [], 2: [[5, 4]], 3: [[3, 3, 3]]}[cpus]
    assert batches == expected
    assert started == [cpus] * len(expected)


@pytest.mark.parametrize("jobs", [0, -1, 1.5, 2.0])
def test_sweep_rejects_jobs_that_are_not_an_integer_of_at_least_1(monkeypatch, jobs):
    def no_tasks(config):
        raise AssertionError("the task list was built")

    monkeypatch.setattr(experiment, "_task_list", no_tasks)
    with pytest.raises(ConfigError, match=f"jobs must be an integer >= 1, got {jobs!r}"):
        run_sweep(tiny_config(), jobs=jobs)


def test_usable_cpus_are_the_affinity_set_else_the_cpu_count(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert experiment._usable_cpus() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert experiment._usable_cpus() == 5
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # undeterminable
    assert experiment._usable_cpus() == 1


def test_sweep_selects_the_best_of_r_runs():
    config = tiny_config(runs_per_weight=3)
    report = run_sweep(config)[0]
    winner = report.solutions[0]
    rerun = []
    for run_id in range(3):
        seed = derive_seed(config.master_seed, 0, 0, run_id)
        rerun.append(run_bfa(config.weights[0], config.bfa,
                             dataclasses.replace(config.engines[0], seed=seed)))
    assert winner.F == max(r.best_f for r in rerun)
    assert winner.seed == rerun[winner.run_id].seed


def test_sweep_median_is_lower_middle():
    config = tiny_config(weights=tuple(generate_weights(0.5, 0.0)), runs_per_weight=1)
    report = run_sweep(config)[0]
    ranked = sorted(report.solutions, key=lambda r: r.F)
    assert report.median == ranked[(len(ranked) - 1) // 2]
    assert report.best == ranked[-1]
    assert report.worst == ranked[0]
    assert report.best.F >= report.median.F >= report.worst.F


def test_protocol_grid_run_count_contract():
    # 4 engines x 53 weights x 10 runs must schedule exactly 2120 tasks
    from bforage.experiment import _task_list

    config = tiny_config(
        engines=tuple(EngineConfig(kind=k, seed=0) for k in EngineKind),
        weights=tuple(generate_weights(0.1, 0.1)[:53]),
        runs_per_weight=10,
    )
    assert len(_task_list(config)) == 2120


def test_failed_run_aborts_with_task_context(monkeypatch):
    # four tasks make one lockstep batch; the last of them fails, and the
    # error names that run, not the batch's first
    import bforage.experiment as xp

    config = tiny_config(engines=(EngineConfig(kind=EngineKind.GAUSSIAN, seed=0),
                                  EngineConfig(kind=EngineKind.WEIBULL, seed=0)),
                         runs_per_weight=2)
    failing = derive_seed(config.master_seed, 1, 0, 1)
    real = xp.run_batch
    batches = []

    def explode(score, params, engine_configs, observer=None):
        batches.append(len(engine_configs))
        if any(c.seed == failing for c in engine_configs):
            raise ConfigError("boom")
        return real(score, params, engine_configs, observer)

    monkeypatch.setattr(xp, "run_batch", explode)
    with pytest.raises(ConfigError) as err:
        run_sweep(config)
    message = str(err.value)
    assert batches[0] == 4
    assert "engine=weibull" in message and "run=1" in message and "boom" in message
    assert "gaussian" not in message


def test_failed_run_whose_error_takes_no_message_keeps_its_own_error(monkeypatch):
    # UnicodeDecodeError cannot be rebuilt from one string, so the sweep
    # raises the run's error itself, not the TypeError of the rebuild
    import bforage.experiment as xp

    error = UnicodeDecodeError("utf-8", b"\xff", 0, 1, "x")

    def explode(score, params, engine_configs, observer=None):
        raise error

    monkeypatch.setattr(xp, "run_batch", explode)
    with pytest.raises(UnicodeDecodeError) as err:
        run_sweep(tiny_config())
    assert err.value is error


def test_sweep_batches_stay_under_the_array_limit(monkeypatch):
    # with room for two runs in one array, nine runs go out as 2+2+2+2+1,
    # with the same results as in batches of 8
    import bforage.bfa as bfa
    import bforage.experiment as xp

    config = tiny_config(weights=tuple(generate_weights(0.5, 0.0)[:3]), runs_per_weight=3)
    whole = run_sweep(config)
    real = xp.run_batch
    batches = []

    def spy(score, params, engine_configs, observer=None):
        batches.append(len(engine_configs))
        return real(score, params, engine_configs, observer)

    monkeypatch.setattr(xp, "run_batch", spy)
    monkeypatch.setattr(bfa, "_MAX_ARRAY_FLOATS", 3 * bfa._run_floats(TINY_BFA) - 1)
    assert run_sweep(config) == whole
    assert batches == [2, 2, 2, 2, 1]


def test_experiment_config_validation():
    with pytest.raises(ConfigError):
        tiny_config(weights=())
    for runs in (0, 2.5, 2.0, math.nan, "2"):
        with pytest.raises(ConfigError, match="runs_per_weight"):
            tiny_config(runs_per_weight=runs)
    with pytest.raises(ConfigError):
        tiny_config(engines=())
    with pytest.raises(ConfigError):
        tiny_config(master_seed=-5)
    with pytest.raises(ConfigError, match="n_total must be >= 2"):  # aer needs two trace values
        tiny_config(bfa=dataclasses.replace(TINY_BFA, n_total=1))


def test_a_non_finite_score_in_a_sweep_names_its_run(monkeypatch):
    # the batch fails at its first non-finite value; the retry one run at a
    # time names the first run scored under the broken weights
    import bforage.experiment as xp

    config = tiny_config(engines=(EngineConfig(kind=EngineKind.GAUSSIAN, seed=0),
                                  EngineConfig(kind=EngineKind.WEIBULL, seed=0)),
                         weights=tuple(generate_weights(0.5, 0.0)[:3]), runs_per_weight=2)
    broken = config.weights[1]
    block_scorer = xp.unit_block_scorer

    def poisoned(weights):
        block = block_scorer(weights)
        rows = np.array([w == broken for w in weights])

        def score(points):
            values = block(points)
            values[rows] = math.nan
            return values

        return score

    monkeypatch.setattr(xp, "unit_block_scorer", poisoned)
    with pytest.raises(DomainError) as err:
        run_sweep(config)
    message = str(err.value)
    assert f"engine=gaussian weights={broken.as_tuple()} run=0" in message
    assert "must be finite" in message


# -- comparison -------------------------------------------------------------------


def test_compare_ranks_and_gaps():
    reports = [
        make_report(EngineKind.GAUSSIAN, 3.0, 0.2),
        make_report(EngineKind.WEIBULL, 4.0, 0.4),
        make_report(EngineKind.GAMMA, 1.0, 0.1),
        make_report(EngineKind.CHAOTIC, 2.0, 0.3),
    ]
    table = compare(reports)
    assert [row["engine"] for row in table["hvi_ranking"]] == [
        "weibull", "gaussian", "chaotic", "gamma"]
    assert table["leader"] == "weibull"
    gaps = {g["engine"]: g["percent"] for g in table["leader_gaps_percent"]}
    assert gaps["gaussian"] == pytest.approx(100.0 * (4.0 - 3.0) / 3.0)
    assert gaps["gamma"] == pytest.approx(300.0)
    assert [row["engine"] for row in table["aer_ranking"]] == [
        "weibull", "chaotic", "gaussian", "gamma"]


def test_compare_reports_ties_in_stable_order():
    reports = [
        make_report(EngineKind.GAUSSIAN, 2.0, 0.2),
        make_report(EngineKind.WEIBULL, 2.0, 0.2),
    ]
    table = compare(reports)
    assert [row["engine"] for row in table["hvi_ranking"]] == ["gaussian", "weibull"]
    assert table["hvi_ranking"][1]["tied_with_previous"] is True


def test_compare_single_report_has_no_gaps():
    table = compare([make_report(EngineKind.GAMMA, 5.0, 0.1)])
    assert len(table["hvi_ranking"]) == 1
    assert table["leader_gaps_percent"] == []


def test_compare_rejects_mismatched_weight_sets():
    a = make_report(EngineKind.GAUSSIAN, 3.0, 0.2, n=3)
    b = make_report(EngineKind.WEIBULL, 4.0, 0.4, n=2)
    with pytest.raises(ConfigError):
        compare([a, b])


def test_compare_reads_weight_sets_in_any_row_order_but_counts_repeats():
    even, skewed = WeightVector(0.25, 0.25, 0.25, 0.25), WeightVector(0.7, 0.1, 0.1, 0.1)

    def report(engine, weights):
        return experiment._build_report(engine, [
            make_record((100.0 + i, 200.0 + i, 300.0, 400.0), weights=w, engine=engine)
            for i, w in enumerate(weights)
        ])

    gaussian = report(EngineKind.GAUSSIAN, [even, skewed])
    chaotic = report(EngineKind.CHAOTIC, [even, skewed])
    reversed_chaotic = dataclasses.replace(chaotic, solutions=chaotic.solutions[::-1])
    assert compare([gaussian, reversed_chaotic]) == compare([gaussian, chaotic])
    with pytest.raises(ConfigError, match="different weight sets"):
        compare([report(EngineKind.GAUSSIAN, [even, even, skewed]),
                 report(EngineKind.CHAOTIC, [even, skewed, skewed])])


# -- persistence --------------------------------------------------------------------


def test_frontier_round_trip_preserves_every_float(tmp_path):
    records = [make_record((393.4207679359471, 1188.7030249165284,
                            1011.9909799507026, 333.2025180988497),
                           aer=1 / 3),
               make_record((438.6280707634921, 1138.1149471037136,
                            1082.7486690361427, 329.96014751955397),
                           run_id=2, aer=0.7)]
    path = tmp_path / "frontier.csv"
    write_frontier_csv(records, path)
    assert read_frontier_csv(path) == records


def test_frontier_empty_file_is_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    write_frontier_csv([], path)
    assert path.read_text().strip() == "engine,w1,w2,w3,w4,run_id,seed,A,B,C,D,f1,f2,f3,f4,F,aer"
    assert read_frontier_csv(path) == []


def test_frontier_missing_column_is_named(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("engine,w1,w2,w3,w4,run_id,A,B,C,D,f1,f2,f3,f4,F,aer\n")
    with pytest.raises(SchemaError) as err:
        read_frontier_csv(path)
    assert "seed" in str(err.value)


@pytest.mark.parametrize("read,text", [
    (read_frontier_csv, ",".join(experiment.FRONTIER_HEADER) + "\n"),
    (read_trace_csv, "generation,best_F\n1,5.0\n"),
    (read_weights_csv, "w1,w2,w3,w4\n0.25,0.25,0.25,0.25\n"),
], ids=["frontier", "trace", "weights"])
def test_a_byte_order_mark_is_named_at_line_1(tmp_path, read, text):
    path = tmp_path / "bom.csv"
    path.write_text(text, encoding="utf-8")
    read(path)
    path.write_text(text, encoding="utf-8-sig")  # the same text after a UTF-8 byte-order mark
    with pytest.raises(SchemaError) as err:
        read(path)
    assert str(err.value) == f"{path}: line 1: starts with a UTF-8 byte-order mark; save the file without one"
    assert err.value.line == 1


def test_a_record_is_a_named_tuple_with_its_old_repr(tmp_path):
    record = make_record((100.0, 200.0, 300.0, 400.0), weights=WeightVector(0.1, 0.2, 0.3, 0.4), run_id=2)
    assert repr(record) == (
        "SolutionRecord(engine=<EngineKind.GAUSSIAN: 'gaussian'>, "
        "weights=WeightVector(w1=0.1, w2=0.2, w3=0.3, w4=0.4), run_id=2, seed=8786840476651748380, "
        "decision=DecisionVector(A=2.0, B=40.0, C=4.0, D=80.0), "
        "objectives=ObjectiveVector(f1=100.0, f2=200.0, f3=300.0, f4=400.0), F=300.0, aer=0.5)")
    # equal by value, and hashed by value, whether built or read back
    twin = make_record((100.0, 200.0, 300.0, 400.0), weights=WeightVector(0.1, 0.2, 0.3, 0.4), run_id=2)
    write_frontier_csv([record], tmp_path / "frontier.csv")
    [read_back] = read_frontier_csv(tmp_path / "frontier.csv")
    assert record == twin == read_back and len({hash(record), hash(twin), hash(read_back)}) == 1
    assert type(read_back) is SolutionRecord and repr(read_back) == repr(record)
    assert record != record._replace(aer=0.25)
    edited = record._replace(F=301.0)
    assert type(edited) is SolutionRecord and edited.F == 301.0 and record.F == 300.0
    with pytest.raises(AttributeError):
        record.F = 0.0


@pytest.mark.parametrize("read,header", [
    (read_frontier_csv, ",".join(experiment.FRONTIER_HEADER)),
    (read_trace_csv, "generation,best_F"),
    (read_weights_csv, "w1,w2,w3,w4"),
], ids=["frontier", "trace", "weights"])
@pytest.mark.parametrize("line", [1, 3])
def test_a_field_over_the_csv_size_limit_is_a_schema_error_at_its_line(tmp_path, read, header, line):
    # csv.reader's 131 072-character field limit is gone: a field of 131 073
    # characters is judged like any other, here as a header or a one-field row
    huge = "9" * 131_073
    path = tmp_path / "huge.csv"
    path.write_text("\n".join([huge, ""] if line == 1 else [header, "", huge, ""]))
    with pytest.raises(SchemaError) as err:
        read(path)
    fields = header.split(",")
    message = f"missing column {fields[0]!r}" if line == 1 else f"expected {len(fields)} fields, got 1"
    assert str(err.value) == f"{path}: line {line}: {message}"
    assert err.value.line == line


def test_a_field_over_the_old_csv_size_limit_is_read_when_its_value_is_valid(tmp_path):
    # 0.25 padded with zeros parses and passes the audit, at any length
    path = tmp_path / "weights.csv"
    path.write_text("w1,w2,w3,w4\n0.25,0.25,0.25,0.25\n" + "0.25" + "0" * 131_070 + ",0.25,0.25,0.25\n")
    assert read_weights_csv(path) == [WeightVector(0.25, 0.25, 0.25, 0.25)] * 2


def test_frontier_schema_error_carries_line_number(tmp_path):
    record = make_record((100.0, 200.0, 300.0, 400.0))
    path = tmp_path / "frontier.csv"
    write_frontier_csv([record], path)
    lines = path.read_text().splitlines()
    lines.append(lines[1].replace("gaussian", "marsaglia"))
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError) as err:
        read_frontier_csv(path)
    assert "line 3" in str(err.value)


def test_frontier_aggregate_audit_on_load(tmp_path):
    record = make_record((100.0, 200.0, 300.0, 400.0))
    tampered = record._replace(F=record.F + 0.5)
    path = tmp_path / "frontier.csv"
    write_frontier_csv([tampered], path)
    with pytest.raises(SchemaError) as err:
        read_frontier_csv(path)
    assert "aggregate mismatch" in str(err.value)


@pytest.mark.parametrize("field", ["F", "aer"])
def test_frontier_non_finite_value_fails_audit(tmp_path, field):
    record = make_record((100.0, 200.0, 300.0, 400.0))
    path = tmp_path / "frontier.csv"
    write_frontier_csv([record._replace(**{field: math.nan})], path)
    with pytest.raises(SchemaError) as err:
        read_frontier_csv(path)
    assert "line 2" in str(err.value)


def test_frontier_bounds_audit_on_load(tmp_path):
    record = make_record((100.0, 200.0, 300.0, 400.0))
    bad = record._replace(decision=DecisionVector(9.0, 40.0, 4.0, 80.0))
    path = tmp_path / "frontier.csv"
    write_frontier_csv([bad], path)
    with pytest.raises(SchemaError):
        read_frontier_csv(path)


@pytest.mark.parametrize("field,value,message", [
    ("run_id", -3, "run_id=-3 is negative"),
    ("seed", -5, "seed=-5 outside"),
    ("seed", 2**64, "seed=18446744073709551616 outside"),
    ("seed", 2**70, "outside [0, 2**64)"),
], ids=["negative-run-id", "negative-seed", "seed-2**64", "seed-2**70"])
def test_frontier_impossible_ids_fail_audit(tmp_path, field, value, message):
    record = make_record((100.0, 200.0, 300.0, 400.0))
    path = tmp_path / "frontier.csv"
    edge = record._replace(run_id=0, seed=2**64 - 1)
    write_frontier_csv([edge, record._replace(**{field: value})], path)
    with pytest.raises(SchemaError, match=re.escape(message)) as err:
        read_frontier_csv(path)
    assert "line 3" in str(err.value)


@pytest.mark.parametrize("edits,message", [
    ({"engine": "marsaglia", "w2": "heavy"}, "'marsaglia' is not a valid EngineKind"),
    ({"w3": "-0.25", "run_id": "-3"}, "w3 must be non-negative, got -0.25"),
    ({"w1": "0.5", "A": "two"}, "weights must sum to 1 (within 1e-9), got 1.25"),
    ({"F": "nan", "A": "9.0"}, "aggregate mismatch: stored F=nan, recomputed 250.0"),
    ({"aer": "1.5", "D": "120.0"}, "aer=1.5 outside [0, 1]"),
    ({"A": "9.0", "D": "120.0"}, "decision A=9.0 outside [1.5, 2.5]"),
], ids=["engine-then-weight", "weight-sign-then-run-id", "weight-sum-then-A", "F-then-bounds",
        "aer-then-bounds", "A-then-D"])
def test_frontier_audit_reports_the_first_of_two_faults(tmp_path, edits, message):
    # the audit order: engine, weight parse and signs, weight sum, run_id, seed,
    # decision, objective, F and aer parse, run_id sign, seed range, aggregate,
    # aer range, decision bounds in A..D order
    record = make_record((100.0, 200.0, 300.0, 400.0))
    path = tmp_path / "frontier.csv"
    write_frontier_csv([record, record], path)
    header, first, second = path.read_text().splitlines()
    fields = dict(zip(header.split(","), second.split(",")))
    fields.update(edits)
    path.write_text("\n".join([header, first, ",".join(fields.values())]) + "\n")
    with pytest.raises(SchemaError) as err:
        read_frontier_csv(path)
    assert str(err.value) == f"{path}: line 3: {message}"
    assert err.value.line == 3


_AUDIT_ROWS = [
    make_record((393.4207679359471, 1188.7030249165284, 1011.9909799507026, 333.2025180988497),
                weights=WeightVector(0.1, 0.2, 0.3, 0.4), run_id=2, aer=1 / 3),
    make_record((438.6280707634921, 1138.1149471037136, 1082.7486690361427,
                 329.96014751955397), run_id=9, aer=0.0)._replace(
        decision=DecisionVector(2.5, 50.0, 5.0, 100.0)),
    make_record((0.0, 1e3, 1.5, 400.0), weights=WeightVector(0.7, 0.1, 0.1, 0.1),
                aer=1.0, engine=EngineKind.CHAOTIC)._replace(
        decision=DecisionVector(1.5, 30.0, 3.0, 60.0)),
]
# moves the field's value by 2e-9: breaks a weight sum or an F, or crosses a bound at its edge
_NUDGES = {"+2e-9": 2e-9, "-2e-9": -2e-9}
_AUDIT_VALUES = ["nan", "inf", "-0.0", "1e309", "", " 1.5", "1_0", "0x10", "gaussian ", "-1",
                 "18446744073709551616", repr(math.nextafter(2.5, 3.0)), *_NUDGES]


_DIALECT_FILES = {
    "frontier": (read_frontier_csv, experiment._csv_text(
        experiment.FRONTIER_HEADER, map(experiment._record_fields, _AUDIT_ROWS[:2]))),
    "trace": (read_trace_csv, "generation,best_F\n1,5.0\n2,6.0\n"),
    "weights": (read_weights_csv, "w1,w2,w3,w4\n0.1,0.2,0.3,0.4\n0.25,0.25,0.25,0.25\n"),
}
_CR = "has a carriage return (CR); save the file with \\n line endings"


def _crlf(header, first, second):
    return "\r\n".join([header, first, second, ""]), 1, _CR


def _lone_cr(header, first, second):
    return "\n".join([header, first, second[:2] + "\r" + second[2:], ""]), 3, _CR


def _quoted_field(header, first, second):
    name, rest = second.split(",", 1)
    return "\n".join([header, first, f'"{name}",{rest}', ""]), 3, repr(f'"{name}"')


def _quoted_newline(header, first, second):
    name, rest = first.split(",", 1)
    fields = len(header.split(","))
    return "\n".join([header, f'"{name}', f'",{rest}', second, ""]), 2, f"expected {fields} fields, got 1"


def _nul_in_number(header, first, second):
    rest, value = second.rsplit(",", 1)
    value = value[:1] + "\0" + value[1:]
    return "\n".join([header, first, f"{rest},{value}", ""]), 3, f"could not convert string to float: {value!r}"


def _long_field(header, first, second):
    # one over csv.reader's old field size limit
    rest, value = second.rsplit(",", 1)
    value += "0" * (131_072 - len(value)) + "x"
    return "\n".join([header, first, f"{rest},{value}", ""]), 3, f"could not convert string to float: {value!r}"


@pytest.mark.parametrize("reader", _DIALECT_FILES)
@pytest.mark.parametrize("case", [_crlf, _lone_cr, _quoted_field, _quoted_newline, _nul_in_number, _long_field],
                         ids=["crlf-line-1", "cr-line-3", "quote-line-3", "quoted-newline-line-2",
                              "nul-line-3", "long-field-line-3"])
def test_only_the_written_dialect_is_read(tmp_path, reader, case):
    # a row is its physical line, split at every comma, and a fault is named
    # at that line: no quoting, no CR, no field size limit; NUL is a character
    # like any other, on every Python
    read, text = _DIALECT_FILES[reader]
    path = tmp_path / "file.csv"
    path.write_text(text)
    assert len(read(path)) == 2
    bad, line, message = case(*text.splitlines())
    path.write_bytes(bad.encode())
    with pytest.raises(SchemaError) as err:
        read(path)
    assert str(err.value).startswith(f"{path}: line {line}: ")
    assert message in str(err.value)
    assert err.value.line == line


def _assert_reader_agrees_with_the_oracle(path, edits):
    write_frontier_csv(_AUDIT_ROWS, path)
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    for index, name, value in edits:
        column = experiment.FRONTIER_HEADER.index(name)
        if value in _NUDGES:
            try:
                value = repr(float(rows[index][column]) + _NUDGES[value])
            except ValueError:  # not a number: append the nudge's text
                value = rows[index][column] + value
        rows[index][column] = value
    text = "\n".join([",".join(experiment.FRONTIER_HEADER), *map(",".join, rows)]) + "\n"
    path.write_text(text)
    try:
        want = frontier_oracle.read_frontier_text(text)
    except frontier_oracle.OracleError as fault:
        with pytest.raises(SchemaError) as err:
            read_frontier_csv(path)
        assert str(err.value) == f"{path}: line {fault.line}: {fault.message}"
        assert err.value.line == fault.line
    else:
        got = read_frontier_csv(path)
        assert got == want
        assert repr(got) == repr(want)  # bit for bit: -0.0 is not 0.0 here


def test_frontier_reader_agrees_with_the_oracle_on_every_single_edit(tmp_path):
    path = tmp_path / "frontier.csv"
    _assert_reader_agrees_with_the_oracle(path, [])
    for index in range(len(_AUDIT_ROWS)):
        for name in experiment.FRONTIER_HEADER:
            for value in _AUDIT_VALUES:
                _assert_reader_agrees_with_the_oracle(path, [(index, name, value)])


@given(st.lists(st.tuples(st.integers(0, 2), st.sampled_from(experiment.FRONTIER_HEADER),
                          st.sampled_from(_AUDIT_VALUES)), min_size=2, max_size=2))
@settings(max_examples=300, deadline=None)
def test_frontier_reader_agrees_with_the_oracle_on_two_edits(tmp_path_factory, edits):
    _assert_reader_agrees_with_the_oracle(tmp_path_factory.getbasetemp() / "agreement.csv", edits)


def test_a_valid_frontier_is_audited_in_one_call_and_a_faulty_one_replayed_row_by_row(tmp_path, monkeypatch):
    calls = []

    def recorded(columns, count):
        calls.append((len(columns[0]), count))
        return audit(columns, count)

    audit = experiment._frontier_records
    monkeypatch.setattr(experiment, "_frontier_records", recorded)
    path = tmp_path / "frontier.csv"
    write_frontier_csv(_AUDIT_ROWS, path)
    assert read_frontier_csv(path) == _AUDIT_ROWS
    assert calls == [(3, 0)]
    calls.clear()
    lines = path.read_text().splitlines()
    lines[3] = lines[3].replace("chaotic", "normal", 1)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError) as err:
        read_frontier_csv(path)
    assert err.value.line == 4
    assert calls == [(3, 0), (1, 0), (1, 1), (1, 2)]


@pytest.mark.parametrize("read,text,line,message", [
    # the whole file fails first on the later row's float; the replay names the earlier fault
    (read_trace_csv, "generation,best_F\n2,5.0\n1,x\n", 2, "generations must run 1..N, got 2"),
    (read_trace_csv, "generation,best_F\n1,5.0\n3,x\n", 3, "could not convert string to float: 'x'"),
    (read_trace_csv, "generation,best_F\n1,5.0\n2,6.0\n3,x\n", 4, "could not convert string to float: 'x'"),
    (read_weights_csv, "w1,w2,w3,w4\n0.5,0.5,0.5,0.5\n0.1,x,0.3,0.4\n", 2,
     "weights must sum to 1 (within 1e-9), got 2.0"),
], ids=["trace-order", "trace-float", "trace-replay", "weights-order"])
def test_trace_and_weights_readers_report_the_first_fault_in_file_order(tmp_path, read, text, line, message):
    path = tmp_path / "file.csv"
    path.write_text(text)
    with pytest.raises(SchemaError) as err:
        read(path)
    assert str(err.value) == f"{path}: line {line}: {message}"


def test_a_large_plain_frontier_is_split_without_the_csv_reader(tmp_path, monkeypatch):
    # the step-0.025 lattice from 0.1 has 2925 weight vectors; the whole file
    # is far over the reader's field size limit, each line far under it
    rng = np.random.default_rng(22)
    records = []
    for run_id, weights in enumerate(generate_weights(0.025, 0.1)):
        record = make_record((rng.random(4) * 1000).tolist(), weights=weights, run_id=run_id % 10,
                             aer=float(rng.random()))
        records.append(record._replace(decision=to_physical(rng.random(4))))
    path = tmp_path / "frontier.csv"
    write_frontier_csv(records, path)
    assert len(records) == 2925
    assert path.stat().st_size > 5 * csv.field_size_limit()

    def refuse(*args, **kwargs):
        raise AssertionError("plain text went through csv.reader")

    monkeypatch.setattr(csv, "reader", refuse)
    assert read_frontier_csv(path) == records


def test_trace_round_trip(tmp_path):
    trace = [100.0, 101.5, 101.5, 230.0 / 7.0]
    path = tmp_path / "trace.csv"
    for values in (trace, np.array(trace)):  # numpy floats write as plain ones
        write_trace_csv(list(values), path)
        assert read_trace_csv(path) == trace


def test_trace_rejects_gap_in_generations(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("generation,best_F\n1,5.0\n3,6.0\n")
    with pytest.raises(SchemaError) as err:
        read_trace_csv(path)
    assert "line 3" in str(err.value)


def test_weights_round_trip(tmp_path):
    weights = generate_weights(0.1, 0.1)
    path = tmp_path / "weights.csv"
    write_weights_csv(weights, path)
    assert read_weights_csv(path) == weights


def test_report_json_shape(tmp_path):
    report = make_report(EngineKind.WEIBULL, 12.5, 0.25)
    payload = report_to_dict(report)
    assert set(payload) == {"engine", "hvi", "mean_aer", "best", "median", "worst", "n_solutions"}
    assert set(payload["best"]) == {
        "engine", "w1", "w2", "w3", "w4", "run_id", "seed",
        "A", "B", "C", "D", "f1", "f2", "f3", "f4", "F", "aer"}
    path = tmp_path / "report.json"
    write_report_json([report], path)
    loaded = json.loads(path.read_text())
    assert loaded[0]["hvi"] == 12.5


def test_report_hvi_matches_recomputation_from_csv(tmp_path):
    config = tiny_config(weights=tuple(generate_weights(0.5, 0.0)[:4]))
    report = run_sweep(config)[0]
    path = tmp_path / "frontier.csv"
    write_frontier_csv(report.solutions, path)
    records = read_frontier_csv(path)
    assert hvi_exact([r.objectives for r in records], NADIR_REFERENCE) == report.hvi


def test_atomic_writer_leaves_no_file_on_failure(tmp_path):
    # a non-string payload makes the underlying write raise mid-flight
    path = tmp_path / "out.csv"
    with pytest.raises(TypeError):
        atomic_write_text(path, 1234)  # type: ignore[arg-type]
    assert not path.exists()
    assert list(tmp_path.iterdir()) == []  # no stray temp files either


def test_atomic_writer_replaces_existing_content(tmp_path):
    path = tmp_path / "out.csv"
    atomic_write_text(path, "first\n")
    atomic_write_text(path, "second\n")
    assert path.read_text() == "second\n"
