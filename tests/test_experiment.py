import dataclasses
import json
import math
import re
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from bforage import experiment
from bforage.bfa import BfaParams, run_bfa
from bforage.engines import EngineConfig, EngineKind
from bforage.errors import ConfigError, LatticeError, SchemaError
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
from bforage.problem import DecisionVector, ObjectiveVector, WeightVector, aggregate, evaluate

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
    for step, minimum in ((math.nan, 0.1), (math.inf, 0.1), (0.1, math.nan)):
        with pytest.raises(LatticeError):
            generate_weights(step, minimum)


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


def test_sweep_serial_equals_parallel():
    config = tiny_config(
        engines=(EngineConfig(kind=EngineKind.GAUSSIAN, seed=0),
                 EngineConfig(kind=EngineKind.CHAOTIC, seed=0)),
        weights=tuple(generate_weights(0.5, 0.0)[:3]),
        runs_per_weight=2,
    )
    assert run_sweep(config, jobs=1) == run_sweep(config, jobs=2)


def test_sweep_starts_no_more_workers_than_batches(monkeypatch):
    # threads stand in for worker processes; the sweep sizes its pool
    started = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers=None):
            started.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(experiment, "ProcessPoolExecutor", RecordingPool)
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

    def explode(weights, params, engine_configs, observer=None):
        batches.append(len(engine_configs))
        if any(c.seed == failing for c in engine_configs):
            raise ConfigError("boom")
        return real(weights, params, engine_configs, observer)

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

    def explode(weights, params, engine_configs, observer=None):
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

    def spy(weights, params, engine_configs, observer=None):
        batches.append(len(engine_configs))
        return real(weights, params, engine_configs, observer)

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
    tampered = dataclasses.replace(record, F=record.F + 0.5)
    path = tmp_path / "frontier.csv"
    write_frontier_csv([tampered], path)
    with pytest.raises(SchemaError) as err:
        read_frontier_csv(path)
    assert "aggregate mismatch" in str(err.value)


@pytest.mark.parametrize("field", ["F", "aer"])
def test_frontier_non_finite_value_fails_audit(tmp_path, field):
    record = make_record((100.0, 200.0, 300.0, 400.0))
    path = tmp_path / "frontier.csv"
    write_frontier_csv([dataclasses.replace(record, **{field: math.nan})], path)
    with pytest.raises(SchemaError) as err:
        read_frontier_csv(path)
    assert "line 2" in str(err.value)


def test_frontier_bounds_audit_on_load(tmp_path):
    record = make_record((100.0, 200.0, 300.0, 400.0))
    bad = dataclasses.replace(record, decision=DecisionVector(9.0, 40.0, 4.0, 80.0))
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
    edge = dataclasses.replace(record, run_id=0, seed=2**64 - 1)
    write_frontier_csv([edge, dataclasses.replace(record, **{field: value})], path)
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


def test_trace_round_trip(tmp_path):
    trace = [100.0, 101.5, 101.5, 230.0 / 7.0]
    path = tmp_path / "trace.csv"
    for values in (trace, np.array(trace)):  # run_custom traces hold numpy floats
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
