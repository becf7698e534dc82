import dataclasses
import errno
import io
import json
import math
import os
import re
import sys
import time
from pathlib import Path

import pytest

from bforage.bfa import BfaParams
from bforage.cli import _BFA_KEYS, _ENGINE_PARAM_KEYS, _RUN_KEYS, _SWEEP_KEYS, dispatch
from bforage.engines import EngineConfig, EngineKind
from bforage.experiment import read_frontier_csv, read_trace_csv, write_frontier_csv, write_trace_csv
from bforage.metrics import hvi_exact
from bforage.problem import WeightVector, aggregate, evaluate


def run_cli(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- evaluate -----------------------------------------------------------------


def test_evaluate_prints_objectives_csv(capsys):
    code, out, _ = run_cli(capsys, "evaluate", "--a", "2.0", "--b", "40", "--c", "4", "--d", "80")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "f1,f2,f3,f4"
    values = tuple(float(v) for v in row.split(","))
    assert values == evaluate((2.0, 40.0, 4.0, 80.0))


def test_evaluate_with_weights_appends_aggregate(capsys):
    code, out, _ = run_cli(capsys, "evaluate", "--a", "2.0", "--b", "40", "--c", "4",
                           "--d", "80", "--weights", "0.1,0.7,0.1,0.1")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "f1,f2,f3,f4,F"
    values = [float(v) for v in row.split(",")]
    expected = aggregate(evaluate((2.0, 40.0, 4.0, 80.0)), WeightVector(0.1, 0.7, 0.1, 0.1))
    assert values[4] == expected


def test_evaluate_out_of_bounds_names_the_variable(capsys):
    code, _, err = run_cli(capsys, "evaluate", "--a", "9.9", "--b", "40", "--c", "4", "--d", "80")
    assert code == 2
    assert "A=9.9" in err and "[1.5, 2.5]" in err


# -- usage errors ----------------------------------------------------------------


def test_unknown_verb_is_a_usage_error(capsys):
    code, _, _ = run_cli(capsys, "optimize")
    assert code == 1


def test_unknown_flag_is_a_usage_error(capsys):
    code, _, _ = run_cli(capsys, "evaluate", "--a", "2", "--b", "40", "--c", "4",
                         "--d", "80", "--frob", "1")
    assert code == 1


def test_run_without_seed_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys, "run")
    assert code == 1
    assert "seed" in err


def test_seed_flag_and_file_key_parse_alike(capsys, tmp_path):
    # base-prefixed literals as flag or file key; a bad flag is a usage
    # error, a bad key a config error that names its line
    config = tmp_path / "run.conf"
    config.write_text("nt = 2\npop = 2\nseed = 0x10\n")
    for argv in (["--seed", "0x10", "--nt", "2", "--pop", "2"], ["--config", str(config)]):
        code, _, err = run_cli(capsys, "run", *argv)
        assert code == 0
        assert "seed = 16" in err.splitlines()
    for verb in ("run", "sweep"):
        code, _, err = run_cli(capsys, verb, "--seed", "1.5")
        assert code == 1
        assert "--seed" in err
    config.write_text("nt = 2\nseed = 1.5\n")
    for verb in ("run", "sweep"):
        code, _, err = run_cli(capsys, verb, "--config", str(config))
        assert code == 2
        assert ":2: bad value for 'seed'" in err


def test_help_lists_flags_and_defaults(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "400")  # one help line per flag
    for verb, expected_flags in [
        ("run", ["--nt", "--pop", "--ns", "--nc", "--nr", "--step", "--ped",
                 "--wrep", "--watt", "--hrep", "--hatt",
                 "--seed", "--weights", "--config", "--out"]),
        ("sweep", ["--engines", "--runs", "--weights-file", "--weight-step",
                   "--weight-min", "--jobs", "--plot"]),
        ("hvi", ["--input", "--ref", "--method", "--samples", "--seed"]),
        ("aer", ["--input", "--threshold"]),
        ("weights", ["--step", "--min", "--out"]),
        ("compare", ["--input", "--plot"]),
        ("evaluate", ["--a", "--b", "--c", "--d", "--weights"]),
    ]:
        code, out, _ = run_cli(capsys, verb, "--help")
        assert code == 0
        for flag in expected_flags:
            assert flag in out, f"{verb} --help must document {flag}"
        assert "default" in out

    # the key tables are the only source: one key per dataclass field, and
    # every flag's help shows that field's dataclass default
    for cls, table, own_flags in [(BfaParams, _BFA_KEYS, ()),
                                  (EngineConfig, _ENGINE_PARAM_KEYS, ("kind", "seed"))]:
        fields = [f.name for f in dataclasses.fields(cls) if f.name not in own_flags]
        assert sorted(field for field, *_ in table.values()) == sorted(fields)
    for verb, keys, own_flags in [("run", _RUN_KEYS, {"--out"}),
                                  ("sweep", _SWEEP_KEYS, {"--out", "--plot"})]:
        _, out, _ = run_cli(capsys, verb, "--help")
        lines = [line.strip() for line in out.splitlines()]
        # one flag per key, and no other way to set one
        tables = {f"--{key.replace('_', '-')}" for key in [*keys, *_BFA_KEYS, *_ENGINE_PARAM_KEYS]}
        flags = {line.split()[0] for line in lines if line.startswith("--")}
        assert flags == tables | own_flags | {"--config"}
        for table, instance in [(_BFA_KEYS, BfaParams()),
                                (_ENGINE_PARAM_KEYS, EngineConfig(kind="gaussian", seed=0))]:
            for key, (field, _, _) in table.items():
                line = next(l for l in lines if l.startswith(f"--{key} "))
                assert line.endswith(f"(default: {getattr(instance, field)})"), line


# -- run ---------------------------------------------------------------------------


def test_run_emits_frontier_schema_and_files(capsys, tmp_path):
    out_dir = tmp_path / "out"
    code, out, err = run_cli(
        capsys, "run", "--seed", "5", "--nt", "6", "--pop", "4",
        "--engine", "weibull", "--out", str(out_dir),
    )
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "engine,w1,w2,w3,w4,run_id,seed,A,B,C,D,f1,f2,f3,f4,F,aer"
    assert row.startswith("weibull,")
    records = read_frontier_csv(out_dir / "solution.csv")
    assert len(records) == 1 and records[0].seed == 5
    trace = read_trace_csv(out_dir / "trace.csv")
    assert len(trace) == 6
    assert records[0].F == trace[-1]
    assert "# resolved configuration" in err


def test_run_is_reproducible_across_invocations(capsys):
    args = ("run", "--seed", "9", "--nt", "5", "--pop", "4", "--engine", "chaotic")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_engine_keys_are_flags_with_the_echo_and_output_they_always_had(capsys):
    # recorded when engine parameters were given as --engine-param key=value
    code, out, err = run_cli(capsys, "run", "--engine", "chaotic", "--seed", "1", "--nt", "4",
                             "--pop", "3", "--r0", "3.7", "--warmup", "4")
    assert code == 0
    assert err == (
        "# resolved configuration\n"
        "engine = chaotic\nseed = 1\nweights = 0.25,0.25,0.25,0.25\naer_threshold = 0.01\n"
        "nt = 4\npop = 3\nns = 5\nnc = 10\nnr = 5\nstep = 0.05\nped = 0.25\n"
        "wrep = 10.0\nwatt = 0.2\nhrep = 0.1\nhatt = 0.1\n"
        "k = 1.0\nalpha = 2\npsi0 = 0.3\nr0 = 3.7\ndr = 0.01\nwarmup = 4\n"
    )
    assert out == (
        "engine,w1,w2,w3,w4,run_id,seed,A,B,C,D,f1,f2,f3,f4,F,aer\n"
        "chaotic,0.25,0.25,0.25,0.25,0,1,2.1406112740324357,50.0,4.272555765429307,"
        "90.83304460050206,610.9630984060232,1476.90347435496,997.6006186425809,"
        "323.3717322240865,852.2097309069126,0.6666666666666666\n"
    )


def test_config_file_supplies_values_and_flags_override(capsys, tmp_path):
    config = tmp_path / "run.conf"
    config.write_text("# comment line\nnt = 5\npop = 4\nseed = 11\n")
    code, out, err = run_cli(capsys, "run", "--config", str(config), "--nt", "3")
    assert code == 0
    assert "nt = 3" in err      # flag beat the file
    assert "pop = 4" in err     # file beat the default
    assert "seed = 11" in err


def test_empty_config_file_resolves_to_pure_defaults(capsys, tmp_path):
    config = tmp_path / "empty.conf"
    config.write_text("# nothing but comments\n\n")
    code, _, err = run_cli(capsys, "run", "--config", str(config), "--seed", "1",
                           "--nt", "2", "--pop", "4")
    assert code == 0
    for line in ("pop = 4", "ns = 5", "nc = 10", "nr = 5",
                 "step = 0.05", "ped = 0.25",
                 "wrep = 10.0", "watt = 0.2", "hrep = 0.1", "hatt = 0.1"):
        assert line in err


def test_run_with_single_generation_cannot_rate_exploration(capsys, monkeypatch):
    # a one-entry trace has no deviations, so both verbs reject the setting before any run
    def no_run(*args, **kwargs):
        pytest.fail("a run was started")

    monkeypatch.setattr("bforage.bfa.run_batch", no_run)
    monkeypatch.setattr("bforage.experiment.run_batch", no_run)
    sweep = ["--engines", "gaussian", "--runs", "1", "--weight-step", "0.5", "--weight-min", "0.0"]
    for argv in (["run"], ["sweep", *sweep]):
        code, _, err = run_cli(capsys, *argv, "--seed", "1", "--nt", "1", "--pop", "4")
        assert code == 2
        assert "n_total must be >= 2" in err and "trace" in err


def test_a_chaotic_warm_up_over_the_cap_is_rejected_before_any_engine_is_built(capsys, monkeypatch):
    # warmup=1e9 would take about 100 s in each engine's constructor
    def no_engine(*args, **kwargs):
        pytest.fail("an engine was built")

    monkeypatch.setattr("bforage.bfa.StochasticEngine", no_engine)
    sweep = ["--engines", "gaussian,chaotic", "--runs", "1", "--weight-step", "0.5", "--weight-min", "0.0"]
    for argv in (["run", "--engine", "chaotic"], ["sweep", *sweep]):
        code, _, err = run_cli(capsys, *argv, "--seed", "1", "--warmup", "1e9")
        assert code == 2
        assert "warmup must be at most 1000000 for the chaotic engine, got 1000000000" in err


def test_config_file_bad_value_reports_line(capsys, tmp_path):
    config = tmp_path / "run.conf"
    config.write_text("nt = 5\nped = 1.5\nseed = 1\n")
    code, _, err = run_cli(capsys, "run", "--config", str(config))
    assert code == 2
    assert "p_elim" in err or "ped" in err
    for key in ("warmup", "nt"):
        config.write_text(f"pop = 4\n{key} = inf\nseed = 1\n")
        code, _, err = run_cli(capsys, "run", "--config", str(config))
        assert code == 2
        assert f":2: bad value for {key!r}" in err
    config.write_text("nt = 5\npop = 4\nNT = 3\nseed = 1\n")
    code, _, err = run_cli(capsys, "run", "--config", str(config))
    assert code == 2
    assert ":3: duplicate key 'nt', first given on line 1" in err


def test_integer_keys_accept_integral_numbers(capsys, tmp_path):
    # BFA and engine integer keys parse alike in a config file
    config = tmp_path / "run.conf"
    config.write_text("nt = 3.0\npop = 4\nalpha = 2.0\nseed = 1\n")
    code, _, err = run_cli(capsys, "run", "--config", str(config))
    assert code == 0
    assert "nt = 3" in err.splitlines() and "alpha = 2" in err.splitlines()
    # integer literals parse exactly, beyond float precision (warmup is inert off chaotic)
    config.write_text("nt = 2\npop = 2\nwarmup = 9007199254740993\nseed = 1\n")
    code, _, err = run_cli(capsys, "run", "--engine", "gaussian", "--config", str(config))
    assert code == 0
    assert "warmup = 9007199254740993" in err.splitlines()
    # a flag parses exactly as its file key does, and a non-integral value
    # is still a usage error
    code, _, err = run_cli(capsys, "run", "--seed", "1", "--nt", "3.0", "--pop", "4e0",
                           "--alpha", "2.0")
    assert code == 0
    assert {"nt = 3", "pop = 4", "alpha = 2"} <= set(err.splitlines())
    sweep = ["sweep", "--seed", "1", "--engines", "gaussian", "--weight-step", "0.5",
             "--weight-min", "0.25", "--pop", "2", "--nt", "2"]
    code, _, err = run_cli(capsys, *sweep, "--runs", "1.0", "--jobs", "1e0")
    assert code == 0
    assert {"runs = 1", "jobs = 1"} <= set(err.splitlines())
    from test_experiment import make_record

    frontier = tmp_path / "frontier.csv"
    write_frontier_csv([make_record((500.0, 700.0, 300.0, 400.0))], frontier)
    hvi = ["hvi", "--input", str(frontier), "--method", "mc"]
    code, out, _ = run_cli(capsys, *hvi, "--samples", "1e3", "--seed", "1.0")
    assert code == 0
    assert {"samples=1000", "seed=1"} <= set(out.splitlines())
    for argv in (["run", "--seed", "1", "--nt", "2.5"], ["run", "--seed", "1", "--pop", "inf"],
                 [*sweep, "--runs", "1.5"], [*sweep, "--jobs", "2.5"],
                 ["run", "--seed", "1", "--alpha", "2.5"], ["run", "--seed", "1", "--warmup", "2.5"],
                 [*hvi, "--samples", "1.5", "--seed", "1"], [*hvi, "--samples", "1e3", "--seed", "1.5"]):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert "invalid int value" in err


@pytest.mark.parametrize("argv,code", [
    (["--alpha", "inf"], 1),
    (["--warmup", "nan"], 1),
    (["--weights", "nan,0.3,0.3,0.4"], 2),
    (["--k", "nan"], 2),
    (["--dr", "inf"], 2),
    (["--wrep", "nan"], 2),
    (["--step", "inf"], 2),
])
def test_run_rejects_non_finite_input(capsys, argv, code):
    assert run_cli(capsys, "run", "--seed", "1", "--nt", "2", "--pop", "4", *argv)[0] == code


def test_run_rejects_a_step_whose_swim_path_overflows(capsys):
    code, out, err = run_cli(capsys, "run", "--seed", "1", "--nt", "3", "--step", "1e308")
    assert code == 2 and out == ""
    assert "step_size=1e+308 overflows" in err


@pytest.mark.parametrize("argv,field", [
    (["--engine", "weibull", "--k", "0.001"], "k="),
])
def test_run_rejects_engine_params_whose_variates_overflow(capsys, argv, field):
    code, _, err = run_cli(capsys, "run", "--seed", "1", "--nt", "3", "--pop", "4", *argv)
    assert code == 2
    assert "overflows" in err and field in err


@pytest.mark.parametrize("alpha,code", [(155, 0), (156, 2), (800, 2)])
def test_run_rejects_a_gamma_shape_whose_cdf_overflows(capsys, alpha, code):
    code_seen, _, err = run_cli(capsys, "run", "--seed", "1", "--nt", "3", "--pop", "4",
                                "--engine", "gamma", "--alpha", str(alpha))
    assert code_seen == code
    if code:
        assert f"alpha={alpha}" in err and "A=nan" not in err


@pytest.mark.parametrize("verb", ["run", "sweep"])
def test_nan_aer_threshold_is_rejected_before_any_run(capsys, monkeypatch, verb):
    def no_run(*args, **kwargs):
        pytest.fail("a run was started")

    monkeypatch.setattr("bforage.cli.run_bfa", no_run)
    monkeypatch.setattr("bforage.experiment.run_batch", no_run)
    argv = [verb, "--seed", "1", "--nt", "2", "--pop", "4", "--aer-threshold", "nan"]
    if verb == "sweep":
        argv += ["--engines", "gaussian", "--runs", "1", "--weight-step", "0.5",
                 "--weight-min", "0.0"]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "aer_threshold" in err


def test_config_file_unknown_key_reports_line(capsys, tmp_path):
    config = tmp_path / "run.conf"
    config.write_text("nt = 5\nwibble = 3\n")
    code, _, err = run_cli(capsys, "run", "--config", str(config), "--seed", "1")
    assert code == 2
    assert ":2:" in err and "wibble" in err


def test_config_file_with_a_byte_order_mark_reports_line_1(capsys, tmp_path):
    config = tmp_path / "run.conf"
    config.write_text("nt = 5\n", encoding="utf-8-sig")
    code, _, err = run_cli(capsys, "run", "--config", str(config), "--seed", "1")
    assert code == 2
    assert err == f"error: {config}:1: starts with a UTF-8 byte-order mark; save the file without one\n"


def test_config_file_malformed_line_reports_line(capsys, tmp_path):
    config = tmp_path / "run.conf"
    config.write_text("nt 5\n")
    code, _, err = run_cli(capsys, "run", "--config", str(config), "--seed", "1")
    assert code == 2
    assert ":1:" in err


def test_echoed_config_round_trips(capsys, tmp_path):
    code, _, err1 = run_cli(capsys, "run", "--seed", "3", "--nt", "4", "--pop", "4",
                            "--engine", "gamma", "--alpha", "3")
    assert code == 0
    echo_lines = [l for l in err1.splitlines() if "=" in l and not l.startswith("#")]
    config = tmp_path / "echo.conf"
    config.write_text("\n".join(echo_lines) + "\n")
    code, _, err2 = run_cli(capsys, "run", "--config", str(config))
    assert code == 0
    echo_again = [l for l in err2.splitlines() if "=" in l and not l.startswith("#")]
    assert echo_again == echo_lines


@pytest.mark.parametrize("verb,argv", [
    ("run", ["--seed", "3", "--nt", "4", "--pop", "4", "--engine", " Gamma",
             "--alpha", "3", "--aer-threshold", "0.02"]),
    ("sweep", ["--seed", "77", "--engines", "gaussian, chaotic", "--runs", "2",
               "--weight-step", "0.5", "--weight-min", "0.0", "--nt", "3", "--pop", "3"]),
    ("sweep", ["--seed", "5", "--engines", "weibull", "--runs", "2", "--weights-file", "WEIGHTS",
               "--weight-step", "0.3", "--nt", "3", "--pop", "3", "--hatt", "0", "--hrep", "0"]),
], ids=["run", "sweep-lattice", "sweep-weights-file"])
def test_saved_echo_replays_as_a_config_file(capsys, tmp_path, verb, argv):
    weights = tmp_path / "weights.csv"
    weights.write_text("w1,w2,w3,w4\n0.25,0.25,0.25,0.25\n0.7,0.1,0.1,0.1\n")
    argv = [str(weights) if arg == "WEIGHTS" else arg for arg in argv]
    code, out, err = run_cli(capsys, verb, *argv)
    assert code == 0 and err.startswith("# resolved configuration\n")
    config = tmp_path / "echo.conf"
    config.write_text(err)
    assert run_cli(capsys, verb, "--config", str(config)) == (0, out, err)


def test_readme_lists_every_config_key():
    # the README's key lists, one per table, in echo order
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("### Config files", 1)[1].split("\n#", 1)[0]
    items = re.findall(r"^- ([^:]+): ((?:.|\n  )+)", section, flags=re.MULTILINE)
    listed = {label: re.findall(r"`(\w+)`", keys) for label, keys in items}
    assert listed == {
        "`run`": list(_RUN_KEYS),
        "`sweep`": list(_SWEEP_KEYS),
        "optimizer, both verbs": list(_BFA_KEYS),
        "engine, both verbs": list(_ENGINE_PARAM_KEYS),
    }


@pytest.mark.parametrize("argv", [
    ["run", "--seed", "1", "--config", "FILE"],
    ["hvi", "--input", "FILE"],
    ["aer", "--input", "FILE"],
    ["sweep", "--seed", "1", "--weights-file", "FILE"],
], ids=["run-config", "hvi-input", "aer-input", "sweep-weights-file"])
def test_a_file_that_is_not_utf8_exits_2_naming_it(capsys, tmp_path, argv):
    path = tmp_path / "binary.dat"
    path.write_bytes(b"\xff\xfe\x00bad")
    code, out, err = run_cli(capsys, *[str(path) if arg == "FILE" else arg for arg in argv])
    assert code == 2
    assert err == f"error: {path}: not UTF-8 text (invalid start byte)\n"
    assert out == ""


@pytest.mark.parametrize("argv,text", [
    (["hvi", "--input", "FILE"], None),
    (["aer", "--input", "FILE"], "generation,best_F\n1,5.0\n2,6.0\n"),
    (["sweep", "--seed", "1", "--weights-file", "FILE"], "w1,w2,w3,w4\n0.25,0.25,0.25,0.25\n"),
], ids=["hvi-input", "aer-input", "sweep-weights-file"])
def test_a_file_with_a_byte_order_mark_exits_2_naming_it(capsys, tmp_path, argv, text):
    path = tmp_path / "bom.csv"
    if text is None:
        from test_experiment import make_record

        write_frontier_csv([make_record((500.0, 700.0, 300.0, 400.0))], path)
        text = path.read_text()
    path.write_text(text, encoding="utf-8-sig")
    code, out, err = run_cli(capsys, *[str(path) if arg == "FILE" else arg for arg in argv])
    assert code == 2
    assert err == f"error: {path}: line 1: starts with a UTF-8 byte-order mark; save the file without one\n"
    assert out == ""


@pytest.mark.parametrize("argv,column", [
    (["compare", "--input", "GOOD", "--input", "FILE"], "engine"),
    (["sweep", "--seed", "1", "--weights-file", "FILE"], "w3"),
    (["aer", "--input", "FILE"], "generation"),
], ids=["compare", "sweep-weights-file", "aer-input"])
def test_a_csv_schema_error_names_its_file(capsys, tmp_path, argv, column):
    from test_experiment import make_record

    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    write_frontier_csv([make_record((500.0, 700.0, 300.0, 400.0))], good)
    bad.write_text("w1,w2\n")
    paths = {"GOOD": str(good), "FILE": str(bad)}
    code, out, err = run_cli(capsys, *[paths.get(arg, arg) for arg in argv])
    assert code == 2
    assert err == f"error: {bad}: line 1: missing column {column!r}\n"
    assert out == ""


@pytest.mark.parametrize("argv,config,code", [
    (["--sigma", "2"], None, 1),
    ([], "sigma = 2", 2),
    (["--no-swarming"], None, 1),
    ([], "swarming = false", 2),
    (["--engine-param", "k=2"], None, 1),
], ids=["sigma-flag", "sigma-key", "no-swarming-flag", "swarming-key", "engine-param-flag"])
def test_removed_settings_are_rejected(capsys, tmp_path, argv, config, code):
    # location, scale and rate cancel in every unit draw, and swarming is
    # off exactly when both signal heights are zero, so none is a setting;
    # each engine parameter is its own flag, so --engine-param is gone
    if config is not None:
        path = tmp_path / "run.conf"
        path.write_text(config + "\n")
        argv = ["--config", str(path)]
    code_seen, out, err = run_cli(capsys, "run", "--seed", "1", "--nt", "2", "--pop", "4", *argv)
    assert code_seen == code
    assert out == ""
    if config is not None:
        assert f"unknown key {config.split()[0]!r}" in err


def test_a_field_over_the_csv_size_limit_exits_2_naming_its_file(capsys, tmp_path):
    # no field size limit: the field is judged as a header like any other
    path = tmp_path / "huge.csv"
    path.write_text("9" * 131_073 + "\n")
    code, out, err = run_cli(capsys, "hvi", "--input", str(path))
    assert code == 2
    assert err == f"error: {path}: line 1: missing column 'engine'\n"
    assert out == ""


@pytest.mark.parametrize("text,line,message", [
    ("generation,best_F\r\n1,5.0\r\n", 1, "has a carriage return (CR); save the file with \\n line endings"),
    ('generation,best_F\n1,5.0\n"2",6.0\n', 3, "invalid literal for int() with base 10: '\"2\"'"),
    ('generation,best_F\n"1\n",5.0\n', 2, "expected 2 fields, got 1"),
], ids=["crlf", "quoted-field", "quoted-newline"])
def test_another_csv_dialect_exits_2_naming_file_and_line(capsys, tmp_path, text, line, message):
    path = tmp_path / "trace.csv"
    path.write_bytes(text.encode())
    code, out, err = run_cli(capsys, "aer", "--input", str(path))
    assert code == 2
    assert err == f"error: {path}: line {line}: {message}\n"
    assert out == ""


# -- weights ------------------------------------------------------------------------


def test_run_and_weights_print_the_files_they_write(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "run", "--seed", "5", "--nt", "3", "--pop", "4",
                           "--engine", "gamma", "--out", str(tmp_path / "run"))
    assert code == 0
    assert out == (tmp_path / "run" / "solution.csv").read_text()
    code, out, _ = run_cli(capsys, "weights", "--step", "0.1", "--min", "0")
    assert code == 0
    code, _, _ = run_cli(capsys, "weights", "--step", "0.1", "--min", "0", "--out", str(tmp_path / "w.csv"))
    assert code == 0
    assert out == (tmp_path / "w.csv").read_text() and out.count("\n") == 287


def test_weights_stdout_lattice(capsys):
    code, out, _ = run_cli(capsys, "weights", "--step", "0.25", "--min", "0.25")
    assert code == 0
    assert out.splitlines() == ["w1,w2,w3,w4", "0.25,0.25,0.25,0.25"]


def test_weights_lattice_error_exit_code(capsys):
    # 1/1e-320 overflows to inf
    for step, minimum in [("0.1", "0.3"), ("nan", "0.1"), ("0.1", "nan"), ("1e-320", "0.1")]:
        code, _, _ = run_cli(capsys, "weights", "--step", step, "--min", minimum)
        assert code == 2


@pytest.mark.parametrize("argv", [
    ["weights", "--step", "1e-300"],
    ["sweep", "--seed", "1", "--weight-step", "1e-300"],
], ids=["weights", "sweep"])
def test_a_lattice_too_large_for_memory_exits_2_at_once(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert "weight vectors, over the limit of" in err
    assert out == ""


# -- hvi / aer ------------------------------------------------------------------------


def test_hvi_missing_input_is_io_error(capsys):
    code, _, _ = run_cli(capsys, "hvi", "--input", "does-not-exist.csv")
    assert code == 4


class ClosedPipe:
    """A stdout whose reader has gone: ``write`` or ``flush`` raises ``BrokenPipeError``."""

    def __init__(self, at, fd=None):
        self.at, self.fd = at, fd

    def write(self, text):
        if self.at == "write":
            raise BrokenPipeError(32, "Broken pipe")
        return len(text)

    def flush(self):
        if self.at == "flush":
            raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        if self.fd is None:
            raise io.UnsupportedOperation("fileno")
        return self.fd


@pytest.mark.parametrize("at", ["write", "flush"])
def test_a_closed_stdout_ends_the_command_quietly(capsys, monkeypatch, at):
    # a reader such as head closes the pipe once it has its lines; what is
    # left raises at a write, or at the flush after the command
    monkeypatch.setattr(sys, "stdout", ClosedPipe(at))
    assert dispatch(["weights", "--step", "0.5", "--min", "0"]) == 0
    assert dispatch(["run", "--help"]) == 0
    assert capsys.readouterr().err == ""


def test_a_stdout_that_fails_otherwise_is_an_io_error(capsys, monkeypatch):
    # a full disk, unlike a reader that is done, loses output that was asked for
    class FullDisk(ClosedPipe):
        def write(self, text):
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(sys, "stdout", FullDisk("write"))
    assert dispatch(["weights", "--step", "0.5", "--min", "0"]) == 4
    assert capsys.readouterr().err == f"i/o error: [Errno {errno.ENOSPC}] No space left on device\n"


def test_a_closed_stdout_is_pointed_at_the_null_device(monkeypatch, tmp_path):
    # so the interpreter's final flush of what is left cannot raise again
    with open(tmp_path / "out", "wb") as file:
        monkeypatch.setattr(sys, "stdout", ClosedPipe("write", file.fileno()))
        assert dispatch(["weights", "--step", "0.5", "--min", "0"]) == 0
        now, null = os.fstat(file.fileno()), os.stat(os.devnull)
    assert (now.st_dev, now.st_ino) == (null.st_dev, null.st_ino)


def test_a_closed_stdout_cuts_off_no_out_file(capsys, monkeypatch, tmp_path):
    # every verb writes its files before its stdout, so the files are there
    # when stdout is found closed
    sweep = ["sweep", "--seed", "1", "--engines", "gaussian,chaotic", "--weight-step", "0.5",
             "--weight-min", "0.25", "--pop", "2", "--nt", "2", "--runs", "1"]
    monkeypatch.setattr(sys, "stdout", ClosedPipe("write"))
    assert dispatch(["run", "--seed", "1", "--nt", "3", "--pop", "3", "--out", str(tmp_path / "run")]) == 0
    assert {path.name for path in (tmp_path / "run").iterdir()} == {"solution.csv", "trace.csv"}
    assert dispatch([*sweep, "--out", str(tmp_path / "sweep"), "--plot"]) == 0
    assert {path.name for path in (tmp_path / "sweep").iterdir()} == {
        "report.json", "frontier_gaussian.csv", "frontier_chaotic.csv",
        "frontier_gaussian.dat", "frontier_chaotic.dat", "metrics.dat",
        "plot_frontiers.gp", "plot_metrics.gp"}
    inputs = [arg for kind in ("gaussian", "chaotic")
              for arg in ("--input", str(tmp_path / "sweep" / f"frontier_{kind}.csv"))]
    assert dispatch(["compare", *inputs, "--out", str(tmp_path / "plot"), "--plot"]) == 0
    assert (tmp_path / "plot" / "plot_frontiers.gp").exists()


def test_a_closed_stderr_is_an_io_error(monkeypatch, tmp_path):
    # unlike stdout, no reader has had what it asked for: the echo fails
    # before any work, and not even the error can be reported
    monkeypatch.setattr(sys, "stderr", ClosedPipe("write"))
    out_dir = tmp_path / "out"
    assert dispatch(["sweep", "--seed", "1", "--engines", "gaussian", "--weight-step", "0.5",
                     "--weight-min", "0.25", "--pop", "2", "--nt", "2",
                     "--out", str(out_dir)]) == 4
    assert not out_dir.exists()


@pytest.mark.parametrize("argv,code", [
    (["run", "--seed", "1", "--bogus", "2"], 1),
    (["run", "--seed", "1", "--nt", "1"], 2),
    (["aer", "--input", "ZERO_TRACE"], 3),
    (["hvi", "--input", "MISSING"], 4),
], ids=["usage", "config", "metric", "io"])
def test_a_closed_stderr_leaves_a_failure_its_exit_code(monkeypatch, tmp_path, argv, code):
    # the message is lost, but the exit code still says what failed
    write_trace_csv([0.0, 1.0], tmp_path / "zero.csv")
    files = {"ZERO_TRACE": str(tmp_path / "zero.csv"), "MISSING": str(tmp_path / "missing.csv")}
    monkeypatch.setattr(sys, "stderr", ClosedPipe("write"))
    assert dispatch([files.get(arg, arg) for arg in argv]) == code


def test_hvi_exact_from_csv(capsys, tmp_path):
    from test_experiment import make_record

    records = [make_record((500.0, 700.0, 300.0, 400.0)),
               make_record((600.0, 650.0, 310.0, 390.0))]
    path = tmp_path / "frontier.csv"
    write_frontier_csv(records, path)
    code, out, _ = run_cli(capsys, "hvi", "--input", str(path))
    assert code == 0
    lines = out.strip().splitlines()
    value = float(lines[0])
    assert value == hvi_exact([r.objectives for r in records], (0.0, 0.0, 0.0, 0.0))
    assert f"hvi={value!r}" in lines
    assert "method=exact" in lines
    assert "n_points=2" in lines


def test_hvi_monte_carlo_requires_seed(capsys, tmp_path):
    from test_experiment import make_record

    path = tmp_path / "frontier.csv"
    write_frontier_csv([make_record((500.0, 700.0, 300.0, 400.0))], path)
    code, _, err = run_cli(capsys, "hvi", "--input", str(path), "--method", "mc")
    assert code == 1 and "seed" in err
    code, out, _ = run_cli(capsys, "hvi", "--input", str(path), "--method", "mc",
                           "--samples", "1000", "--seed", "8")
    assert code == 0
    assert "samples=1000" in out


def test_hvi_exact_rejects_the_monte_carlo_flags(capsys, tmp_path):
    # an exact volume ignores them, so passing one is a usage mistake
    from test_experiment import make_record

    path = tmp_path / "frontier.csv"
    write_frontier_csv([make_record((500.0, 700.0, 300.0, 400.0))], path)
    for flags, named in ((["--seed", "5"], "--seed"), (["--samples", "10"], "--samples"),
                         (["--seed", "5", "--samples", "10"], "--samples")):
        for method in ([], ["--method", "exact"]):
            code, out, err = run_cli(capsys, "hvi", "--input", str(path), *method, *flags)
            assert code == 1 and out == ""
            assert f"{named} requires --method mc" in err
    code, out, _ = run_cli(capsys, "hvi", "--input", str(path), "--method", "mc", "--seed", "5")
    assert code == 0 and "samples=1000000" in out.splitlines()


def test_hvi_seed_parses_like_the_run_seed(capsys, tmp_path):
    from test_experiment import make_record

    path = tmp_path / "frontier.csv"
    write_frontier_csv([make_record((500.0, 700.0, 300.0, 400.0))], path)
    estimates = []
    for seed in ("0x10", "16"):
        code, out, _ = run_cli(capsys, "hvi", "--input", str(path), "--method", "mc",
                               "--samples", "1000", "--seed", seed)
        assert code == 0 and "seed=16" in out.splitlines()
        estimates.append(out.splitlines()[0])
    assert estimates[0] == estimates[1]


@pytest.mark.parametrize("method", [["--method", "exact"], ["--method", "mc", "--seed", "1"]],
                         ids=["exact", "mc"])
def test_hvi_of_a_header_only_frontier_is_config_error(capsys, tmp_path, method):
    # a volume of 0.0 from no data would read as an answer
    path = tmp_path / "frontier.csv"
    write_frontier_csv([], path)
    code, out, err = run_cli(capsys, "hvi", "--input", str(path), *method)
    assert code == 2 and out == ""
    assert err.strip() == f"error: {path}: no records"


def test_hvi_bad_reference_is_metric_error(capsys, tmp_path):
    from test_experiment import make_record

    path = tmp_path / "frontier.csv"
    write_frontier_csv([make_record((500.0, 700.0, 300.0, 400.0))], path)
    code, _, _ = run_cli(capsys, "hvi", "--input", str(path), "--ref", "600,0,0,0")
    assert code == 3


def test_hvi_non_finite_reference_or_bad_seed_is_config_error(capsys, tmp_path):
    from test_experiment import make_record

    path = tmp_path / "frontier.csv"
    write_frontier_csv([make_record((500.0, 700.0, 300.0, 400.0))], path)
    for ref in ("0,0,0,-inf", "0,nan,0,0", "inf,0,0,0"):
        for method in (["--method", "exact"], ["--method", "mc", "--seed", "1"]):
            code, out, err = run_cli(capsys, "hvi", "--input", str(path), f"--ref={ref}", *method)
            assert code == 2 and out == "" and "finite" in err
    code, out, err = run_cli(capsys, "hvi", "--input", str(path), "--method", "mc",
                             "--seed", "-1")
    assert code == 2 and out == "" and "seed" in err


def test_aer_command(capsys, tmp_path):
    path = tmp_path / "trace.csv"
    write_trace_csv([100.0, 102.0, 102.5, 112.75, 112.75], path)
    code, out, _ = run_cli(capsys, "aer", "--input", str(path), "--threshold", "0.01")
    assert code == 0
    lines = out.strip().splitlines()
    assert float(lines[0]) == 0.5
    assert "aer=0.5" in lines
    assert "n_deviations=4" in lines


def test_aer_zero_value_trace_is_metric_error(capsys, tmp_path):
    path = tmp_path / "trace.csv"
    for trace in ([0.0, 1.0], [1.0, math.nan, 2.0], [1.0, -math.inf]):
        write_trace_csv(trace, path)
        code, _, _ = run_cli(capsys, "aer", "--input", str(path))
        assert code == 3


def test_non_finite_frontier_value_is_schema_error_exit_2(capsys, tmp_path):
    from test_experiment import make_record

    record = make_record((500.0, 700.0, 300.0, 400.0))
    path = tmp_path / "frontier.csv"
    write_frontier_csv([record._replace(F=math.nan, aer=math.nan)], path)
    code, _, err = run_cli(capsys, "hvi", "--input", str(path))
    assert code == 2
    assert "line 2" in err


def test_malformed_csv_is_schema_error_exit_2(capsys, tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("wrong,header\n1,2\n")
    code, _, err = run_cli(capsys, "aer", "--input", str(path))
    assert code == 2
    assert "line 1" in err


# 4 * (n_swim + 2) * pop_size float64s, over 2**27 at the default n_swim = 5
@pytest.mark.parametrize("flag,value,name", [("--ns", "100000000", "n_swim"),
                                              ("--pop", "4793491", "pop_size")])
def test_run_too_large_for_memory_exits_2(capsys, flag, value, name):
    code, out, err = run_cli(capsys, "run", "--seed", "1", "--nt", "2", "--pop", "2",
                             "--weights", "1,0,0,0", flag, value)
    assert code == 2
    assert f"{name}={value}" in err and "2**27" in err
    assert out == ""


@pytest.mark.parametrize("flags,message", [
    (["--watt=-500"], "w_rep and w_att must be non-negative"),
    (["--hrep=1e308", "--hatt=-1e308"], "the swarming term overflows"),
    (["--nt", "20", "--hrep", "2e307", "--hatt", "0", "--watt", "0"], "the swarming term overflows"),
    (["--wrep", "1e308"], "w_rep=1e+308 overflows"),
    (["--watt", "1e308"], "w_att=1e+308 overflows"),
])
def test_swarming_signals_that_overflow_exit_2(capsys, flags, message):
    code, out, err = run_cli(capsys, "run", "--seed", "1", "--nt", "3", "--pop", "3", *flags)
    assert code == 2
    assert message in err
    assert out == ""


# -- sweep and compare -----------------------------------------------------------------


@pytest.fixture(scope="module")
def sweep_outputs(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("sweep")
    argv = [
        "sweep", "--engines", "gaussian,chaotic", "--seed", "77", "--runs", "2",
        "--weight-step", "0.5", "--weight-min", "0.0", "--nt", "4", "--pop", "4",
        "--nc", "2", "--nr", "2", "--out", str(out_dir), "--plot",
    ]
    code = dispatch(argv)
    assert code == 0
    return out_dir


def test_sweep_writes_schema_valid_outputs(sweep_outputs):
    report = json.loads((sweep_outputs / "report.json").read_text())
    assert [r["engine"] for r in report] == ["gaussian", "chaotic"]
    for entry in report:
        assert set(entry) == {"engine", "hvi", "mean_aer", "best", "median", "worst", "n_solutions"}
        assert entry["n_solutions"] == 10
        records = read_frontier_csv(sweep_outputs / f"frontier_{entry['engine']}.csv")
        assert len(records) == 10


def test_sweep_report_hvi_matches_standalone_hvi_command(sweep_outputs, capsys):
    report = json.loads((sweep_outputs / "report.json").read_text())
    for entry in report:
        path = sweep_outputs / f"frontier_{entry['engine']}.csv"
        code, out, _ = run_cli(capsys, "hvi", "--input", str(path))
        assert code == 0
        assert float(out.strip().splitlines()[0]) == entry["hvi"]


def test_sweep_emits_plot_stubs(sweep_outputs):
    assert (sweep_outputs / "plot_frontiers.gp").exists()
    assert (sweep_outputs / "plot_metrics.gp").exists()
    assert (sweep_outputs / "frontier_gaussian.dat").exists()
    assert (sweep_outputs / "metrics.dat").exists()


def test_compare_command_on_sweep_outputs(sweep_outputs, capsys):
    code, out, _ = run_cli(
        capsys, "compare",
        "--input", str(sweep_outputs / "frontier_gaussian.csv"),
        "--input", str(sweep_outputs / "frontier_chaotic.csv"),
    )
    assert code == 0
    table = json.loads(out)
    assert set(table) == {"hvi_ranking", "leader", "leader_gaps_percent", "aer_ranking"}
    assert len(table["hvi_ranking"]) == 2
    assert len(table["leader_gaps_percent"]) == 1


def test_compare_gives_a_zero_volume_frontier_a_null_gap(capsys, tmp_path):
    # the leader's gap over a frontier of no volume has no value, whether the
    # leader's volume is positive or zero too
    from test_experiment import make_record

    paths = {name: tmp_path / f"{name}.csv" for name in ("f1_zero", "f2_zero", "positive")}
    write_frontier_csv([make_record((0.0, 700.0, 300.0, 400.0))], paths["f1_zero"])
    write_frontier_csv([make_record((500.0, 0.0, 300.0, 400.0), engine=EngineKind.WEIBULL)],
                       paths["f2_zero"])
    write_frontier_csv([make_record((500.0, 700.0, 300.0, 400.0), engine=EngineKind.CHAOTIC)],
                       paths["positive"])
    for inputs, leader, ranked in [
        (("f1_zero", "f2_zero"), "gaussian", [("gaussian", 0.0, False), ("weibull", 0.0, True)]),
        (("f2_zero", "positive"), "chaotic", [("chaotic", 500.0 * 700.0 * 300.0 * 400.0, False),
                                              ("weibull", 0.0, False)]),
    ]:
        code, out, err = run_cli(capsys, "compare", *[arg for name in inputs
                                                       for arg in ("--input", str(paths[name]))])
        assert code == 0 and err == ""
        table = json.loads(out)
        assert table["leader"] == leader
        assert [(row["engine"], row["hvi"], row["tied_with_previous"])
                for row in table["hvi_ranking"]] == ranked
        assert table["leader_gaps_percent"] == [{"engine": ranked[1][0], "percent": None}]


def test_sweep_rejects_a_repeated_engine_before_any_run(capsys, tmp_path, monkeypatch):
    # two runs of one kind would write one frontier_<kind>.csv over the other
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr("bforage.experiment.run_sweep", no_sweep)
    out_dir = tmp_path / "sweep"
    code, out, err = run_cli(capsys, "sweep", "--engines", "gaussian,chaotic,gaussian",
                             "--seed", "1", "--out", str(out_dir))
    assert code == 1
    assert "gaussian" in err and "chaotic" not in err
    assert out == ""
    assert not out_dir.exists()


@pytest.mark.parametrize("copy", [False, True])
def test_compare_rejects_two_inputs_of_one_engine(sweep_outputs, capsys, tmp_path, copy):
    first = sweep_outputs / "frontier_gaussian.csv"
    second = tmp_path / "again.csv" if copy else first
    if copy:
        second.write_bytes(first.read_bytes())
    code, out, err = run_cli(capsys, "compare", "--input", str(first),
                             "--input", str(sweep_outputs / "frontier_chaotic.csv"),
                             "--input", str(second))
    assert code == 2
    assert "gaussian" in err and str(second) in err
    assert out == ""


def test_compare_out_without_plot_is_usage_error(sweep_outputs, capsys, tmp_path):
    # --out holds only the plot stubs, so without --plot it would write nothing
    out_dir = tmp_path / "plots"
    code, out, err = run_cli(capsys, "compare",
                             "--input", str(sweep_outputs / "frontier_gaussian.csv"),
                             "--input", str(sweep_outputs / "frontier_chaotic.csv"),
                             "--out", str(out_dir))
    assert code == 1
    assert "--out requires --plot" in err
    assert out == ""
    assert not out_dir.exists()


def test_sweep_jobs_below_one_is_config_error(capsys, tmp_path):
    out_dir = tmp_path / "sweep"
    code, out, err = run_cli(capsys, "sweep", "--seed", "1", "--jobs", "0", "--engines", "gaussian",
                             "--out", str(out_dir))
    assert code == 2
    assert "error: jobs must be an integer >= 1, got 0" in err.splitlines()
    assert out == ""
    assert not out_dir.exists()


def test_sweep_plot_without_out_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "sweep", "--seed", "1", "--plot",
                         "--weight-step", "0.5", "--weight-min", "0.0",
                         "--nt", "2", "--pop", "4", "--runs", "1",
                         "--engines", "gaussian")
    assert code == 1
