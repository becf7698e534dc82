"""Command-line interface.

Verbs: ``evaluate``, ``run``, ``sweep``, ``hvi``, ``aer``, ``weights``,
``compare``. Data goes to standard output, diagnostics and the resolved
configuration echo go to standard error, so outputs are pipeable.

Exit codes: 0 success, 1 usage error, 2 configuration or infeasible
input, 3 numeric or metric error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import experiment as xp
from .bfa import BfaParams, run_bfa
from .engines import EngineConfig, EngineKind
from .errors import (
    BforageError,
    ConfigError,
    DegenerateTraceError,
    DomainError,
    InfeasibleError,
    ReferencePointError,
    SchemaError,
    UsageError,
)
from .metrics import aer as compute_aer
from .metrics import hvi_exact, hvi_monte_carlo
from .problem import WeightVector, aggregate, evaluate

__all__ = ["dispatch", "main", "read_config_file"]

# config key -> (dataclass field, parser, help text); each field's default
# is read from its dataclass, and int fields accept any integral number
_BFA_KEYS = {
    "nt": ("n_total", int, "chemotactic-generation budget"),
    "pop": ("pop_size", int, "population size"),
    "ns": ("n_swim", int, "swim-loop limit"),
    "nc": ("n_chemo", int, "generations per reproduction"),
    "nr": ("n_repro", int, "reproductions per dispersal"),
    "step": ("step_size", float, "chemotactic step, normalized units"),
    "ped": ("p_elim", float, "per-bacterium dispersal probability"),
    "swarming": ("swarming", bool, "drop the cell-to-cell term from fitness"),
    "wrep": ("w_rep", float, "repellent signal width"),
    "watt": ("w_att", float, "attractant signal width"),
    "hrep": ("h_rep", float, "repellent signal height"),
    "hatt": ("h_att", float, "attractant signal height"),
}

_ENGINE_PARAM_KEYS = {
    "mu": ("mu", float, "gaussian mean"),
    "sigma": ("sigma", float, "gaussian standard deviation"),
    "lambda": ("lam", float, "weibull scale"),
    "k": ("k", float, "weibull shape"),
    "alpha": ("alpha", int, "gamma shape, integral"),
    "beta": ("beta", float, "gamma rate"),
    "psi0": ("psi0", float, "chaotic initial state"),
    "r0": ("r0", float, "chaotic initial growth rate"),
    "dr": ("dr", float, "chaotic per-step rate increment"),
    "warmup": ("warmup", int, "chaotic iterates discarded at start"),
}

_ALL_ENGINES = ",".join(kind.value for kind in EngineKind)


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through :class:`UsageError`."""

    def error(self, message):
        raise UsageError(message)


def _parse_int_exact(text: str) -> int:
    try:
        return int(text)  # exact at any size
    except ValueError:
        value = float(text)  # integral decimals such as "3.0" or "1e3"
    if not value.is_integer():  # also rejects inf and nan
        raise ValueError(f"expected an integer, got {text!r}")
    return int(value)


_parse_int_exact.__name__ = "int"  # argparse names a flag's type in its usage errors


def _parse_seed(text: str) -> int:
    return int(text, 0)  # decimal, 0x hex, 0o octal or 0b binary


_parse_seed.__name__ = "int"


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# how a table type reads a config-file or --engine-param value
_TEXT_PARSERS = {int: _parse_int_exact, float: float, bool: _parse_bool}


def _default(cls, field: str):
    return cls.__dataclass_fields__[field].default


_RUNS_DEFAULT = _default(xp.ExperimentConfig, "runs_per_weight")
_AER_THRESHOLD_DEFAULT = _default(xp.ExperimentConfig, "aer_threshold")


def _parse_floats(text: str, count: int, what: str) -> tuple[float, ...]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != count:
        raise UsageError(f"{what} needs {count} comma-separated values, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise UsageError(f"{what} contains a non-numeric value: {text!r}") from None


def read_config_file(path) -> dict[str, tuple[str, int]]:
    """Parse ``key = value`` lines; ``#`` starts a comment.

    Returns each value with its line number so later validation can point
    back at the offending line. A key given twice is an error.
    """
    entries: dict[str, tuple[str, int]] = {}
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{line_no}: expected 'key = value', got {raw.strip()!r}")
            key, _, value = line.partition("=")
            key, value = key.strip().lower(), value.strip()
            if not key or not value:
                raise ConfigError(f"{path}:{line_no}: expected 'key = value', got {raw.strip()!r}")
            if key in entries:
                raise ConfigError(f"{path}:{line_no}: duplicate key {key!r}, "
                                  f"first given on line {entries[key][1]}")
            entries[key] = (value, line_no)
    return entries


class _Resolver:
    """Merges defaults, config-file entries and CLI flags (flags win)."""

    def __init__(self, file_entries: dict[str, tuple[str, int]], path):
        self.entries = dict(file_entries)
        self.path = path
        self.used: set[str] = set()

    def take(self, key: str, flag_value, default, parse):
        self.used.add(key)
        if flag_value is not None:
            return flag_value
        if key in self.entries:
            text, line_no = self.entries[key]
            try:
                return parse(text)
            except ValueError as exc:
                raise ConfigError(f"{self.path}:{line_no}: bad value for {key!r}: {exc}") from exc
        return default

    def reject_unknown(self):
        for key, (_, line_no) in self.entries.items():
            if key not in self.used:
                raise ConfigError(f"{self.path}:{line_no}: unknown key {key!r}")


def _engine_param_overrides(pairs) -> dict:
    overrides = {}
    for raw in pairs or []:
        key, sep, value = raw.partition("=")
        key = key.strip().lower()
        if not sep or key not in _ENGINE_PARAM_KEYS:
            valid = ", ".join(_ENGINE_PARAM_KEYS)
            raise UsageError(f"--engine-param expects key=value with key in: {valid}")
        _, parse, _ = _ENGINE_PARAM_KEYS[key]
        try:
            overrides[key] = _TEXT_PARSERS[parse](value)
        except ValueError:
            raise UsageError(f"--engine-param {key}: bad value {value!r}") from None
    return overrides


def _resolve_table(resolver: _Resolver, table: dict, cls, flags: dict) -> dict:
    """Field values of ``cls`` for every key of ``table``: flag, file or default."""
    return {
        field: resolver.take(key, flags.get(key), _default(cls, field), _TEXT_PARSERS[parse])
        for key, (field, parse, _) in table.items()
    }


def _resolve_shared(args):
    """The config file, BFA parameters and engine fields that ``run`` and ``sweep`` share."""
    file_entries = read_config_file(args.config) if args.config else {}
    resolver = _Resolver(file_entries, args.config)
    params = BfaParams(**_resolve_table(resolver, _BFA_KEYS, BfaParams, vars(args)))
    engine_fields = _resolve_table(resolver, _ENGINE_PARAM_KEYS, EngineConfig,
                                   _engine_param_overrides(args.engine_param))
    return resolver, params, engine_fields


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def _echo_config(items: list[tuple[str, object]]) -> None:
    print("# resolved configuration", file=sys.stderr)
    for key, value in items:
        print(f"{key} = {_format_value(value)}", file=sys.stderr)


def _table_echo_items(table: dict, values: dict) -> list[tuple[str, object]]:
    return [(key, values[field]) for key, (field, *_) in table.items()]


def _write_gnuplot_stubs(out_dir: Path, reports) -> None:
    for report in reports:
        rows = [
            " ".join(repr(v) for v in record.objectives)
            for record in report.solutions
        ]
        xp.atomic_write_text(out_dir / f"frontier_{report.engine.value}.dat", "\n".join(rows) + "\n")
    metric_rows = [
        f"{report.engine.value} {report.hvi!r} {report.mean_aer!r}"
        for report in reports
    ]
    xp.atomic_write_text(out_dir / "metrics.dat", "\n".join(metric_rows) + "\n")
    frontier_plots = "\n".join(
        f"  'frontier_{r.engine.value}.dat' using 1:2 title '{r.engine.value}', \\"
        for r in reports
    )
    xp.atomic_write_text(out_dir / "plot_frontiers.gp", (
        "set xlabel 'f1'\nset ylabel 'f2'\nset key outside\n"
        "plot \\\n" + frontier_plots.rstrip(", \\") + "\n"
    ))
    xp.atomic_write_text(out_dir / "plot_metrics.gp", (
        "set style data histogram\nset style fill solid\n"
        "plot 'metrics.dat' using 2:xtic(1) title 'HVI', \\\n"
        "     '' using 3 title 'mean AER'\n"
    ))


# -- verb handlers -----------------------------------------------------------


def _cmd_evaluate(args) -> int:
    objectives = evaluate((args.a, args.b, args.c, args.d))
    header = ["f1", "f2", "f3", "f4"]
    row = [repr(v) for v in objectives]
    if args.weights is not None:
        weights = WeightVector(*_parse_floats(args.weights, 4, "--weights"))
        header.append("F")
        row.append(repr(aggregate(objectives, weights)))
    print(",".join(header))
    print(",".join(row))
    return 0


def _run_single(args):
    resolver, params, engine_fields = _resolve_shared(args)
    kind = EngineKind.from_string(resolver.take("engine", args.engine, "gaussian", str))
    seed = resolver.take("seed", args.seed, None, _parse_seed)
    weights_text = resolver.take("weights", args.weights, "0.25,0.25,0.25,0.25", str)
    threshold = resolver.take("aer_threshold", args.aer_threshold, _AER_THRESHOLD_DEFAULT, float)
    resolver.reject_unknown()
    if seed is None:
        raise UsageError("--seed is required; runs never take an implicit time-based seed")
    if not threshold >= 0:  # NaN fails too; checked before the run, not after it
        raise ConfigError(f"aer_threshold must be non-negative, got {threshold}")

    weights = WeightVector(*_parse_floats(weights_text, 4, "--weights"))
    engine_config = EngineConfig(kind=kind, seed=seed, **engine_fields)
    _echo_config(
        [("engine", kind.value), ("seed", seed), ("weights", weights_text),
         ("aer_threshold", threshold)]
        + _table_echo_items(_BFA_KEYS, vars(params))
        + _table_echo_items(_ENGINE_PARAM_KEYS, engine_fields)
    )
    result = run_bfa(weights, params, engine_config)
    rate = compute_aer(result.trace, threshold)
    record = xp.SolutionRecord(
        engine=kind, weights=weights, run_id=0, seed=seed,
        decision=result.best_decision, objectives=result.best_objectives,
        F=result.best_f, aer=rate,
    )
    return result, record


def _cmd_run(args) -> int:
    result, record = _run_single(args)
    print(",".join(xp.FRONTIER_HEADER))
    print(xp.frontier_row(record))
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        xp.write_frontier_csv([record], out_dir / "solution.csv")
        xp.write_trace_csv(result.trace, out_dir / "trace.csv")
    return 0


def _cmd_sweep(args) -> int:
    if args.plot and not args.out:
        raise UsageError("--plot requires --out")
    resolver, params, engine_fields = _resolve_shared(args)
    engines_text = resolver.take("engines", args.engines, _ALL_ENGINES, str)
    master_seed = resolver.take("seed", args.seed, None, _parse_seed)
    runs = resolver.take("runs", args.runs, _RUNS_DEFAULT, _parse_int_exact)
    threshold = resolver.take("aer_threshold", args.aer_threshold, _AER_THRESHOLD_DEFAULT, float)
    weights_file = resolver.take("weights_file", args.weights_file, None, str)
    weight_step = resolver.take("weight_step", args.weight_step, 0.1, float)
    weight_min = resolver.take("weight_min", args.weight_min, 0.1, float)
    jobs = resolver.take("jobs", args.jobs, 1, _parse_int_exact)
    resolver.reject_unknown()
    if master_seed is None:
        raise UsageError("--seed is required; sweeps never take an implicit time-based seed")
    if jobs < 1:
        raise UsageError(f"--jobs must be >= 1, got {jobs}")

    kinds = [EngineKind.from_string(k) for k in engines_text.split(",") if k.strip()]
    if not kinds:
        raise UsageError("--engines must name at least one engine")
    repeated = sorted({k.value for k in kinds if kinds.count(k) > 1})
    if repeated:
        # each engine writes one frontier_<kind>.csv, so a repeat would overwrite
        raise UsageError(f"--engines names {', '.join(repeated)} more than once")
    if weights_file:
        weights = xp.read_weights_csv(weights_file)
        weight_items = [("weights_file", weights_file)]
    else:
        weights = xp.generate_weights(weight_step, weight_min)
        weight_items = [("weight_step", weight_step), ("weight_min", weight_min)]

    _echo_config(
        [("engines", ",".join(k.value for k in kinds)), ("seed", master_seed),
         ("runs", runs), ("jobs", jobs), ("aer_threshold", threshold)]
        + weight_items
        + _table_echo_items(_BFA_KEYS, vars(params))
        + _table_echo_items(_ENGINE_PARAM_KEYS, engine_fields)
    )

    config = xp.ExperimentConfig(
        engines=tuple(EngineConfig(kind=k, seed=0, **engine_fields) for k in kinds),
        weights=tuple(weights),
        bfa=params,
        master_seed=master_seed,
        runs_per_weight=runs,
        aer_threshold=threshold,
    )
    reports = xp.run_sweep(config, jobs=jobs)
    print(json.dumps([xp.report_to_dict(r) for r in reports], indent=2))
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for report in reports:
            xp.write_frontier_csv(report.solutions, out_dir / f"frontier_{report.engine.value}.csv")
        xp.write_report_json(reports, out_dir / "report.json")
        if args.plot:
            _write_gnuplot_stubs(out_dir, reports)
    return 0


def _cmd_hvi(args) -> int:
    records = xp.read_frontier_csv(args.input)
    points = [r.objectives for r in records]
    ref = _parse_floats(args.ref, 4, "--ref")
    if args.method == "exact":
        value = hvi_exact(points, ref)
    else:
        if args.seed is None:
            raise UsageError("--seed is required with --method mc")
        value = hvi_monte_carlo(points, ref, args.samples, args.seed)
    print(repr(value))
    print(f"hvi={value!r}")
    print(f"method={args.method}")
    print(f"n_points={len(points)}")
    print("ref=" + ",".join(repr(v) for v in ref))
    if args.method == "mc":
        print(f"samples={args.samples}")
        print(f"seed={args.seed}")
    return 0


def _cmd_aer(args) -> int:
    values = xp.read_trace_csv(args.input)
    value = compute_aer(values, args.threshold)
    print(repr(value))
    print(f"aer={value!r}")
    print(f"threshold={args.threshold!r}")
    print(f"n_deviations={len(values) - 1}")
    return 0


def _cmd_weights(args) -> int:
    weights = xp.generate_weights(args.step, args.min)
    if args.out:
        xp.write_weights_csv(weights, args.out)
        print(f"wrote {len(weights)} weight vectors to {args.out}", file=sys.stderr)
    else:
        print(",".join(xp.WEIGHTS_HEADER))
        for w in weights:
            print(",".join(repr(v) for v in w.as_tuple()))
    return 0


def _cmd_compare(args) -> int:
    if args.plot and not args.out:
        raise UsageError("--plot requires --out")
    reports, paths = [], {}
    for path in args.input:
        records = xp.read_frontier_csv(path)
        if not records:
            raise ConfigError(f"{path}: no records")
        kinds = {r.engine for r in records}
        if len(kinds) > 1:
            raise ConfigError(f"{path}: mixes engines {sorted(k.value for k in kinds)}")
        engine = records[0].engine
        if engine in paths:
            raise ConfigError(f"{path}: engine {engine.value} already given by {paths[engine]}")
        paths[engine] = path
        reports.append(xp._build_report(engine, records))
    table = xp.compare(reports)
    print(json.dumps(table, indent=2))
    if args.plot:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_gnuplot_stubs(out_dir, reports)
    return 0


# -- parser ------------------------------------------------------------------


def _add_bfa_flags(parser) -> None:
    for key, (field, parse, text) in _BFA_KEYS.items():
        default = _format_value(_default(BfaParams, field))
        if parse is bool:
            parser.add_argument(f"--no-{key}", dest=key, action="store_const", const=False,
                                help=f"{text} (default: {key} = {default})")
        else:
            parser.add_argument(f"--{key}", type=_TEXT_PARSERS[parse],
                                help=f"{text} (default: {default})")


def _add_engine_flags(parser) -> None:
    keys = ", ".join(
        f"{key}={_format_value(_default(EngineConfig, field))} ({text})"
        for key, (field, _, text) in _ENGINE_PARAM_KEYS.items()
    )
    parser.add_argument("--engine-param", action="append", metavar="KEY=VALUE",
                        help=f"distribution parameter, repeatable; keys with defaults: {keys}")


def build_parser() -> _Parser:
    parser = _Parser(prog="bforage", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="verb", metavar="verb", parser_class=_Parser)
    sub.required = True

    p = sub.add_parser("evaluate",
                       help="evaluate the four responses at one decision point")
    p.add_argument("--a", type=float, required=True, help="resin percentage, in [1.5, 2.5]")
    p.add_argument("--b", type=float, required=True, help="hardener percentage, in [30, 50]")
    p.add_argument("--c", type=float, required=True, help="number of strokes, in [3, 5]")
    p.add_argument("--d", type=float, required=True, help="curing time in minutes, in [60, 100]")
    p.add_argument("--weights", help="w1,w2,w3,w4 to also print the aggregate F (default: none)")
    p.set_defaults(handler=_cmd_evaluate)

    p = sub.add_parser("run", help="one optimizer run")
    p.add_argument("--engine", help="gaussian|weibull|gamma|chaotic (default: gaussian)")
    _add_engine_flags(p)
    p.add_argument("--seed", type=_parse_seed, help="engine seed, unsigned 64-bit; required")
    p.add_argument("--weights", help="w1,w2,w3,w4 (default: 0.25,0.25,0.25,0.25)")
    p.add_argument("--config", help="key = value config file (flags win; default: none)")
    p.add_argument("--aer-threshold", type=float,
                   help=f"AER deviation threshold (default: {_AER_THRESHOLD_DEFAULT})")
    p.add_argument("--out", help="directory for solution.csv and trace.csv (default: none)")
    _add_bfa_flags(p)
    p.set_defaults(handler=_cmd_run)

    p = sub.add_parser("sweep",
                       help="engines x weights x runs protocol, frontier reports out")
    p.add_argument("--engines", help=f"comma list of engine kinds (default: {_ALL_ENGINES})")
    _add_engine_flags(p)
    p.add_argument("--seed", type=_parse_seed, help="master seed, unsigned 64-bit; required")
    p.add_argument("--runs", type=_parse_int_exact,
                   help=f"independent runs per weight vector (default: {_RUNS_DEFAULT})")
    p.add_argument("--weights-file", help="CSV of weight vectors; overrides the lattice (default: none)")
    p.add_argument("--weight-step", type=float, help="lattice step (default: 0.1)")
    p.add_argument("--weight-min", type=float, help="lattice minimum weight (default: 0.1)")
    p.add_argument("--aer-threshold", type=float,
                   help=f"AER deviation threshold (default: {_AER_THRESHOLD_DEFAULT})")
    p.add_argument("--jobs", type=_parse_int_exact, help="worker processes (default: 1)")
    p.add_argument("--config", help="key = value config file (flags win; default: none)")
    p.add_argument("--out", help="directory for frontier CSVs and report.json (default: none)")
    p.add_argument("--plot", action="store_true", help="also write gnuplot data and script stubs")
    _add_bfa_flags(p)
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("hvi", help="hypervolume of a frontier CSV")
    p.add_argument("--input", required=True, help="frontier CSV path")
    p.add_argument("--ref", default="0,0,0,0", help="reference point r1,r2,r3,r4 (default: 0,0,0,0)")
    p.add_argument("--method", choices=("exact", "mc"), default="exact",
                   help="exact sweep or Monte Carlo estimate (default: exact)")
    p.add_argument("--samples", type=_parse_int_exact, default=1_000_000,
                   help="Monte Carlo sample count (default: 1000000)")
    p.add_argument("--seed", type=_parse_int_exact, help="Monte Carlo seed; required with --method mc")
    p.set_defaults(handler=_cmd_hvi)

    p = sub.add_parser("aer", help="average explorative rate of a trace CSV")
    p.add_argument("--input", required=True, help="trace CSV path")
    p.add_argument("--threshold", type=float, default=_AER_THRESHOLD_DEFAULT,
                   help=f"relative-deviation threshold (default: {_AER_THRESHOLD_DEFAULT})")
    p.set_defaults(handler=_cmd_aer)

    p = sub.add_parser("weights", help="emit a weight-vector lattice")
    p.add_argument("--step", type=float, default=0.1, help="lattice step (default: 0.1)")
    p.add_argument("--min", type=float, default=0.1, help="minimum weight (default: 0.1)")
    p.add_argument("--out", help="write CSV here instead of standard output (default: stdout)")
    p.set_defaults(handler=_cmd_weights)

    p = sub.add_parser("compare",
                       help="rank engines from their frontier CSVs")
    p.add_argument("--input", action="append", required=True,
                   help="frontier CSV; repeat once per engine")
    p.add_argument("--out", help="directory for plot stubs (default: none)")
    p.add_argument("--plot", action="store_true", help="write gnuplot data and script stubs")
    p.set_defaults(handler=_cmd_compare)
    return parser


def dispatch(argv) -> int:
    """Parse and execute one command; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, InfeasibleError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, ReferencePointError, DegenerateTraceError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except BforageError as exc:  # any library error not mapped above
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
