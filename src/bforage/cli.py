"""Command-line interface.

Verbs: ``evaluate``, ``run``, ``sweep``, ``hvi``, ``aer``, ``weights``,
``compare``. Data goes to standard output, diagnostics and the resolved
configuration echo go to standard error, so outputs are pipeable.

Exit codes: 0 success, 1 usage error, 2 configuration or infeasible
input, 3 numeric or metric error, 4 I/O error. Every verb writes its
files before its standard output, so a reader that closes the standard
output early, such as ``head``, ends the command quietly with exit 0. A
failure keeps its exit code when standard error cannot take its message;
a closed standard error that stops the command is exit 4, printing nothing.
"""

from __future__ import annotations

import argparse
import json
import os
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
    ReferencePointError,
    UsageError,
)
from .metrics import aer as compute_aer
from .metrics import hvi_exact, hvi_monte_carlo
from .problem import WeightVector, aggregate, evaluate

__all__ = ["dispatch", "main", "read_config_file"]


class _Help(Exception):
    """``--help`` was given; the help text is the command's output."""


class _Parser(argparse.ArgumentParser):
    """argparse that raises usage problems as :class:`UsageError`, and ``--help``
    as :class:`_Help` for :func:`dispatch` to write."""

    def error(self, message):
        raise UsageError(message)

    def print_help(self, file=None):
        raise _Help(self.format_help())


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
    try:
        return int(text, 0)  # decimal, 0x hex, 0o octal or 0b binary
    except ValueError:
        return _parse_int_exact(text)  # integral decimals such as "1.0" or "1e3"


_parse_seed.__name__ = "int"


# config key -> (dataclass field, parser, help text); the flag is "--" and
# the key, each field's default is read from its dataclass, and int fields
# accept any integral number
_BFA_KEYS = {
    "nt": ("n_total", _parse_int_exact, "chemotactic-generation budget"),
    "pop": ("pop_size", _parse_int_exact, "population size"),
    "ns": ("n_swim", _parse_int_exact, "swim-loop limit"),
    "nc": ("n_chemo", _parse_int_exact, "generations per reproduction"),
    "nr": ("n_repro", _parse_int_exact, "reproductions per dispersal"),
    "step": ("step_size", float, "chemotactic step, normalized units"),
    "ped": ("p_elim", float, "per-bacterium dispersal probability"),
    "wrep": ("w_rep", float, "repellent signal width"),
    "watt": ("w_att", float, "attractant signal width"),
    "hrep": ("h_rep", float, "repellent signal height"),
    "hatt": ("h_att", float, "attractant signal height; hatt = hrep = 0 turns swarming off"),
}

_ENGINE_PARAM_KEYS = {
    "k": ("k", float, "weibull shape"),
    "alpha": ("alpha", _parse_int_exact, "gamma shape, integral"),
    "psi0": ("psi0", float, "chaotic initial state"),
    "r0": ("r0", float, "chaotic initial growth rate"),
    "dr": ("dr", float, "chaotic per-step rate increment"),
    "warmup": ("warmup", _parse_int_exact, "chaotic iterates discarded at start"),
}

# each field table with the dataclass that holds its defaults, in echo order
_FIELD_TABLES = ((_BFA_KEYS, BfaParams), (_ENGINE_PARAM_KEYS, EngineConfig))


def _default(cls, field: str):
    return cls.__dataclass_fields__[field].default


_AER_THRESHOLD_DEFAULT = _default(xp.ExperimentConfig, "aer_threshold")
_MC_SAMPLES = 1_000_000  # hvi --samples under --method mc

# the keys of ``run`` and ``sweep`` besides the two tables above:
# config key -> (parser, default, help text); the flag is the key with "-"
# for "_", and the echo lists a verb's keys in this order, then the tables'
_RUN_KEYS = {
    "engine": (str, "gaussian", "|".join(kind.value for kind in EngineKind)),
    "seed": (_parse_seed, None, "engine seed, unsigned 64-bit; required"),
    "weights": (str, "0.25,0.25,0.25,0.25", "w1,w2,w3,w4"),
    "aer_threshold": (float, _AER_THRESHOLD_DEFAULT, "AER deviation threshold"),
}

_SWEEP_KEYS = {
    "engines": (str, ",".join(kind.value for kind in EngineKind), "comma list of engine kinds"),
    "seed": (_parse_seed, None, "master seed, unsigned 64-bit; required"),
    "runs": (_parse_int_exact, _default(xp.ExperimentConfig, "runs_per_weight"),
             "independent runs per weight vector"),
    "jobs": (_parse_int_exact, 1, "worker processes, at most the usable CPUs"),
    "aer_threshold": (float, _AER_THRESHOLD_DEFAULT, "AER deviation threshold"),
    "weights_file": (str, None, "CSV of weight vectors; overrides the lattice"),
    "weight_step": (float, 0.1, "lattice step"),
    "weight_min": (float, 0.1, "lattice minimum weight"),
}


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
    back at the offending line. A key given twice, or a file that is not
    UTF-8 text or starts with a byte-order mark, is an error.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if lines and lines[0].startswith("\ufeff"):
        raise ConfigError(f"{path}:1: starts with a UTF-8 byte-order mark; save the file without one")
    entries: dict[str, tuple[str, int]] = {}
    for line_no, raw in enumerate(lines, start=1):
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


def _resolve(args, keys: dict) -> dict:
    """The value of every key of ``keys``, ``_BFA_KEYS`` and ``_ENGINE_PARAM_KEYS``.

    A flag wins over the ``--config`` file, and the file over the default.
    The values come in table order, which is the echo order. An unknown
    file key is a :class:`ConfigError`, a missing seed a :class:`UsageError`.
    """
    entries = read_config_file(args.config) if args.config else {}
    flags = vars(args)
    rows = {key: (parse, default) for key, (parse, default, _) in keys.items()}
    for table, cls in _FIELD_TABLES:
        for key, (field, parse, _) in table.items():
            rows[key] = (parse, _default(cls, field))
    values = {}
    for key, (parse, default) in rows.items():
        text, line_no = entries.pop(key, (None, None))
        if flags.get(key) is not None:
            values[key] = flags[key]
        elif text is not None:
            try:
                values[key] = parse(text)
            except ValueError as exc:
                raise ConfigError(f"{args.config}:{line_no}: bad value for {key!r}: {exc}") from exc
        else:
            values[key] = default
    for key, (_, line_no) in entries.items():
        raise ConfigError(f"{args.config}:{line_no}: unknown key {key!r}")
    if values["seed"] is None:
        raise UsageError(f"--seed is required; {args.verb}s never take an implicit time-based seed")
    return values


def _fields(table: dict, values: dict) -> dict:
    """The dataclass fields that ``table`` maps to, from resolved key values."""
    return {field: values[key] for key, (field, *_) in table.items()}


def _echo_config(values: dict) -> None:
    print("# resolved configuration", file=sys.stderr)
    for key, value in values.items():
        print(f"{key} = {value}", file=sys.stderr)  # str of a float is its repr


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


# -- verb handlers: each writes its files, then returns its stdout text -----


def _cmd_evaluate(args) -> str:
    objectives = evaluate((args.a, args.b, args.c, args.d))
    header, row = ["f1", "f2", "f3", "f4"], list(objectives)
    if args.weights is not None:
        weights = WeightVector(*_parse_floats(args.weights, 4, "--weights"))
        header.append("F")
        row.append(aggregate(objectives, weights))
    return xp._csv_text(header, [row])


def _cmd_run(args) -> str:
    values = _resolve(args, _RUN_KEYS)
    params = BfaParams(**_fields(_BFA_KEYS, values))
    kind = EngineKind.from_string(values["engine"])
    values["engine"] = kind.value
    threshold = values["aer_threshold"]
    if not threshold >= 0:  # NaN fails too; checked before the run, not after it
        raise ConfigError(f"aer_threshold must be non-negative, got {threshold}")
    if params.n_total < 2:
        raise ConfigError(xp._N_TOTAL_FOR_AER.format(params.n_total))
    weights = WeightVector(*_parse_floats(values["weights"], 4, "--weights"))
    engine_config = EngineConfig(kind=kind, seed=values["seed"], **_fields(_ENGINE_PARAM_KEYS, values))
    _echo_config(values)
    result = run_bfa(weights, params, engine_config)
    record = xp._solution_record(kind, weights, 0, result, threshold)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        xp.write_frontier_csv([record], out_dir / "solution.csv")
        xp.write_trace_csv(result.trace, out_dir / "trace.csv")
    return xp._csv_text(xp.FRONTIER_HEADER, [xp._record_fields(record)])


def _cmd_sweep(args) -> str:
    if args.plot and not args.out:
        raise UsageError("--plot requires --out")
    values = _resolve(args, _SWEEP_KEYS)
    params = BfaParams(**_fields(_BFA_KEYS, values))

    kinds = [EngineKind.from_string(k) for k in values["engines"].split(",") if k.strip()]
    if not kinds:
        raise UsageError("--engines must name at least one engine")
    repeated = sorted({k.value for k in kinds if kinds.count(k) > 1})
    if repeated:
        # each engine writes one frontier_<kind>.csv, so a repeat would overwrite
        raise UsageError(f"--engines names {', '.join(repeated)} more than once")
    values["engines"] = ",".join(k.value for k in kinds)
    # the echo names only the weight source in use
    if values["weights_file"]:
        weights = xp.read_weights_csv(values["weights_file"])
        del values["weight_step"], values["weight_min"]
    else:
        weights = xp.generate_weights(values["weight_step"], values["weight_min"])
        del values["weights_file"]
    _echo_config(values)

    engine_fields = _fields(_ENGINE_PARAM_KEYS, values)
    config = xp.ExperimentConfig(
        engines=tuple(EngineConfig(kind=k, seed=0, **engine_fields) for k in kinds),
        weights=tuple(weights),
        bfa=params,
        master_seed=values["seed"],
        runs_per_weight=values["runs"],
        aer_threshold=values["aer_threshold"],
    )
    reports = xp.run_sweep(config, jobs=values["jobs"])
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for report in reports:
            xp.write_frontier_csv(report.solutions, out_dir / f"frontier_{report.engine.value}.csv")
        xp.write_report_json(reports, out_dir / "report.json")
        if args.plot:
            _write_gnuplot_stubs(out_dir, reports)
    return json.dumps([xp.report_to_dict(r) for r in reports], indent=2) + "\n"


def _cmd_hvi(args) -> str:
    if args.method == "exact":
        for flag, value in (("--samples", args.samples), ("--seed", args.seed)):
            if value is not None:
                raise UsageError(f"{flag} requires --method mc")
    records = xp.read_frontier_csv(args.input)
    if not records:
        raise ConfigError(f"{args.input}: no records")
    points = [r.objectives for r in records]
    ref = _parse_floats(args.ref, 4, "--ref")
    if args.method == "exact":
        value = hvi_exact(points, ref)
    else:
        if args.seed is None:
            raise UsageError("--seed is required with --method mc")
        samples = _MC_SAMPLES if args.samples is None else args.samples
        value = hvi_monte_carlo(points, ref, samples, args.seed)
    lines = [repr(value), f"hvi={value!r}", f"method={args.method}", f"n_points={len(points)}",
             "ref=" + ",".join(repr(v) for v in ref)]
    if args.method == "mc":
        lines += [f"samples={samples}", f"seed={args.seed}"]
    return "\n".join(lines) + "\n"


def _cmd_aer(args) -> str:
    values = xp.read_trace_csv(args.input)
    value = compute_aer(values, args.threshold)
    return f"{value!r}\naer={value!r}\nthreshold={args.threshold!r}\nn_deviations={len(values) - 1}\n"


def _cmd_weights(args) -> str:
    weights = xp.generate_weights(args.step, args.min)
    if not args.out:
        return xp._csv_text(xp.WEIGHTS_HEADER, weights)
    xp.write_weights_csv(weights, args.out)
    print(f"wrote {len(weights)} weight vectors to {args.out}", file=sys.stderr)
    return ""


def _cmd_compare(args) -> str:
    if args.plot and not args.out:
        raise UsageError("--plot requires --out")
    if args.out and not args.plot:  # --out holds only the plot stubs
        raise UsageError("--out requires --plot")
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
    if args.plot:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_gnuplot_stubs(out_dir, reports)
    return json.dumps(table, indent=2) + "\n"


# -- parser ------------------------------------------------------------------


def _add_run_flags(parser, keys: dict) -> None:
    """A flag for every key of ``keys``, then ``--config``, then one for every
    key of ``_BFA_KEYS`` and ``_ENGINE_PARAM_KEYS``; each help text ends with
    the key's default."""
    for key, (parse, default, text) in keys.items():
        if key != "seed":  # required, so it has no default
            text += f" (default: {'none' if default is None else default})"
        parser.add_argument(f"--{key.replace('_', '-')}", type=parse, help=text)
    parser.add_argument("--config", help="key = value config file (flags win; default: none)")
    for table, cls in _FIELD_TABLES:
        for key, (field, parse, text) in table.items():
            parser.add_argument(f"--{key}", type=parse, help=f"{text} (default: {_default(cls, field)})")


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
    _add_run_flags(p, _RUN_KEYS)
    p.add_argument("--out", help="directory for solution.csv and trace.csv (default: none)")
    p.set_defaults(handler=_cmd_run)

    p = sub.add_parser("sweep",
                       help="engines x weights x runs protocol, frontier reports out")
    _add_run_flags(p, _SWEEP_KEYS)
    p.add_argument("--out", help="directory for frontier CSVs and report.json (default: none)")
    p.add_argument("--plot", action="store_true", help="also write gnuplot data and script stubs")
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("hvi", help="hypervolume of a frontier CSV")
    p.add_argument("--input", required=True, help="frontier CSV path")
    p.add_argument("--ref", default="0,0,0,0", help="reference point r1,r2,r3,r4 (default: %(default)s)")
    p.add_argument("--method", choices=("exact", "mc"), default="exact",
                   help="exact sweep or Monte Carlo estimate (default: %(default)s)")
    p.add_argument("--samples", type=_parse_int_exact,
                   help=f"Monte Carlo sample count (default: {_MC_SAMPLES})")
    p.add_argument("--seed", type=_parse_seed, help="Monte Carlo seed; required with --method mc")
    p.set_defaults(handler=_cmd_hvi)

    p = sub.add_parser("aer", help="average explorative rate of a trace CSV")
    p.add_argument("--input", required=True, help="trace CSV path")
    p.add_argument("--threshold", type=float, default=_AER_THRESHOLD_DEFAULT,
                   help="relative-deviation threshold (default: %(default)s)")
    p.set_defaults(handler=_cmd_aer)

    p = sub.add_parser("weights", help="emit a weight-vector lattice")
    p.add_argument("--step", type=float, default=_SWEEP_KEYS["weight_step"][1],
                   help="lattice step (default: %(default)s)")
    p.add_argument("--min", type=float, default=_SWEEP_KEYS["weight_min"][1],
                   help="minimum weight (default: %(default)s)")
    p.add_argument("--out", help="write CSV here instead of standard output (default: stdout)")
    p.set_defaults(handler=_cmd_weights)

    p = sub.add_parser("compare",
                       help="rank engines from their frontier CSVs")
    p.add_argument("--input", action="append", required=True,
                   help="frontier CSV; repeat once per engine")
    p.add_argument("--out", help="directory for plot stubs; requires --plot (default: none)")
    p.add_argument("--plot", action="store_true", help="write gnuplot data and script stubs")
    p.set_defaults(handler=_cmd_compare)
    return parser


def _discard_stdout() -> None:
    """Point stdout's file descriptor, if it has one, at the null device, so
    that the interpreter's final flush of what is left cannot raise again."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # no descriptor: nothing flushes to a pipe
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


# (error classes, exit code, stderr prefix); the first row that matches wins
_FAILURES = (
    (UsageError, 1, "usage error"),
    ((DomainError, ReferencePointError, DegenerateTraceError), 3, "error"),
    (BforageError, 2, "error"),
    (OSError, 4, "i/o error"),  # a closed stderr too, when the command writes to it
)


def _fail(exc) -> int:
    """Print ``exc`` to stderr, unless that is closed, and return its exit code."""
    code, prefix = next((code, prefix) for kinds, code, prefix in _FAILURES if isinstance(exc, kinds))
    try:
        print(f"{prefix}: {exc}", file=sys.stderr)
    except OSError:
        pass
    return code


def dispatch(argv) -> int:
    """Parse and execute one command; returns the process exit code.

    The one writer of stdout: every verb writes its files, then returns its
    output text. A failure keeps its exit code when stderr cannot take its
    message, and a closed stderr that stops the command is exit 4.
    """
    try:
        args = build_parser().parse_args(argv)
        text = args.handler(args)
    except _Help as exc:
        text = str(exc)
    except (BforageError, OSError) as exc:
        return _fail(exc)
    try:
        sys.stdout.write(text)
        sys.stdout.flush()  # a closed pipe raises here, not at the interpreter's exit
    except BrokenPipeError:  # the reader has closed stdout; it needs no more
        _discard_stdout()
    except OSError as exc:  # such as a full disk: the output is lost, not declined
        return _fail(exc)
    return 0


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
