"""Run one benchmark workload and print its metrics; the last line is JSON.

    python3 perfbench/run.py --workload single-run --seed 1 --seconds 20 --trace 0

Run from the root of a bforage checkout: the program is imported from
``src/`` and the polynomial oracle from ``tests/``. With ``--trace 0`` the
result holds the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` every call runs untraced and then traced, the result holds
the per-layer metrics, and the spans go to ``.perfbench/trace-<workload>.json``.
Scratch outputs live in ``.perfbench/`` and are removed at exit.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SETUP_REPEATS = 3
PACE_REPEATS = 3         # reference pieces per CPU timed around every set-up and every call
REFERENCE_PACE_S = 0.02  # CPU time of one reference piece that the gated timings are scaled to


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("single-run", "sweep", "frontier-scoring"))
    parser.add_argument("--seed", type=int, required=True, help="makes the workload's inputs")
    parser.add_argument("--seconds", type=float, required=True,
                        help="start rounds of calls until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_program():
    """Put the checkout's ``src`` on the path; exit 2 when it is not there."""
    needed = [ROOT / "src" / "bforage" / "__init__.py", ROOT / "tests" / "polynomial_oracle.py"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: not a bforage checkout, missing {', '.join(missing)}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))


def cpu_seconds() -> float:
    """CPU time of this process and of its finished children, user plus system.

    Unlike wall time it leaves out the time the host gives this virtual
    machine's CPUs to others (steal), which on a shared host swings a
    single-threaded call's wall time by up to 2x from one call to the next.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def pace_seconds() -> float:
    """CPU time of one fixed piece of work that runs none of the program.

    Like a default run, it mixes interpreter-bound Python with small numpy
    operations on a 25 x 4 array. The host's speed shifts for seconds to
    minutes at a time (the same work takes up to 1.7x longer); it shifts
    this piece much as it shifts the program's calls, so timings scaled by
    it move far less. It tracks work on large arrays less closely.
    """
    rng = np.random.default_rng(0)
    x = rng.random((25, 4))
    total = 0.0
    t0 = time.process_time()
    for _ in range(200):
        x = np.clip(x + 0.05 * rng.standard_normal((25, 4)), 0.0, 1.0)
        gaps = x[:, None, :] - x[None, :, :]
        total += float(np.exp(-(gaps * gaps).sum(axis=2)).sum())
        for row in x.tolist():
            total += sum(v * v for v in row) / (1.0 + max(row))
    seconds = time.process_time() - t0
    assert total > 0.0
    return seconds


def pace_pieces(count: int) -> list[float]:
    return [pace_seconds() for _ in range(count)]


class Pacer:
    """Times reference pieces on as many CPUs at once as the workload keeps busy.

    A sweep's two workers slow each other and share the host's shifts on
    both CPUs, which pieces run one at a time do not see; so for a
    workload of ``jobs > 1`` the pieces run in ``jobs`` worker processes at
    once. Calling it returns the median piece time.
    """

    def __init__(self, jobs: int):
        self.jobs = jobs
        self.pool = ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else None
        self.pieces: list[float] = []

    def __call__(self) -> float:
        if self.pool is None:
            pieces = pace_pieces(PACE_REPEATS)
        else:
            futures = [self.pool.submit(pace_pieces, PACE_REPEATS) for _ in range(self.jobs)]
            pieces = [t for future in futures for t in future.result()]
        self.pieces.extend(pieces)
        return statistics.median(pieces)

    def close(self) -> None:
        if self.pool is not None:
            self.pool.shutdown(wait=True)


def import_seconds() -> float:
    """CPU time to import the program and the benchmark in a fresh interpreter."""
    code = (
        "import time; t = time.process_time(); import sys; "
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT / 'perfbench')!r}]; "
        "import tracing, workloads; print(time.process_time() - t)"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True)
    return float(done.stdout)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest finished child."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def measure(workload, seconds: float, pacer: Pacer, tracer=None):
    """Closed loop of whole rounds until ``seconds`` have passed.

    Returns per-round wall times of the calls, their CPU times and their
    CPU times at the reference pace, per-round traced wall times (trace mode only),
    attempted and failed call counts, and whether every check held. Each
    call's CPU time is scaled by the pace measured right before and right
    after it, so that a shift of the host's speed within a run cancels too;
    the calls the workload names ``unpaced`` keep their CPU time as measured.
    """
    rounds, cpu_rounds, paced_rounds, traced_rounds = [], [], [], []
    attempted = failed = 0
    correct = True
    begin = time.perf_counter()
    while not rounds or time.perf_counter() - begin < seconds:
        times, cpu_times, paced_times, traced_times = [], [], [], []
        round_failed = False
        for index, (label, call) in enumerate(workload.calls()):
            attempted += 1
            pace_before = pacer()
            t0, c0 = time.perf_counter(), cpu_seconds()
            try:
                output = call()
            except Exception:
                failed += 1
                round_failed = True
                print(f"call {label} failed:\n{traceback.format_exc()}", file=sys.stderr)
                continue
            times.append(time.perf_counter() - t0)
            cpu_times.append(cpu_seconds() - c0)
            pace = (pace_before + pacer()) / 2.0
            scale = 1.0 if label in workload.unpaced else REFERENCE_PACE_S / pace
            paced_times.append(cpu_times[-1] * scale)
            if tracer is not None:
                attempted += 1
                tracer.install()
                t0 = time.perf_counter()
                try:
                    call()
                except Exception:
                    failed += 1
                    print(f"traced call {label} failed:\n{traceback.format_exc()}", file=sys.stderr)
                finally:
                    traced_times.append(time.perf_counter() - t0)
                    tracer.uninstall()
            try:
                workload.check(len(rounds), index, output)
            except Exception:
                correct = False
                print(f"check of {label} failed:\n{traceback.format_exc()}", file=sys.stderr)
        if not round_failed:
            rounds.append(times)
            cpu_rounds.append(cpu_times)
            paced_rounds.append(paced_times)
            traced_rounds.append(traced_times)
        elif not rounds and time.perf_counter() - begin >= seconds:
            break
    return rounds, cpu_rounds, paced_rounds, traced_rounds, attempted, failed, correct


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()
    import tracing
    import workloads

    scratch = ROOT / ".perfbench"
    workdir = scratch / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    pacer = None
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        pacer = Pacer(workload.jobs)
        setups = []
        for _ in range(SETUP_REPEATS):
            pacer()
            c0 = cpu_seconds()
            workload.setup()
            setups.append(cpu_seconds() - c0)

        tracer = tracing.Tracer() if args.trace else None
        rounds, cpu_rounds, paced_rounds, traced_rounds, attempted, failed, correct = measure(
            workload, args.seconds, pacer, tracer)
        if not rounds:
            print("error: no round of calls completed", file=sys.stderr)
            return 1

        print(f"# workload {args.workload} seed {args.seed}: {len(rounds)} rounds, "
              f"{attempted} calls, {failed} failed, checks {'passed' if correct else 'FAILED'}")
        call_times = workload.call_seconds(rounds)
        peak = peak_rss_mb()  # before the import probes below start children of their own
        # set-up is imports plus the workload's own set-up; both are repeated
        # (imports in fresh interpreters) and their medians are added
        imports = [import_seconds() for _ in range(SETUP_REPEATS)]
        setup_cpu = statistics.median(imports) + statistics.median(setups)
        # the gated timings are CPU seconds at the reference pace: scaled by
        # how much slower or faster the host ran the reference piece
        pace = statistics.median(pacer.pieces)
        readable = {"setup_s": (setup_cpu * REFERENCE_PACE_S / pace, "s"),
                    "call_cpu_s": (statistics.median(workload.call_seconds(paced_rounds)), "s"),
                    "pace_s": (pace, "s"),
                    "setup_cpu_unscaled_s": (setup_cpu, "s"),
                    "call_cpu_unscaled_s": (statistics.median(workload.call_seconds(cpu_rounds)), "s"),
                    "call_s": (statistics.median(call_times), "s"),
                    "peak_rss_mb": (peak, "MB"),
                    **workload.report(rounds)}
        if tracer is not None:
            traced = workload.call_seconds(traced_rounds)
            layers = tracing.layer_metrics(tracer.summary(), workload.jobs)
            layers["trace.overhead_s"] = statistics.median(
                t - u for t, u in zip(traced, call_times))
            layers["trace.overhead_ratio"] = sum(traced) / sum(call_times) - 1.0
            result_metrics = {name: {"value": layers[name], "unit": unit}
                              for name, unit in tracing.PER_LAYER_UNITS.items()}
            trace_path = scratch / f"trace-{args.workload}.json"
            tracer.write_json(trace_path, {"workload": args.workload, "seed": args.seed})
            print(f"# spans written to {trace_path.relative_to(ROOT)}")
            readable["traced_call_s"] = (statistics.median(traced), "s")
        else:
            result_metrics = {name: {"value": readable[name][0], "unit": readable[name][1]}
                              for name in ("setup_s", "call_cpu_s", "peak_rss_mb")}
        for name, (value, unit) in readable.items():
            print(f"{name} = {value:.6g} {unit}")
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                          "metrics": result_metrics}))
        return 0
    finally:
        if pacer is not None:  # its workers end here, after the peak resident set is read
            pacer.close()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
