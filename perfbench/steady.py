"""Run workloads repeatedly and print each metric's median and quartile spread.

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 1 --trace 1
    python3 perfbench/steady.py --workloads sweep --runs 5 --first-seed 100

Each run is ``run.py`` for ``run_seconds`` of ``BENCHMARK.json``, the run
length the bounds hold for, in a fresh process with its own seed (``first-seed``,
``first-seed + 1``, ...), one after another; each run's readable metric lines
are echoed. For every metric of the result lines it then prints the
median, the first and third quartiles (``statistics.quantiles(n=4)``) and
the spread ``(q3 - q1) / median``, the figure the bounds in
``BENCHMARK.json`` are set from, plus the failed share and whether every
run's checks held.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
WORKLOADS = ("single-run", "sweep", "frontier-scoring")


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, list[str]]:
    """The run's result object and the readable lines printed above it."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(RUN_SECONDS), "--trace", str(trace)]
    done = subprocess.run(command, capture_output=True, text=True, timeout=900, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    summary = {}
    for workload in args.workloads.split(","):
        results = []
        for i in range(args.runs):
            began = time.perf_counter()
            result, readable = run_once(workload, args.first_seed + i, args.trace)
            results.append(result)
            print(f"{workload} seed {args.first_seed + i} ({time.perf_counter() - began:.1f} s):")
            for line in readable:
                print(f"    {line}", flush=True)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"{workload}: correct in {sum(r['correct'] for r in results)}/{len(results)} runs, "
              f"failed shares {shares}")
        summary[workload] = {}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            spread = (q3 - q1) / median if median else 0.0
            summary[workload][name] = {"median": median, "q1": q1, "q3": q3, "spread": spread}
            unit = results[0]["metrics"][name]["unit"]
            print(f"  {name:34s} {unit:7s} median {median:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:.4f}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
