"""Print SHA-256 digests of run and sweep outputs, to show results are bit-identical.

    python3 perfbench/digest.py

Digests ``repr(run_bfa(...))`` for the four engines at two seeds (default
settings, weights 0.7/0.1/0.1/0.1) and the ``report.json`` that the
``sweep`` workload writes at workload seed 0. Run it before and after a
change and compare the lines; nothing here is stored or gated.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

import run

SEEDS = (1, 2)
WEIGHTS = (0.7, 0.1, 0.1, 0.1)
SWEEP_SEED = 0


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    run.load_program()
    from bforage import BfaParams, EngineConfig, EngineKind, WeightVector, run_bfa

    import workloads

    for kind in EngineKind:
        for seed in SEEDS:
            result = run_bfa(WeightVector(*WEIGHTS), BfaParams(), EngineConfig(kind=kind, seed=seed))
            print(f"{sha256(repr(result).encode())}  run_bfa engine={kind.value} seed={seed}")
    scratch = run.ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as workdir:
        sweep = workloads.Sweep(SWEEP_SEED, Path(workdir))
        sweep.setup()
        code = sweep.calls()[0][1]()
        if code != 0:
            print(f"error: sweep exited with {code}", file=sys.stderr)
            return 1
        report = (sweep.out / "report.json").read_bytes()
    print(f"{sha256(report)}  sweep report.json workload-seed={SWEEP_SEED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
