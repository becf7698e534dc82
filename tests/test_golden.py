"""Golden outputs: run results and every file the CLI writes stay byte-identical.

The digests were recorded from the program as it stood before the
persistence, CLI-table and run-entry-point merges (the odd-population run
before the swarm moved from a list of objects to arrays, the default-size
runs before the swim path was batched, the engine streams before the
per-kind sampler table replaced the engines' ``if kind`` ladders), so a
refactor that changes any written byte, any field of a run result or any
engine draw fails here. A declared numerics change must re-record them and
say why in CHANGES.md: ``python tests/test_golden.py`` prints every table
as the program stands, in this file's own format, and never rewrites the
file, so a diff of its output against the tables here shows exactly which
digests moved.

The run, run-file and sweep-file digests were re-recorded once when the
model score became the unit-coordinate quadratic of
``problem.unit_block_scorer``: every run took the same path, and only ``best_f``,
the trace and the ``F`` column moved, in their last bits. The engine
streams and the custom-score digests, whose score is the checked model
path, did not move.

When the engines lost their location and scale parameters (gaussian
``mu``/``sigma``, weibull ``lam``, gamma ``beta``), the cases that had
set them moved to the standard forms: the engine streams of gaussian,
weibull and gamma, the gaussian custom-score digest and the weibull
``solution.csv`` were re-recorded once. A unit draw is the variate's own
CDF, where location and scale cancel, so those unit streams moved by at
most 2.2e-16 (gamma's not at all); the raw streams are now the standard
variates.
"""

import contextlib
import hashlib
import io
import itertools
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

if __name__ == "__main__":  # run as a script: import the package from this checkout
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bforage.bfa import BfaParams, run_batch, run_bfa
from bforage.cli import dispatch
from bforage.engines import EngineConfig, EngineKind, StochasticEngine
from bforage.problem import WeightVector, aggregate, evaluate, to_physical

WEIGHTS = WeightVector(0.7, 0.1, 0.1, 0.1)
PARAMS = BfaParams(n_total=12, pop_size=6, n_chemo=3, n_repro=2)

# (engine, seed, pop_size, n_total): an odd swarm keeps ceil(S/2) bacteria
# at each reproduction and clones only the first floor(S/2) of them; at the
# default size of 25, numpy sums the swarming potential over the bacteria by
# 8-way pairwise accumulation instead of one sequential loop
RUN_DIGESTS = {
    ("gaussian", 1, 6, 12): "b1472f0734a8f7b2a168ebd75d4c27d340d01daec997d95602953bdb3f098569",
    ("gaussian", 2, 6, 12): "d63acc89202f12f8091da518334e984f83cf21ec483ef7b8fd1e540fa8e57549",
    ("weibull", 1, 6, 12): "84d74b3e2b9a199a9e25aae36b9dea62c042ac8a51fede280c04ad4c6632e462",
    ("weibull", 2, 6, 12): "bcf92c965deeb6a1f17bd62141871c4e9279e50b49f82e89d410ba8789ffd5e7",
    ("gamma", 1, 6, 12): "1e66507d142e007ced448ca34570370a741cd75d35651289178ddc6abb4062b4",
    ("gamma", 2, 6, 12): "5acf70998f3397f48967808789e361f15a620400063e08e9b9ec5328c0245c7b",
    ("chaotic", 1, 6, 12): "efae8fdd989021ff5a137312389dff0a585929336787e9a22943a8aa18ce772e",
    ("chaotic", 2, 6, 12): "6395bb9b676583b9f250d7688d2929db78dd38aba637c0e549fbb9274659f18f",
    ("gaussian", 3, 5, 12): "f7d3a5536a18c851703b5bd018d3192cd7dd64c4f0559076e3c7aff4e3c2dd8f",
    ("gaussian", 1, 25, 30): "728c0365c41e81cca05bbd2286c09208b2b5b8d1f2862436f0490b0e9224555f",
    ("weibull", 1, 25, 30): "ebcb5be4d18850b0bddc498bada795092d356dcabafeb83d2fe6c4201e17cd27",
    ("gamma", 1, 25, 30): "5b6d1c499d6b70d9d542957c949202d0386d528320b601b600d8332c220051a1",
    ("chaotic", 1, 25, 30): "69e6a1aa26e6b3c2bde1a84840fe998235555d16964814863382b86d0c778947",
}
RUN_CASES = sorted(RUN_DIGESTS)
RUN_CASE_IDS = [
    f"{kind}-{seed}"
    + ("" if pop == PARAMS.pop_size else f"-pop{pop}")
    + ("" if nt == PARAMS.n_total else f"-nt{nt}")
    for kind, seed, pop, nt in RUN_CASES
]

RUN_ARGV = {
    "gaussian": [],
    "weibull": ["--k", "2"],
    "gamma": ["--alpha", "3"],
    "chaotic": ["--r0", "3.7", "--warmup", "4", "--hatt", "0", "--hrep", "0"],
}

# the engine fields RUN_ARGV sets, none at its default; the gaussian engine has none
ENGINE_PARAMS = {
    "gaussian": {},
    "weibull": dict(k=2.0),
    "gamma": dict(alpha=3),
    "chaotic": dict(r0=3.7, warmup=4),
}

# 10**4 sample_raw and 10**4 sample_unit values from two engines of one
# config (seed 31): the raw stream pins each sampler, which the unit values
# and run digests see only through a CDF that hides rounding and parameter
# swaps, and the unit stream pins each kind's map into [0, 1]
ENGINE_STREAM_DIGESTS = {
    "gaussian": "f0ff9cbe445028f2546af4ae50c77a8fa48851e6ebb30b03448e4e065a56334d",
    "weibull": "494c0ee8924e4f261711319485a008c44421946a6be29b9c8fd143b87bc30ec7",
    "gamma": "9496089e8a49b3388f9b931bd734ef2b8e4a34d3a8c010a2d926168674f2fb3d",
    "chaotic": "9df06f0f2859b237d26bd072704380407fcb56ca86245b4c92491f4d7ecac607",
}

# one run per engine with swarming off (both signal heights zero), default
# engine parameters, recorded before every evaluation went through one
# commit routine (with the old ``swarming=False``): the fitness is
# the plain objective, the swarm reproduces at generations 3, 6 and 9, and
# at 6 each run disperses at least one bacterium; at most seeds the
# cell-to-cell term is too small to change a run at these weights, so each
# seed is one whose run with swarming on differs from its run here
NO_SWARMING_PARAMS = replace(PARAMS, h_att=0.0, h_rep=0.0)
NO_SWARMING_DIGESTS = {
    ("gaussian", 2): "f6d88602169a0096dad85ca83af28722342c91ab934f89770fe8e5a5d26c4f9d",
    ("weibull", 70): "2ae18cbc70160523ebb533cbeda56843480e80ac229f52ff438e3c2e6ed7f40a",
    ("gamma", 4): "abcdc15dde9ec0417caa73e8b92e31844da4b594c503f4d590a32446df210674",
    ("chaotic", 17): "a8c1f3d5fae2ae13de1a24f59410deb9a29590b2003630affed3486a59689676",
}

# run_batch on the checked model path, aggregate(evaluate(to_physical(u))),
# one default-size run per engine (seed 5, ENGINE_PARAMS, 15 generations with
# two reproductions and two dispersals): the optimizer loop and the engine
# streams pinned apart from the model score, so a change to the score alone
# moves RUN_DIGESTS but never these
CUSTOM_PARAMS = replace(PARAMS, pop_size=25, n_total=15)
CUSTOM_DIGESTS = {
    "chaotic": "78f95ff36022d62ccbf186fb4300eccd3f257ffea5407bba68e10f1a53720961",
    "gamma": "2f189d5b44d69ec688a2061f9d3da84a7ea88610e8fe30783fa80727623e50e4",
    "gaussian": "a5d5e06e609d5bff62bf5665e70a36c44aa1b7573adc7789a08e51b30a345888",
    "weibull": "5f3cb2626ac7f3e77f2135c3fe076a1a945440a66c6b4c49c68dad326daf5e99",
}

RUN_FILE_DIGESTS = {
    "gaussian": {
        "solution.csv": "3e4efce2a45efa6767fb2e6bee5396d4868bf18da53c4c580b9bf91943071e83",
        "trace.csv": "ffa9f60d553ea2e52aff6177d1055971fb8d899270b7749d3fdbccf7916cf0ff",
    },
    "weibull": {
        "solution.csv": "e4e93d341ab90e07cc96e758ba6aa90e84681681bf2a8452e4425d125aa49000",
        "trace.csv": "7104adab33798d11c14452339ec0583047e990caba6da5be9f1276e5cf212d53",
    },
    "gamma": {
        "solution.csv": "3c1b430b704165799c0736dd5260b557ad064cc88fee9cb023ca031c0b369bac",
        "trace.csv": "03f20c0c4270511d721601c24ea413b0434f205b38b593dba669ad271267de75",
    },
    "chaotic": {
        "solution.csv": "6dd1a4898556091faaaf80cb3f32e7f264725e43268fbb29d0cbf422ce0d567c",
        "trace.csv": "573b641b3c8b48e8c1b88ddceba4984f3b6288fa15786fec481d81c41aa2004a",
    },
}

SWEEP_ARGV = [
    "sweep", "--engines", "gaussian,weibull,gamma,chaotic", "--seed", "2024", "--runs", "2",
    "--weight-step", "0.5", "--weight-min", "0.0", "--pop", "4", "--nc", "2", "--nr", "2",
    "--nt", "5", "--aer-threshold", "0.001",
]

# metrics.dat and report.json were re-recorded when the exact hypervolume
# moved to a grid dimension sweep, which sums in another order: their hvi
# values moved by at most 2.3e-16 relative, and no other byte changed; the
# frontier CSVs and report.json were re-recorded when the score became the
# unit-coordinate quadratic, for last-bit moves of F alone
SWEEP_FILE_DIGESTS = {
    "frontier_chaotic.csv": "273bb82cab7991be8725cfca18c2750138a9e88bbf6bff7b2ede56cd36f87905",
    "frontier_chaotic.dat": "5d83276a1adb6ba0f0db7deacaa5df30793950b0422ccfe8ec3102a7332f60da",
    "frontier_gamma.csv": "4c95050df9acdc71d61b38af8ac83e4b297e8978c7b1b2829bd32af95dcfdac0",
    "frontier_gamma.dat": "36839534d3839f9b7308a8684c3643c0973243ef05f95906d1b759a5c553d5e4",
    "frontier_gaussian.csv": "c35f541ef1a2cac4277d3ee637dfd210e89a1419d9b035302343a0f0ce8dd67b",
    "frontier_gaussian.dat": "df3312180c3977462f4b2bbd6378d6170c8a92ef074ebad655f65669a8630e75",
    "frontier_weibull.csv": "7d1c90a33e4708586276f9799698823f6620c6702fea1ec12601c7d0bfe47f79",
    "frontier_weibull.dat": "a9f0119c97885a3f2c343d1f2619566a8bc076847312eb283341973b52f6bd29",
    "metrics.dat": "4738a302e1ff3058294cfab916ebd60fc2447ca094f3bc67dc69d1ddcc01221f",
    "plot_frontiers.gp": "1bb9d4c849ac379fcf138a5f2615ce238013ec71c403cdd77d2ac7e026647abe",
    "plot_metrics.gp": "126b93bd9112171d48c9228e848b3e6df750e30e27b13a14433e37b014908887",
    "report.json": "db536d88f8f47a3469003d60e12e91b45da42ef25502c00e882fcaaf565ea632",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def result_digest(result) -> str:
    fields = (
        result.best_theta, result.best_f, result.trace, result.evaluations,
        result.seed, result.best_decision, result.best_objectives,
    )
    return sha256(repr(fields).encode())


def dir_digests(out_dir) -> dict:
    return {p.name: sha256(p.read_bytes()) for p in sorted(out_dir.iterdir())}


def run_digest(kind, seed, pop, nt) -> str:
    params = replace(PARAMS, pop_size=pop, n_total=nt)
    return result_digest(run_bfa(WEIGHTS, params, EngineConfig(kind=EngineKind(kind), seed=seed)))


def no_swarming_digest(kind, seed) -> str:
    config = EngineConfig(kind=EngineKind(kind), seed=seed)
    return result_digest(run_bfa(WEIGHTS, NO_SWARMING_PARAMS, config))


def single_units(engine, count) -> list[float]:
    return [engine.sample_unit() for _ in range(count)]


def block_units(engine, count) -> list[float]:
    """``count`` unit draws as blocks of mixed sizes, with a single draw after each."""
    values = []
    sizes = itertools.cycle((0, 1, 3, 8, 25, 100))
    while len(values) < count:
        values += engine.sample_units(min(next(sizes), count - len(values) - 1))
        values.append(engine.sample_unit())
    return values


def engine_stream_digest(kind, units=single_units) -> str:
    config = EngineConfig(kind=EngineKind(kind), seed=31, **ENGINE_PARAMS[kind])
    raw_engine, unit_engine = StochasticEngine(config), StochasticEngine(config)
    raw = [raw_engine.sample_raw() for _ in range(10_000)]
    unit = units(unit_engine, 10_000)
    streams = (raw, unit, raw_engine.draws, unit_engine.draws)
    return sha256(repr(streams).encode())


def custom_digest(kind) -> str:
    def checked(u):
        return aggregate(evaluate(to_physical(u)), WEIGHTS)

    config = EngineConfig(kind=EngineKind(kind), seed=5, **ENGINE_PARAMS[kind])
    r = run_batch(lambda points: np.apply_along_axis(checked, -1, points), CUSTOM_PARAMS, [config])[0]
    return sha256(repr((r.best_theta, r.best_f, r.trace, r.evaluations, r.seed)).encode())


def run_out_digests(kind, tmp_path) -> dict:
    config = tmp_path / "run.conf"
    config.write_text("nt = 7\npop = 5\nwrep = 9.5\nweights = 0.2,0.3,0.4,0.1\n")
    out_dir = tmp_path / "out"
    code = dispatch(["run", "--engine", kind, "--seed", "31", "--config", str(config),
                     "--out", str(out_dir), *RUN_ARGV[kind]])
    assert code == 0
    return dir_digests(out_dir)


def sweep_out_digests(tmp_path) -> dict:
    out_dir = tmp_path / "sweep"
    code = dispatch([*SWEEP_ARGV, "--out", str(out_dir), "--plot"])
    assert code == 0
    return dir_digests(out_dir)


@pytest.mark.parametrize("kind,seed,pop,nt", RUN_CASES, ids=RUN_CASE_IDS)
def test_run_bfa_fields_match_golden(kind, seed, pop, nt):
    assert run_digest(kind, seed, pop, nt) == RUN_DIGESTS[(kind, seed, pop, nt)]


@pytest.mark.parametrize("kind,seed", sorted(NO_SWARMING_DIGESTS))
def test_run_bfa_without_swarming_matches_golden(kind, seed):
    assert no_swarming_digest(kind, seed) == NO_SWARMING_DIGESTS[(kind, seed)]


@pytest.mark.parametrize("kind", sorted(ENGINE_STREAM_DIGESTS))
def test_engine_streams_match_golden(kind):
    assert engine_stream_digest(kind) == ENGINE_STREAM_DIGESTS[kind]


@pytest.mark.parametrize("kind", sorted(ENGINE_STREAM_DIGESTS))
def test_block_draws_give_the_golden_unit_streams(kind):
    assert engine_stream_digest(kind, block_units) == ENGINE_STREAM_DIGESTS[kind]


@pytest.mark.parametrize("kind", sorted(CUSTOM_DIGESTS))
def test_run_custom_on_the_checked_score_matches_golden(kind):
    assert custom_digest(kind) == CUSTOM_DIGESTS[kind]


@pytest.mark.parametrize("kind", sorted(RUN_FILE_DIGESTS))
def test_run_out_files_match_golden(kind, tmp_path):
    assert run_out_digests(kind, tmp_path) == RUN_FILE_DIGESTS[kind]


def test_sweep_out_and_plot_files_match_golden(tmp_path):
    assert sweep_out_digests(tmp_path) == SWEEP_FILE_DIGESTS


def test_sweep_files_do_not_depend_on_jobs(monkeypatch, tmp_path):
    # ten runs go out as one lockstep batch of 10 with one job, 5 + 5 with
    # two and 4 + 4 + 2 with three; the written bytes must not notice. Three
    # usable CPUs, so the three-job split runs on any host
    monkeypatch.setattr("bforage.experiment._usable_cpus", lambda: 3)
    argv = ["sweep", "--engines", "gaussian,chaotic", "--seed", "7", "--runs", "5",
            "--weight-step", "0.5", "--weight-min", "0.25", "--pop", "5", "--nc", "2",
            "--nr", "2", "--nt", "9"]
    digests = []
    for jobs in (1, 2, 3):
        out_dir = tmp_path / f"jobs{jobs}"
        assert dispatch([*argv, "--jobs", str(jobs), "--out", str(out_dir), "--plot"]) == 0
        digests.append(dir_digests(out_dir))
    assert digests[0] == digests[1] == digests[2]
    assert len(digests[0]) == 8


def _literal(value) -> str:
    if isinstance(value, tuple):
        return "(" + ", ".join(map(_literal, value)) + ")"
    return f'"{value}"' if isinstance(value, str) else repr(value)


def _print_table(name, table) -> None:
    print(f"{name} = {{")
    for key, value in table.items():
        if isinstance(value, dict):
            print(f"    {_literal(key)}: {{")
            for inner, digest in value.items():
                print(f"        {_literal(inner)}: {_literal(digest)},")
            print("    },")
        else:
            print(f"    {_literal(key)}: {_literal(value)},")
    print("}")


def print_current_digests() -> None:
    """Print every digest table as the program stands, in this file's format."""
    with (tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()),
          contextlib.redirect_stderr(io.StringIO())):
        tmp = Path(tmp)
        file_digests = {}
        for kind in RUN_FILE_DIGESTS:
            (tmp / kind).mkdir()
            file_digests[kind] = run_out_digests(kind, tmp / kind)
        tables = {
            "RUN_DIGESTS": {case: run_digest(*case) for case in RUN_DIGESTS},
            "ENGINE_STREAM_DIGESTS": {k: engine_stream_digest(k) for k in ENGINE_STREAM_DIGESTS},
            "NO_SWARMING_DIGESTS": {case: no_swarming_digest(*case) for case in NO_SWARMING_DIGESTS},
            "CUSTOM_DIGESTS": {k: custom_digest(k) for k in CUSTOM_DIGESTS},
            "RUN_FILE_DIGESTS": file_digests,
            "SWEEP_FILE_DIGESTS": sweep_out_digests(tmp),
        }
    for name, table in tables.items():
        _print_table(name, table)
        print()


if __name__ == "__main__":
    print_current_digests()
