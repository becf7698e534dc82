"""Golden outputs: run results and every file the CLI writes stay byte-identical.

The digests were recorded from the program as it stood before the
persistence, CLI-table and run-entry-point merges (the odd-population run
before the swarm moved from a list of objects to arrays, the default-size
runs before the swim path was batched, the engine streams before the
per-kind sampler table replaced the engines' ``if kind`` ladders), so a
refactor that changes any written byte, any field of a run result or any
engine draw fails here. A declared numerics change must re-record them and
say why in CHANGES.md.
"""

import hashlib
from dataclasses import replace

import pytest

from bforage.bfa import BfaParams, run_bfa
from bforage.cli import dispatch
from bforage.engines import EngineConfig, EngineKind, StochasticEngine
from bforage.problem import WeightVector

WEIGHTS = WeightVector(0.7, 0.1, 0.1, 0.1)
PARAMS = BfaParams(n_total=12, pop_size=6, n_chemo=3, n_repro=2)

# (engine, seed, pop_size, n_total): an odd swarm keeps ceil(S/2) bacteria
# at each reproduction and clones only the first floor(S/2) of them; at the
# default size of 25, numpy sums the swarming potential over the bacteria by
# 8-way pairwise accumulation instead of one sequential loop
RUN_DIGESTS = {
    ("gaussian", 1, 6, 12): "09138c4eee72c388a47c09771af1ee64bab17ca2810fd7c3dedfc2ba4c360da5",
    ("gaussian", 2, 6, 12): "300f69d10eaf84744ba3c5355643104a700a2615ef21e7f095f8025bfe0457b9",
    ("weibull", 1, 6, 12): "a9f6cc287dada3c4c4bb8d608fc3628847019d8aadbe8ab6693c8e8701bf6d61",
    ("weibull", 2, 6, 12): "12a1f2f720f80593dae041fdd998345d98fc288332fde27e3c46ef5458ca9b93",
    ("gamma", 1, 6, 12): "4e45b1b7e7e4f4dc16c880464b4dd52df43025f1b8949503a1ef2ecb5165d222",
    ("gamma", 2, 6, 12): "d610e4fd4ae3b5ede441a9f9dd18dcee86de0513357a62a3e2ff4976d4e34356",
    ("chaotic", 1, 6, 12): "848224ca30cb9fcd402a79360680c04ee79bcc337f96b357a6f37bb8aa1c26ff",
    ("chaotic", 2, 6, 12): "3453c2a76644738b3e54111ac9d299f9b8db7ff939bc0b51a60895cfe5315bc1",
    ("gaussian", 3, 5, 12): "9f268caa8994a5c0db257042f71766efb543e7622098e6ebfea10277d33d1d4b",
    ("gaussian", 1, 25, 30): "008461063a5913f371768874c485012a4483ca1de825405bc4bed0243c77150a",
    ("weibull", 1, 25, 30): "064eba6a165ec0e688dfa1301784f8321ebef697e9216cd48665fccb06e57ffa",
    ("gamma", 1, 25, 30): "5dac0c2bf8024f667c62fa7ddcd1da4f9665b317fb093e73afcbd2feb4165b7a",
    ("chaotic", 1, 25, 30): "cf4deae46cefa97e045106fbada98147375c93e06af6772450aa38d690b5b99b",
}
RUN_CASES = sorted(RUN_DIGESTS)
RUN_CASE_IDS = [
    f"{kind}-{seed}"
    + ("" if pop == PARAMS.pop_size else f"-pop{pop}")
    + ("" if nt == PARAMS.n_total else f"-nt{nt}")
    for kind, seed, pop, nt in RUN_CASES
]

RUN_ARGV = {
    "gaussian": ["--engine-param", "mu=0.5", "--engine-param", "sigma=2"],
    "weibull": ["--engine-param", "lambda=1.5", "--engine-param", "k=2"],
    "gamma": ["--engine-param", "alpha=3", "--engine-param", "beta=2"],
    "chaotic": ["--engine-param", "r0=3.7", "--engine-param", "warmup=4", "--no-swarming"],
}

# the engine fields RUN_ARGV sets, none at its default
ENGINE_PARAMS = {
    "gaussian": dict(mu=0.5, sigma=2.0),
    "weibull": dict(lam=1.5, k=2.0),
    "gamma": dict(alpha=3, beta=2.0),
    "chaotic": dict(r0=3.7, warmup=4),
}

# 10**4 sample_raw and 10**4 sample_unit values from two engines of one
# config (seed 31): the raw stream pins each sampler, which the unit values
# and run digests see only through a CDF that hides rounding and parameter
# swaps, and the unit stream pins each kind's map into [0, 1]
ENGINE_STREAM_DIGESTS = {
    "gaussian": "e16036aab49b1ef46ed976dc0351fd6d78e340186c92f0355725e3c429c46512",
    "weibull": "aac4d33468262a71b56b0aa6338b6af2f360758303ceba4844600dc5fcb484f2",
    "gamma": "10869cbded8d22863ed400c0111f97c3025f8fb558533ea082ed81fa132c2c86",
    "chaotic": "9df06f0f2859b237d26bd072704380407fcb56ca86245b4c92491f4d7ecac607",
}

RUN_FILE_DIGESTS = {
    "gaussian": {
        "solution.csv": "b1dc38544d0236ab3e394835975b390bf8a87862064cbacf13cf78a0bb37f07c",
        "trace.csv": "24f589bad27875128c4319ce8155980fcda69ec284e9d53ddf2880481545cb78",
    },
    "weibull": {
        "solution.csv": "0b82a4f6612bd1552c6e9044378f2c6764131cc57ea45ddee281b5e57bac5f22",
        "trace.csv": "860373cecaf33f26c6b02cb87566130fcd204ca0ba9fc99efeb7a97870855949",
    },
    "gamma": {
        "solution.csv": "4de5dd93e168f6a21d9e9efda37d2c3207c5cc367c5bd165634e832ac018a9c9",
        "trace.csv": "239d1416a5a732e764e0efbe708d3e5d57b41fa40745c98f99d1e616c14adef9",
    },
    "chaotic": {
        "solution.csv": "2cfb3ee7d33de9619edd643e67a5297b2c07a8511a25e99ccc2575a751fa3cd1",
        "trace.csv": "1c618e768d66bbe6f307e5bfd88506643e36db936dbda358b1edb2feaa51c423",
    },
}

SWEEP_ARGV = [
    "sweep", "--engines", "gaussian,weibull,gamma,chaotic", "--seed", "2024", "--runs", "2",
    "--weight-step", "0.5", "--weight-min", "0.0", "--pop", "4", "--nc", "2", "--nr", "2",
    "--nt", "5", "--aer-threshold", "0.001",
]

# metrics.dat and report.json were re-recorded when the exact hypervolume
# moved to a grid dimension sweep, which sums in another order: their hvi
# values moved by at most 2.3e-16 relative, and no other byte changed
SWEEP_FILE_DIGESTS = {
    "frontier_chaotic.csv": "61418c0339327e4089a2e272c115e51a2d2caedc82a493336b3edd334e539992",
    "frontier_chaotic.dat": "5d83276a1adb6ba0f0db7deacaa5df30793950b0422ccfe8ec3102a7332f60da",
    "frontier_gamma.csv": "a68d2510f28ee108ca1b2a638786d981e4cc514225dbeb9f42428f5e9adf5eab",
    "frontier_gamma.dat": "36839534d3839f9b7308a8684c3643c0973243ef05f95906d1b759a5c553d5e4",
    "frontier_gaussian.csv": "3733a77a5f1808467cd958229102ee62160d4383da0e0e2b82f0da670328505e",
    "frontier_gaussian.dat": "df3312180c3977462f4b2bbd6378d6170c8a92ef074ebad655f65669a8630e75",
    "frontier_weibull.csv": "035f03d7d12a9826894ee2570ebe4d05bf955fa146cdaebf07fca7e2fc600fc3",
    "frontier_weibull.dat": "a9f0119c97885a3f2c343d1f2619566a8bc076847312eb283341973b52f6bd29",
    "metrics.dat": "4738a302e1ff3058294cfab916ebd60fc2447ca094f3bc67dc69d1ddcc01221f",
    "plot_frontiers.gp": "1bb9d4c849ac379fcf138a5f2615ce238013ec71c403cdd77d2ac7e026647abe",
    "plot_metrics.gp": "126b93bd9112171d48c9228e848b3e6df750e30e27b13a14433e37b014908887",
    "report.json": "80b5eba8d90522a12c05c768a55b5af3f7ec36c6fa528a488d992e1f3435e4bb",
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


@pytest.mark.parametrize("kind,seed,pop,nt", RUN_CASES, ids=RUN_CASE_IDS)
def test_run_bfa_fields_match_golden(kind, seed, pop, nt):
    params = replace(PARAMS, pop_size=pop, n_total=nt)
    result = run_bfa(WEIGHTS, params, EngineConfig(kind=EngineKind(kind), seed=seed))
    assert result_digest(result) == RUN_DIGESTS[(kind, seed, pop, nt)]


@pytest.mark.parametrize("kind", sorted(ENGINE_STREAM_DIGESTS))
def test_engine_streams_match_golden(kind):
    config = EngineConfig(kind=EngineKind(kind), seed=31, **ENGINE_PARAMS[kind])
    raw_engine, unit_engine = StochasticEngine(config), StochasticEngine(config)
    raw = [raw_engine.sample_raw() for _ in range(10_000)]
    unit = [unit_engine.sample_unit() for _ in range(10_000)]
    streams = (raw, unit, raw_engine.draws, unit_engine.draws)
    assert sha256(repr(streams).encode()) == ENGINE_STREAM_DIGESTS[kind]


@pytest.mark.parametrize("kind", sorted(RUN_FILE_DIGESTS))
def test_run_out_files_match_golden(kind, tmp_path):
    config = tmp_path / "run.conf"
    config.write_text("nt = 7\npop = 5\nwrep = 9.5\nweights = 0.2,0.3,0.4,0.1\n")
    out_dir = tmp_path / "out"
    code = dispatch(["run", "--engine", kind, "--seed", "31", "--config", str(config),
                     "--out", str(out_dir), *RUN_ARGV[kind]])
    assert code == 0
    assert dir_digests(out_dir) == RUN_FILE_DIGESTS[kind]


def test_sweep_out_and_plot_files_match_golden(tmp_path):
    out_dir = tmp_path / "sweep"
    code = dispatch([*SWEEP_ARGV, "--out", str(out_dir), "--plot"])
    assert code == 0
    assert dir_digests(out_dir) == SWEEP_FILE_DIGESTS


def test_sweep_files_do_not_depend_on_jobs(tmp_path):
    # ten runs go out as lockstep batches of 8 + 2 with one job, 5 + 5 with
    # two and 4 + 4 + 2 with three; the written bytes must not notice
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
