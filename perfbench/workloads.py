"""The three closed-loop workloads: inputs made from a seed, the calls, the checks.

Each workload is one caller that issues its next call only after the last
one returns. Calls go through module attributes (``bfa.run_bfa``,
``cli.dispatch``, ...) so that a traced run reaches the tracer's wrappers.

* ``single-run`` -- default ``run_bfa`` over all four engines; ``bfa``,
  ``problem`` and ``engines`` do the work, with no pool, hypervolume or I/O.
* ``sweep`` -- ``bforage sweep`` at desk scale through ``cli.dispatch``, on
  a process pool, writing frontier CSVs and ``report.json``.
* ``frontier-scoring`` -- exact and Monte Carlo hypervolume, Pareto
  filtering, frontier CSV reads and ``bforage compare``; no optimizer runs.

Every output is checked against ``oracle.py`` or against a property it
must have, never against stored output.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

from bforage import bfa, cli, experiment, metrics
from bforage.bfa import BfaParams
from bforage.engines import EngineConfig, EngineKind
from bforage.experiment import SolutionRecord
from bforage.problem import DecisionVector, ObjectiveVector, WeightVector

import oracle

KINDS = tuple(EngineKind)
REFERENCE = (0.0, 0.0, 0.0, 0.0)  # the CLI's nadir reference; every objective is positive on the box


def lattice(step_units: int, minimum: float, step: float = 0.1) -> list[tuple[float, ...]]:
    """Weight 4-tuples ``minimum + k_i * step`` with ``sum k_i = step_units``."""
    out = []
    for i in range(step_units + 1):
        for j in range(step_units - i + 1):
            for k in range(step_units - i - j + 1):
                m = step_units - i - j - k
                out.append(tuple(minimum + n * step for n in (i, j, k, m)))
    return out


def _key(weights) -> tuple[float, ...]:
    return tuple(round(float(w), 9) for w in weights)


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(b))


def _repeat(times: int, call):
    """Call ``call`` ``times`` times, one after another; return the last output."""
    for _ in range(times):
        output = call()
    return output


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def explorative_rate(trace, threshold: float) -> float:
    """Share of trace steps whose relative change reaches ``threshold``."""
    steps = list(zip(trace, trace[1:]))
    return sum(abs(b - a) / abs(a) >= threshold for a, b in steps) / len(steps)


@contextlib.contextmanager
def _quiet():
    """Keep the CLI's data and diagnostics off the benchmark's own output."""
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()):
        yield out


class Workload:
    """One round is a fixed list of calls; every round repeats the same calls."""

    name = ""
    jobs = 1
    # labels of calls whose CPU time is gated as measured, not at the
    # reference pace: the host's speed shifts move work on large numpy
    # arrays much less than they move the reference piece
    unpaced = frozenset()

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def rng(self, stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream])

    def setup(self) -> None:
        raise NotImplementedError

    def calls(self) -> list[tuple[str, object]]:
        """``(label, thunk)`` pairs for one round."""
        raise NotImplementedError

    def check(self, round_index: int, call_index: int, output) -> None:
        """Raise ``AssertionError`` unless ``output`` is right."""
        raise NotImplementedError

    def call_seconds(self, rounds: list[list[float]]) -> list[float]:
        """The per-call times behind ``call_cpu_s``: one per call."""
        return [t for times in rounds for t in times]

    def report(self, rounds: list[list[float]]) -> dict[str, tuple[float, str]]:
        """This workload's own named figures, printed above the result for reading."""
        return {}


class SingleRun(Workload):
    """Default-setting runs, one engine after another, on seeded lattice weights."""

    name = "single-run"
    PAIRS_PER_ROUND = 2      # (weight, engine seed) pairs; each runs on all four engines
    # relative gap to the exact optimum: the median of a round's runs must stay
    # within MEDIAN_GAP, every run within RUN_GAP, which clears the worst local
    # maximum on the 84-weight lattice (36 % below the optimum)
    MEDIAN_GAP = 1e-4
    RUN_GAP = 0.4

    def setup(self) -> None:
        rng = self.rng(1)
        weights = lattice(6, 0.1)  # the protocol's 84-weight lattice
        picks = rng.choice(len(weights), size=self.PAIRS_PER_ROUND, replace=False)
        self.params = BfaParams()
        self.inputs = []
        self.optimum = {}
        for pick in picks:
            w = weights[int(pick)]
            value, _ = oracle.weighted_optimum(w)
            oracle.check_optimum(w, value, rng)
            self.optimum[w] = value
            seed = int(rng.integers(0, 2**63))
            self.inputs.extend((kind, w, seed) for kind in KINDS)
        self.gaps: dict[int, list[float]] = {}  # round index -> gaps of its runs
        self.evaluations = 0

    def _run(self, kind, w, seed):
        return bfa.run_bfa(WeightVector(*w), self.params, EngineConfig(kind=kind, seed=seed))

    def calls(self):
        return [(kind.value, lambda a=(kind, w, seed): self._run(*a))
                for kind, w, seed in self.inputs]

    def check(self, round_index, call_index, result) -> None:
        kind, w, seed = self.inputs[call_index]
        p = self.params
        where = f"{kind.value} seed={seed} weights={w}"
        x = np.array(result.best_decision)
        _check(bool(np.all((x >= oracle.LOWER) & (x <= oracle.UPPER))), f"{where}: decision outside the box")
        at_best = float(oracle.weighted_value(w, x))
        _check(_close(result.best_f, at_best, 1e-9),
               f"{where}: best_f {result.best_f!r} but the oracle gives {at_best!r} at its decision")
        f = oracle.objectives(x)
        _check(all(_close(a, b, 1e-9) for a, b in zip(result.best_objectives, f)),
               f"{where}: objectives disagree with the oracle")
        optimum = self.optimum[w]
        gap = (optimum - result.best_f) / abs(optimum)
        gaps = self.gaps.setdefault(round_index, [])
        gaps.append(gap)
        _check(gap >= -1e-12, f"{where}: best_f {result.best_f!r} exceeds the exact optimum {optimum!r}")
        _check(gap <= self.RUN_GAP, f"{where}: best_f lies {gap:.3g} below the exact optimum")
        if call_index == len(self.inputs) - 1:
            median = float(np.median(gaps))
            _check(median <= self.MEDIAN_GAP,
                   f"round {round_index}: median gap {median:.3g} to the exact optimum")
        trace = result.trace
        _check(len(trace) == p.n_total, f"{where}: trace has {len(trace)} entries")
        _check(all(b >= a for a, b in zip(trace, trace[1:])), f"{where}: trace decreases")
        _check(trace[-1] == result.best_f, f"{where}: trace does not end at best_f")
        dispersals = (p.n_total - 1) // (p.n_chemo * p.n_repro)
        low = p.pop_size * (1 + p.n_total)
        high = p.pop_size * (1 + p.n_total * (p.n_swim + 1) + dispersals)
        _check(low <= result.evaluations <= high,
               f"{where}: {result.evaluations} evaluations outside [{low}, {high}]")
        if round_index == 0 and call_index == self.seed % len(self.inputs):
            replay = self._run(kind, w, seed)
            _check(repr(replay) == repr(result), f"{where}: replay differs")
        self.evaluations += result.evaluations

    def report(self, rounds):
        times = self.call_seconds(rounds)
        return {
            "run_s": (float(np.median(times)), "s/run"),
            "evals_per_s": (self.evaluations / sum(times), "1/s"),
            "max_gap": (max(max(g) for g in self.gaps.values()), "ratio"),
        }


class Sweep(Workload):
    """``bforage sweep`` at desk scale: 4 engines x 4 weights x 2 runs of 20 generations, 2 workers.

    One reproduction per dispersal (``--nr 1``) puts a reproduction and a
    dispersal at generation 10, so every run takes each step of a full run.
    A sweep takes about 3 s, so that a run holds about ten of them: sweep
    times swing by up to 25 % from one sweep to the next on a shared host.
    """

    name = "sweep"
    jobs = 2
    RUNS = 2
    GENERATIONS = 20
    REPRODUCTIONS = 1
    REPLAYED_PAIRS = 2

    def setup(self) -> None:
        rng = self.rng(2)
        self.master_seed = int(rng.integers(0, 2**63))
        self.out = self.workdir / "sweep"
        self.weights = lattice(1, 0.225)  # --weight-step 0.1 --weight-min 0.225
        self.optimum = {}
        for w in self.weights:
            value, _ = oracle.weighted_optimum(w)
            oracle.check_optimum(w, value, rng)
            self.optimum[_key(w)] = value
        self.argv = [
            "sweep", "--engines", ",".join(k.value for k in KINDS),
            "--seed", str(self.master_seed), "--runs", str(self.RUNS),
            "--weight-step", "0.1", "--weight-min", "0.225", "--nt", str(self.GENERATIONS),
            "--nr", str(self.REPRODUCTIONS),
            "--jobs", str(self.jobs), "--out", str(self.out),
        ]
        self.replayed = [(int(rng.integers(len(KINDS))), int(rng.integers(len(self.weights))))
                         for _ in range(self.REPLAYED_PAIRS)]
        self.first_report = None

    def _sweep(self):
        with _quiet():
            return cli.dispatch(self.argv)

    def calls(self):
        return [("sweep", self._sweep)]

    def check(self, round_index, call_index, code) -> None:
        _check(code == 0, f"sweep exited with {code}")
        report = (self.out / "report.json").read_bytes()
        if self.first_report is not None:
            _check(report == self.first_report, "report.json differs from the first sweep's")
            return
        self.first_report = report
        params = BfaParams(n_total=self.GENERATIONS, n_repro=self.REPRODUCTIONS)
        entries = {e["engine"]: e for e in json.loads(report)}
        for e_idx, kind in enumerate(KINDS):
            rows = experiment.read_frontier_csv(self.out / f"frontier_{kind.value}.csv")
            _check([_key(r.weights.as_tuple()) for r in rows] == [_key(w) for w in self.weights],
                   f"{kind.value}: frontier rows do not follow the lattice")
            for r in rows:
                optimum = self.optimum[_key(r.weights.as_tuple())]
                _check(r.F <= optimum + 1e-9 * abs(optimum),
                       f"{kind.value} {r.weights}: F {r.F!r} exceeds the exact optimum {optimum!r}")
            volume = oracle.union_volume([r.objectives for r in rows], REFERENCE)
            entry = entries[kind.value]
            _check(entry["n_solutions"] == len(self.weights), f"{kind.value}: wrong n_solutions")
            _check(_close(entry["hvi"], volume, 1e-9),
                   f"{kind.value}: report hvi {entry['hvi']!r}, inclusion-exclusion {volume!r}")
            for pair_engine, w_idx in self.replayed:
                if pair_engine == e_idx:
                    self._check_replay(e_idx, kind, w_idx, rows[w_idx], params)

    def _check_replay(self, e_idx, kind, w_idx, row, params) -> None:
        where = f"{kind.value} weight #{w_idx}"
        results = []
        for run in range(self.RUNS):
            seed = oracle.derive_seed(self.master_seed, e_idx, w_idx, run)
            results.append(bfa.run_bfa(row.weights, params, EngineConfig(kind=kind, seed=seed)))
        best = max(range(self.RUNS), key=lambda i: (results[i].best_f, -i))
        winner = results[best]
        _check(row.run_id == best and row.seed == winner.seed, f"{where}: another run won the replay")
        _check(tuple(row.decision) == tuple(winner.best_decision)
               and tuple(row.objectives) == tuple(winner.best_objectives)
               and row.F == winner.best_f, f"{where}: winner differs from the replay")
        _check(row.aer == explorative_rate(winner.trace, 0.01), f"{where}: AER differs")

    def report(self, rounds):
        return {"sweep_s": (float(np.median(self.call_seconds(rounds))), "s")}


class FrontierScoring(Workload):
    """Hypervolume, filtering, frontier reads and ``compare`` on seeded fronts."""

    name = "frontier-scoring"
    unpaced = frozenset({"hv_mc"})  # 10^6 x 4 samples; its time spread least while the pace moved
    SMALL = 84              # the protocol's lattice size
    LARGE = 200             # a finer lattice
    MC_SAMPLES = 1_000_000  # the CLI's documented default
    EXACT_SUBSET = 16       # points of the small front checked by inclusion-exclusion
    # the quick calls repeat within one timed call so that each takes about a
    # tenth of a round, like compare, and a slowdown of any of them shows in call_cpu_s
    HV_SMALL_REPEATS = 4
    READ_REPEATS = 100
    PARETO_REPEATS = 75

    def setup(self) -> None:
        rng = self.rng(3)
        self.low, self.high = oracle.objective_ranges()
        self.small = self._front(rng, self.SMALL)
        self.large = self._front(rng, self.LARGE)
        self.mc_seed = int(rng.integers(0, 2**63))
        weights = [WeightVector(*w) for w in lattice(6, 0.1)]
        self.files, self.records = [], []
        for kind in KINDS:
            records = []
            for w, f in zip(weights, self._front(rng, self.SMALL)):
                x = oracle.LOWER + rng.random(4) * oracle.SPAN
                objectives = ObjectiveVector(*(float(v) for v in f))
                records.append(SolutionRecord(
                    engine=kind, weights=w, run_id=int(rng.integers(10)),
                    seed=int(rng.integers(0, 2**63)),
                    decision=DecisionVector(*(float(v) for v in x)), objectives=objectives,
                    F=w.w1 * objectives.f1 + w.w2 * objectives.f2
                    + w.w3 * objectives.f3 + w.w4 * objectives.f4,
                    aer=float(rng.random()),
                ))
            path = self.workdir / f"frontier_{kind.value}.csv"
            experiment.write_frontier_csv(records, path)
            self.files.append(path)
            self.records.append(records)
        self.union = np.array([r.objectives for records in self.records for r in records])
        self.permutation = (rng.permutation(4), rng.permutation(self.SMALL))
        self.first = {}  # call index -> output of the first round

    def _front(self, rng, n) -> np.ndarray:
        """``n`` mutually nondominated points spanning the objective ranges.

        Directions in the positive orthant of the unit sphere are pairwise
        nondominated, and a positive per-axis scaling keeps them so.
        """
        directions = np.abs(rng.standard_normal((n, 4)))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        return self.low + directions * (self.high - self.low)

    def _compare(self):
        argv = ["compare"] + [a for path in self.files for a in ("--input", str(path))]
        with _quiet() as out:
            code = cli.dispatch(argv)
        return code, out.getvalue()

    def calls(self):
        return [
            ("hv_small", lambda: _repeat(self.HV_SMALL_REPEATS,
                                         lambda: metrics.hvi_exact(self.small, REFERENCE))),
            ("hv_large", lambda: metrics.hvi_exact(self.large, REFERENCE)),
            ("hv_mc", lambda: metrics.hvi_monte_carlo(self.small, REFERENCE, self.MC_SAMPLES,
                                                      self.mc_seed)),
            ("read", lambda: _repeat(self.READ_REPEATS, lambda: [
                experiment.read_frontier_csv(path) for path in self.files])),
            ("pareto", lambda: _repeat(self.PARETO_REPEATS,
                                       lambda: metrics.pareto_filter(self.union))),
            ("compare", self._compare),
        ]

    def call_seconds(self, rounds):
        return [sum(times) for times in rounds]

    def check(self, round_index, call_index, output) -> None:
        if round_index > 0:
            first = self.first[call_index]
            same = (np.array_equal(output, first) if isinstance(output, np.ndarray)
                    else output == first)
            _check(same, f"call #{call_index} differs from the first round")
            return
        self.first[call_index] = output
        checks = (self._check_hv_small, self._check_hv_large, self._check_mc,
                  self._check_read, self._check_pareto, self._check_compare)
        checks[call_index](output)

    def _check_hv_small(self, volume) -> None:
        head = self.small[: self.EXACT_SUBSET]
        exact = oracle.union_volume(head, REFERENCE)
        got = metrics.hvi_exact(head, REFERENCE)
        _check(_close(got, exact, 1e-9), f"hvi_exact {got!r} on {len(head)} points, "
               f"inclusion-exclusion {exact!r}")
        axes, order = self.permutation
        permuted = metrics.hvi_exact(self.small[:, axes], REFERENCE)
        _check(_close(permuted, volume, 1e-9), f"axis permutation moves hvi: {permuted!r} vs {volume!r}")
        shuffled = metrics.hvi_exact(self.small[order], REFERENCE)
        _check(_close(shuffled, volume, 1e-9), f"point permutation moves hvi: {shuffled!r} vs {volume!r}")
        doubled = self.small.copy()
        doubled[:, axes[0]] *= 2.0
        twice = metrics.hvi_exact(doubled, REFERENCE)
        _check(_close(twice, 2.0 * volume, 1e-9), f"doubling an axis gives {twice!r}, not 2 x {volume!r}")
        shrink = self.rng(4).uniform(0.5, 1.0, size=self.small.shape)
        padded = np.concatenate([self.small, self.small * shrink])
        with_dominated = metrics.hvi_exact(padded, REFERENCE)
        _check(_close(with_dominated, volume, 1e-9), f"dominated points move hvi to {with_dominated!r}")
        self.hv_small = volume

    def _check_hv_large(self, volume) -> None:
        _check(volume >= metrics.hvi_exact(self.large[: self.SMALL], REFERENCE),
               "a front's hypervolume is below that of its subset")
        _check(volume <= float(np.prod(self.high)), "hypervolume exceeds the bounding box")

    def _check_mc(self, estimate) -> None:
        box = float(np.prod(self.small.max(axis=0) - np.array(REFERENCE)))
        p = self.hv_small / box
        standard_error = box * math.sqrt(p * (1.0 - p) / self.MC_SAMPLES)
        _check(abs(estimate - self.hv_small) <= 5.0 * standard_error,
               f"Monte Carlo {estimate!r} is more than 5 standard errors from {self.hv_small!r}")

    def _check_read(self, tables) -> None:
        for path, written, read in zip(self.files, self.records, tables):
            _check(read == written, f"{path.name}: records read back differ from those written")

    def _check_pareto(self, kept) -> None:
        pts = self.union
        beaten = ((pts[None, :, :] >= pts[:, None, :]).all(-1)
                  & (pts[None, :, :] > pts[:, None, :]).any(-1)).any(axis=1)
        want = pts[~beaten]
        _check(sorted(map(tuple, kept)) == sorted(map(tuple, want)), "pareto_filter kept the wrong points")

    def _check_compare(self, output) -> None:
        code, text = output
        _check(code == 0, f"compare exited with {code}")
        table = json.loads(text)
        hvi = {r["engine"]: r["hvi"] for r in table["hvi_ranking"]}
        for kind, records in zip(KINDS, self.records):
            want = metrics.hvi_exact([r.objectives for r in records], REFERENCE)
            _check(_close(hvi[kind.value], want, 1e-12), f"compare reports hvi {hvi[kind.value]!r} "
                   f"for {kind.value}, hvi_exact gives {want!r}")
        ranked = [r["hvi"] for r in table["hvi_ranking"]]
        _check(ranked == sorted(ranked, reverse=True), "compare ranking is not by hvi")
        _check(table["leader"] == table["hvi_ranking"][0]["engine"], "compare leader is not ranked first")

    def report(self, rounds):
        by_label = list(zip(*rounds))
        rows = self.SMALL * len(KINDS) * self.READ_REPEATS
        return {
            "hv_small_s": (float(np.median(by_label[0])) / self.HV_SMALL_REPEATS, "s"),
            "hv_large_s": (float(np.median(by_label[1])), "s"),
            "hv_mc_s": (float(np.median(by_label[2])), "s"),
            "frontier_rows_per_s": (rows * len(rounds) / sum(by_label[3]), "rows/s"),
        }


WORKLOADS = {w.name: w for w in (SingleRun, Sweep, FrontierScoring)}
