"""Acceptance gate: every exit criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion. Outcome-level expectations from previously reported
experiments with this model (which engine ranks first, exact dominance
gaps, specific best solutions) hinge on unrecorded seeds, weight sets and
step sizes and are unreachable by construction; criterion 9 checks the
report shape those comparisons need instead.
"""

import io
import json
from contextlib import contextmanager, redirect_stdout

import numpy as np
import pytest

from bforage.bfa import BfaParams, run_batch, run_bfa
from bforage.cli import dispatch
from bforage.engines import EngineConfig, EngineKind, StochasticEngine, gamma_cdf
from bforage.experiment import generate_weights, read_frontier_csv, write_weights_csv
from bforage.metrics import aer, hvi_exact, hvi_monte_carlo
from bforage.problem import (
    LOWER_BOUNDS,
    UPPER_BOUNDS,
    WeightVector,
    aggregate,
    evaluate,
    to_physical,
)
from polynomial_oracle import oracle_objectives

HEADLINE_WEIGHTS = WeightVector(0.1, 0.7, 0.1, 0.1)
ALL_KINDS = (EngineKind.GAUSSIAN, EngineKind.WEIBULL, EngineKind.GAMMA, EngineKind.CHAOTIC)


@contextmanager
def criterion(number, summary):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL - {summary}")
        raise
    print(f"[criterion {number}] PASS - {summary}")


def test_criterion_1_aggregate_fixtures():
    with criterion(1, "aggregate fixtures 839.42 and 911.09 at (0.1,0.7,0.1,0.1)"):
        first = aggregate((841.718, 973.687, 312.121, 424.551), HEADLINE_WEIGHTS)
        second = aggregate((763.173, 1082.75, 329.961, 438.523), HEADLINE_WEIGHTS)
        assert abs(first - 839.42) <= 0.005
        assert abs(second - 911.09) <= 0.005


def test_criterion_2_objective_model_fixture():
    with criterion(2, "model evaluation matches the independent polynomial oracle"):
        cases = [
            ((2.25034, 31.2589, 4.76753, 62.2761), (841.718, 973.687, 312.121, 424.551)),
            ((2.49418, 37.4942, 4.7164, 89.7164), (763.173, 1082.75, 329.961, 438.523)),
        ]
        for decision, quoted in cases:
            got = evaluate(decision)
            want = oracle_objectives(*decision)
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-9 * abs(w)
            # the objective values quoted alongside these reported decision
            # points do not satisfy the model polynomials; the deviation is
            # documented as a data quirk, not forced below 1%
            deviations = [100.0 * abs(g - q) / abs(q) for g, q in zip(got, quoted)]
            print(f"  note: quoted objectives at {decision} deviate from the model by "
                  + ", ".join(f"{d:.1f}%" for d in deviations))
            assert max(deviations) > 1.0


def test_criterion_3_hypervolume_correctness():
    with criterion(3, "hypervolume: hand case, sampling cross-check, subset oracle"):
        # (a) two-point staircase, exactly
        assert hvi_exact([(1.0, 2.0), (2.0, 1.0)], (0.0, 0.0)) == 3.0

        # (b) exact vs one-million-sample estimate on random 4-D frontiers
        rng = np.random.Generator(np.random.PCG64(424242))
        for trial in range(50):
            n = int(rng.integers(3, 54))
            pts = rng.uniform(1.0, 1100.0, size=(n, 4))
            exact = hvi_exact(pts, np.zeros(4))
            estimate = hvi_monte_carlo(pts, np.zeros(4), samples=1_000_000, seed=trial)
            assert abs(estimate - exact) <= 0.01 * exact

        # (c) exact vs inclusion-exclusion on small low-dimensional sets
        from test_metrics import union_volume_by_inclusion_exclusion

        rng = np.random.Generator(np.random.PCG64(31337))
        for trial in range(100):
            dim = 2 + trial % 2
            n = int(rng.integers(1, 7))
            pts = rng.uniform(0.5, 10.0, size=(n, dim))
            want = union_volume_by_inclusion_exclusion(pts, np.zeros(dim))
            assert abs(hvi_exact(pts, np.zeros(dim)) - want) <= 1e-9 * max(1.0, want)


def test_criterion_4_aer_correctness():
    with criterion(4, "explorative rate: hand case 0.5 plus property sweep"):
        assert aer((100.0, 102.0, 102.5, 112.75, 112.75), 0.01) == 0.5

        rng = np.random.Generator(np.random.PCG64(11))
        thresholds = (0.0, 0.001, 0.01, 0.05, 0.2)
        for _ in range(1000):
            length = int(rng.integers(2, 40))
            increments = rng.random(length - 1) * rng.choice((0.0, 0.01, 1.0), size=length - 1)
            trace = 1.0 + np.concatenate(([0.0], np.cumsum(increments)))
            values = [float(v) for v in trace]
            rates = [aer(values, t) for t in thresholds]
            assert all(0.0 <= r <= 1.0 for r in rates)
            assert all(a >= b for a, b in zip(rates, rates[1:]))  # non-increasing in L
            scale = float(2.0 ** rng.integers(-6, 7))
            assert aer([scale * v for v in values], 0.01) == rates[2]
            scale = float(rng.uniform(0.001, 1000.0))
            assert aer([scale * v for v in values], 0.01) == rates[2]


def test_criterion_5_sampler_statistics():
    with criterion(5, "sampler statistics at fixed seeds, 1e5 draws each"):
        e = StochasticEngine(EngineConfig(kind=EngineKind.GAUSSIAN, seed=2024))
        xs = [e.sample_raw() for _ in range(100_000)]
        mean = sum(xs) / len(xs)
        var = sum((x - mean) ** 2 for x in xs) / (len(xs) - 1)
        assert abs(mean) <= 0.01 and abs(var - 1.0) <= 0.02

        e = StochasticEngine(EngineConfig(kind=EngineKind.WEIBULL, seed=2024))
        xs = [e.sample_raw() for _ in range(100_000)]
        assert abs(sum(xs) / len(xs) - 1.0) <= 0.02

        e = StochasticEngine(EngineConfig(kind=EngineKind.GAMMA, seed=2024, alpha=2))
        xs = [e.sample_raw() for _ in range(100_000)]
        mean = sum(xs) / len(xs)
        var = sum((x - mean) ** 2 for x in xs) / (len(xs) - 1)
        assert abs(mean - 2.0) <= 0.03 and abs(var - 2.0) <= 0.1

        sorted_xs = np.sort(np.array(xs))
        cdf = np.array([gamma_cdf(float(x), 2) for x in sorted_xs])
        n = len(sorted_xs)
        ks = max(float((np.arange(1, n + 1) / n - cdf).max()),
                 float((cdf - np.arange(0, n) / n).max()))
        assert ks <= 0.01

        e = StochasticEngine(EngineConfig(kind=EngineKind.CHAOTIC, seed=1,
                                     psi0=0.3, r0=3.9, warmup=0))
        assert e.sample_raw() == 0.819


def _canonical_bytes(result):
    return repr(result).encode()


def test_criterion_6_structural_invariants_at_desk_scale():
    with criterion(6, "desk runs: population, feasibility, monotone archive, "
                      "swim bound, replay"):
        params = BfaParams(n_total=50, pop_size=25)
        for kind in ALL_KINDS:
            for seed in (101, 202, 303):
                cfg = EngineConfig(kind=kind, seed=seed)
                sizes, bounds_ok, swim_ok, bests = [], [], [], []

                def watch(_, swarm):
                    sizes.append((swarm.theta.shape, *(len(rows[0]) for rows in
                                                       (swarm.f_plain, swarm.health, swarm.moves))))
                    bounds_ok.append(0.0 <= float(swarm.theta.min())
                                     and float(swarm.theta.max()) <= 1.0)
                    swim_ok.append(all(1 <= m <= params.n_swim + 1
                                       for m in swarm.moves[0]))
                    bests.append(swarm.best_f[0])

                result = run_bfa(HEADLINE_WEIGHTS, params, cfg, observer=watch)
                assert sizes == [((1, 25, 4), 25, 25, 25)] * 50
                assert all(bounds_ok) and all(swim_ok)
                assert all(a <= b for a, b in zip(bests, bests[1:]))
                assert result.trace == tuple(bests)
                replay = run_bfa(HEADLINE_WEIGHTS, params, cfg)
                assert _canonical_bytes(replay) == _canonical_bytes(result)

        # every scored point, swim steps included, stays feasible
        evaluated = {"n": 0}

        def audited_score(u):
            arr = np.asarray(u)
            assert float(arr.min()) >= 0.0 and float(arr.max()) <= 1.0
            x = to_physical(arr)
            for v, lo, hi in zip(x, LOWER_BOUNDS, UPPER_BOUNDS):
                assert lo <= v <= hi
            evaluated["n"] += 1
            return aggregate(evaluate(x), HEADLINE_WEIGHTS)

        audit = run_batch(lambda points: np.apply_along_axis(audited_score, -1, points),
                          params, [EngineConfig(kind=EngineKind.CHAOTIC, seed=101)])[0]
        assert evaluated["n"] >= audit.evaluations


def test_criterion_7_hill_climb_sanity():
    with criterion(7, "all four engines climb the separable surrogate"):
        def surrogate(u):
            return -float(np.sum((np.asarray(u) - 0.5) ** 2))

        # swarming off (zero heights): at default signal heights the cell-to-cell
        # term dwarfs the surrogate's dynamic range and this is a chemotaxis check
        params = BfaParams(n_total=30, pop_size=25, h_att=0.0, h_rep=0.0)
        for kind in ALL_KINDS:
            for seed in (1, 2, 4):
                result = run_batch(lambda points: np.apply_along_axis(surrogate, -1, points),
                                   params, [EngineConfig(kind=kind, seed=seed)])[0]
                assert result.best_f >= -0.01, (kind, seed, result.best_f)


@pytest.fixture(scope="module")
def desk_sweep(tmp_path_factory):
    """4 engines x 15 lattice weights x 3 runs, serial and parallel."""
    root = tmp_path_factory.mktemp("desk_sweep")
    weights_path = root / "weights15.csv"
    write_weights_csv(generate_weights(0.1, 0.1)[:15], weights_path)
    outputs = {}
    for jobs, name in ((1, "serial"), (8, "parallel")):
        out_dir = root / name
        # eight usable CPUs, so the parallel sweep runs in eight workers on any host
        with pytest.MonkeyPatch.context() as patch, redirect_stdout(io.StringIO()):
            patch.setattr("bforage.experiment._usable_cpus", lambda: 8)
            code = dispatch([
                "sweep", "--engines", "gaussian,weibull,gamma,chaotic",
                "--seed", "4242", "--runs", "3", "--weights-file", str(weights_path),
                "--nt", "50", "--jobs", str(jobs), "--out", str(out_dir),
            ])
        assert code == 0
        outputs[name] = out_dir
    return outputs


def test_criterion_8_desk_scale_protocol(desk_sweep, capsys):
    with criterion(8, "desk protocol: schema-valid CSVs, exact recompute, "
                      "serial == parallel bytes"):
        serial, parallel = desk_sweep["serial"], desk_sweep["parallel"]
        report = json.loads((serial / "report.json").read_text())
        assert [r["engine"] for r in report] == [k.value for k in ALL_KINDS]

        for entry in report:
            name = f"frontier_{entry['engine']}.csv"
            records = read_frontier_csv(serial / name)  # schema + audits
            assert len(records) == 15
            # the standalone command recomputes the report's volume exactly
            code = dispatch(["hvi", "--input", str(serial / name)])
            out = capsys.readouterr().out
            assert code == 0
            assert float(out.strip().splitlines()[0]) == entry["hvi"]

        files = ["report.json"] + [f"frontier_{k.value}.csv" for k in ALL_KINDS]
        for name in files:
            assert (serial / name).read_bytes() == (parallel / name).read_bytes()


def test_criterion_9_comparison_report_shape(desk_sweep, capsys):
    with criterion(9, "reported rankings are out of reach at desk scale; "
                      "compare still emits ranking, gaps and AER ordering"):
        serial = desk_sweep["serial"]
        code = dispatch([
            "compare",
            *sum((["--input", str(serial / f"frontier_{k.value}.csv")]
                  for k in ALL_KINDS), []),
        ])
        out = capsys.readouterr().out
        assert code == 0
        table = json.loads(out)
        assert set(table) == {"hvi_ranking", "leader", "leader_gaps_percent", "aer_ranking"}
        assert len(table["hvi_ranking"]) == 4
        assert [row["rank"] for row in table["hvi_ranking"]] == [1, 2, 3, 4]
        assert len(table["leader_gaps_percent"]) == 3
        assert len(table["aer_ranking"]) == 4
        hvis = [row["hvi"] for row in table["hvi_ranking"]]
        assert hvis == sorted(hvis, reverse=True)
        assert all(g["percent"] >= 0.0 for g in table["leader_gaps_percent"])
        for row in table["aer_ranking"]:
            assert 0.0 <= row["mean_aer"] <= 1.0
