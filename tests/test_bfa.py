import math
import sys
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from bforage import bfa
from bforage.bfa import BfaParams, SwarmState, reproduce, run_batch, run_bfa, run_custom
from bforage.bfa import (
    _directions,
    _disperse,
    _generation,
    _initialize,
    _potentials,
    _swim_path,
    chemotaxis_move,
)
from bforage.engines import EngineConfig, EngineKind, StochasticEngine
from bforage.errors import BudgetError, ConfigError, DomainError
from bforage.problem import WeightVector

WEIGHTS = WeightVector(0.1, 0.7, 0.1, 0.1)


class ScriptedEngine:
    """Stands in for a StochasticEngine with a fixed unit-draw script."""

    def __init__(self, units):
        self.units = list(units)
        self.draws = 0

    def sample_unit(self):
        self.draws += 1
        return self.units.pop(0)

    def sample_units(self, count):
        return [self.sample_unit() for _ in range(count)]


def sphere_score(u):
    return -float(np.sum((np.asarray(u) - 0.5) ** 2))


def potential_at(theta, swarm, params):
    """The swarming term at one point, with every bacterium where it stands."""
    return float(_potentials(np.reshape(theta, (1, 1, 4)), swarm.theta[None], params)[0, 0])


def small_swarm(positions, params, score=sphere_score):
    theta = np.array(positions, dtype=float)
    return SwarmState(theta=theta, f_plain=np.array([score(t) for t in theta]),
                      cost=np.zeros(len(theta)), health=np.zeros(len(theta)),
                      best_theta=theta[0].copy(), best_f=-math.inf)


def stepwise_generation(swarm, engine, score, params):
    """The swim as it ran before batching: one move and one swarming term at a time."""
    moves = []
    for i in range(swarm.size):
        previous = swarm.f_plain[i]
        if params.swarming:
            previous = previous - potential_at(swarm.theta[i], swarm, params)
        direction = _directions(engine, 1)[0]
        current = chemotaxis_move(i, direction, swarm, score, params)
        taken = 1
        while taken <= params.n_swim and current > previous:
            previous = current
            current = chemotaxis_move(i, direction, swarm, score, params)
            taken += 1
        moves.append(taken)
    swarm.last_moves = moves
    swarm.trace.append(swarm.best_f)
    return swarm


# -- parameters ---------------------------------------------------------------


def test_default_parameters():
    p = BfaParams()
    assert (p.n_total, p.pop_size, p.n_swim, p.n_repro) == (200, 25, 5, 5)
    assert (p.w_rep, p.w_att, p.h_rep, p.h_att) == (10.0, 0.2, 0.1, 0.1)
    assert (p.n_chemo, p.step_size, p.p_elim, p.swarming) == (10, 0.05, 0.25, True)


def test_parameter_validation():
    with pytest.raises(BudgetError):
        BfaParams(n_total=0)
    with pytest.raises(ConfigError):
        BfaParams(pop_size=0)
    with pytest.raises(ConfigError):
        BfaParams(p_elim=1.5)
    with pytest.raises(ConfigError):
        BfaParams(step_size=0.0)
    # a negative signal width makes exp(-w * d) grow with the distance d and overflow
    for bad in (dict(step_size=math.inf), dict(w_rep=math.nan), dict(h_att=-math.inf),
                dict(w_att=-500.0), dict(w_rep=-5e-324)):
        with pytest.raises(ConfigError):
            BfaParams(**bad)
    BfaParams(n_swim=0)  # swim loop may be disabled entirely
    BfaParams(w_rep=0.0, w_att=0.0)


LARGEST = sys.float_info.max
HALF, QUARTER = LARGEST / 2, LARGEST / 4


# the swarming term is at most pop_size * (|h_att| + |h_rep|) in size
@pytest.mark.parametrize("accepted,rejected", [
    (dict(pop_size=1, h_rep=LARGEST, h_att=0.0), dict(pop_size=2, h_rep=LARGEST, h_att=0.0)),
    (dict(pop_size=2, h_rep=HALF, h_att=0.0), dict(pop_size=2, h_rep=math.nextafter(HALF, math.inf), h_att=0.0)),
    (dict(pop_size=2, h_rep=QUARTER, h_att=-QUARTER),
     dict(pop_size=2, h_rep=QUARTER, h_att=-math.nextafter(QUARTER, math.inf))),
    (dict(pop_size=2, h_rep=QUARTER, h_att=-QUARTER), dict(pop_size=3, h_rep=QUARTER, h_att=-QUARTER)),
    (dict(pop_size=2**1000, h_rep=0.0, h_att=0.0), dict(pop_size=10**400, h_rep=0.0, h_att=0.0)),
    (dict(pop_size=3, h_rep=1e307, h_att=-1e307), dict(pop_size=3, h_rep=1e308, h_att=-1e308)),
])
def test_swarming_heights_whose_term_overflows_are_rejected(accepted, rejected):
    BfaParams(**accepted)
    with pytest.raises(ConfigError, match="overflows"):
        BfaParams(**rejected)


# -- initialization -----------------------------------------------------------


def test_initialize_draws_four_units_per_bacterium():
    params = BfaParams(pop_size=25)
    engine = StochasticEngine(EngineConfig(kind=EngineKind.GAUSSIAN, seed=9))
    theta, (swarm,) = _initialize([engine], params, [sphere_score])
    assert theta.shape == (1, 25, 4)
    assert swarm.size == 25
    assert engine.draws == 100
    assert swarm.evaluations == 25


def test_initialize_is_deterministic():
    params = BfaParams(pop_size=6)
    cfg = EngineConfig(kind=EngineKind.WEIBULL, seed=4)
    _, (a,) = _initialize([StochasticEngine(cfg)], params, [sphere_score])
    _, (b,) = _initialize([StochasticEngine(cfg)], params, [sphere_score])
    for name in ("theta", "f_plain", "cost", "health"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_initialize_singleton_best_is_sole_member():
    params = BfaParams(pop_size=1)
    _, (swarm,) = _initialize([StochasticEngine(EngineConfig(kind=EngineKind.GAMMA, seed=2))],
                              params, [sphere_score])
    assert swarm.best_f == swarm.f_plain[0]
    assert np.array_equal(swarm.best_theta, swarm.theta[0])


# -- tumble -------------------------------------------------------------------


def test_tumble_passes_through_an_already_unit_vector():
    # signed draws (1, 0, 0, 0) come from unit draws (1.0, 0.5, 0.5, 0.5)
    direction = _directions(ScriptedEngine([1.0, 0.5, 0.5, 0.5]), 1)[0]
    assert direction.tolist() == [1.0, 0.0, 0.0, 0.0]


def test_tumble_normalizes_the_diagonal():
    direction = _directions(ScriptedEngine([1.0, 1.0, 1.0, 1.0]), 1)[0]
    assert direction.tolist() == [0.5, 0.5, 0.5, 0.5]


def test_tumble_redraws_on_the_zero_vector():
    direction = _directions(ScriptedEngine([0.5, 0.5, 0.5, 0.5, 1.0, 0.5, 0.5, 0.5]), 1)[0]
    assert direction.tolist() == [1.0, 0.0, 0.0, 0.0]


def test_tumble_is_unit_length():
    engine = StochasticEngine(EngineConfig(kind=EngineKind.CHAOTIC, seed=6))
    for _ in range(500):
        assert abs(float(np.linalg.norm(_directions(engine, 1)[0])) - 1.0) <= 1e-12


@pytest.mark.parametrize("kind", list(EngineKind))
def test_directions_equal_one_tumble_at_a_time(kind):
    # the block's norms keep the bits of each row's own ``delta @ delta``
    block = StochasticEngine(EngineConfig(kind=kind, seed=11))
    alone = StochasticEngine(EngineConfig(kind=kind, seed=11))
    for size in (1, 2, 7, 25, 400):
        directions = _directions(block, size)
        assert directions.shape == (size, 4)
        assert np.array_equal(directions, [_directions(alone, 1)[0] for _ in range(size)])
    assert block.draws == alone.draws


# -- chemotaxis move ------------------------------------------------------------


def test_move_steps_along_the_axis():
    params = BfaParams(step_size=0.1, swarming=False)
    swarm = small_swarm([(0.5, 0.5, 0.5, 0.5)], params)
    chemotaxis_move(0, np.array([1.0, 0.0, 0.0, 0.0]), swarm, sphere_score, params)
    assert swarm.theta[0].tolist() == pytest.approx([0.6, 0.5, 0.5, 0.5], abs=1e-15)
    assert swarm.evaluations == 1


def test_move_clamps_at_the_boundary():
    params = BfaParams(step_size=0.1, swarming=False)
    swarm = small_swarm([(0.98, 0.5, 0.5, 0.5)], params)
    chemotaxis_move(0, np.array([1.0, 0.0, 0.0, 0.0]), swarm, sphere_score, params)
    assert swarm.theta[0].tolist() == [1.0, 0.5, 0.5, 0.5]


def test_zero_step_leaves_position_and_cost_unchanged():
    # parameter objects forbid step 0, so exercise the op with a stand-in
    params = SimpleNamespace(step_size=0.0, swarming=False,
                             w_rep=10.0, w_att=0.2, h_rep=0.1, h_att=0.1)
    swarm = small_swarm([(0.25, 0.5, 0.5, 0.5)], params)
    before_cost = sphere_score(swarm.theta[0])
    chemotaxis_move(0, np.array([1.0, 0.0, 0.0, 0.0]), swarm, sphere_score, params)
    assert swarm.theta[0].tolist() == [0.25, 0.5, 0.5, 0.5]
    assert swarm.cost[0] == before_cost


def test_move_accumulates_health():
    params = BfaParams(step_size=0.05, swarming=False)
    swarm = small_swarm([(0.5, 0.5, 0.5, 0.5)], params)
    chemotaxis_move(0, np.array([0.0, 1.0, 0.0, 0.0]), swarm, sphere_score, params)
    first = swarm.cost[0]
    chemotaxis_move(0, np.array([0.0, 1.0, 0.0, 0.0]), swarm, sphere_score, params)
    assert swarm.health[0] == first + swarm.cost[0]


# -- swarming term ---------------------------------------------------------------


def test_swarming_cancels_when_all_bacteria_coincide():
    params = BfaParams()
    swarm = small_swarm([(0.3, 0.3, 0.3, 0.3)] * 7, params)
    assert potential_at(swarm.theta[0], swarm, params) == 0.0


def test_swarming_single_member_hand_value():
    params = BfaParams()  # heights 0.1, widths 0.2 and 10
    swarm = small_swarm([(0.0, 0.0, 0.0, 0.0)], params)
    theta = np.array([1.0, 0.0, 0.0, 0.0])  # squared distance 1
    expected = -0.1 * math.exp(-0.2) + 0.1 * math.exp(-10.0)
    assert potential_at(theta, swarm, params) == pytest.approx(expected, rel=1e-12)


def test_swarming_zero_heights_zero_term():
    params = BfaParams(h_att=0.0, h_rep=0.0)
    swarm = small_swarm([(0.1, 0.2, 0.3, 0.4), (0.9, 0.8, 0.7, 0.6)], params)
    assert potential_at(np.array([0.5, 0.5, 0.5, 0.5]), swarm, params) == 0.0


@pytest.mark.parametrize("kind", list(EngineKind))
def test_run_without_swarming_equals_a_run_with_a_zero_term(kind):
    # reproductions at generations 3, 6 and 9, a dispersal at 6
    params = BfaParams(n_total=12, pop_size=6, n_chemo=3, n_repro=2, p_elim=0.5)
    for seed in (1, 2):
        config = EngineConfig(kind=kind, seed=seed)
        off = run_bfa(WEIGHTS, replace(params, swarming=False), config)
        zero = run_bfa(WEIGHTS, replace(params, h_att=0.0, h_rep=0.0), config)
        assert repr(off) == repr(zero)


@pytest.mark.parametrize("size", [1, 2, 5, 8, 9, 25])
def test_path_potentials_equal_swarming_term_at_each_point(size):
    # the batch stands bacterium i at each path point in turn; numpy sums 8
    # or more values pairwise, so sizes on both sides of 8 are covered
    params = BfaParams(step_size=0.3, n_swim=6)
    rng = np.random.default_rng(size)
    swarm = small_swarm(rng.random((size, 4)), params)
    engine = StochasticEngine(EngineConfig(kind=EngineKind.GAMMA, seed=size))
    for i in range(size):
        path = _swim_path(swarm.theta[None, i], _directions(engine, 1), params)[0]
        assert ((path[1:] == 0.0) | (path[1:] == 1.0)).any()  # the swim reaches a face
        potentials = _potentials(path[None], swarm.theta[None], params, i)[0]
        assert potentials.shape == (len(path),)
        for point, potential in zip(path, potentials):
            moved = small_swarm(swarm.theta, params)
            moved.theta[i] = point
            assert potential == potential_at(point, moved, params)


@pytest.mark.parametrize("step", [0.05, 0.3, 0.9])
def test_swim_path_equals_iterated_clamp(step):
    params = BfaParams(step_size=step, n_swim=12)
    rng = np.random.default_rng(int(step * 100))
    engine = StochasticEngine(EngineConfig(kind=EngineKind.WEIBULL, seed=2))
    starts = [rng.random(4) for _ in range(40)] + [np.array([0.0, 1.0, 0.98, 0.02])]
    faces = 0
    for start in starts:
        direction = _directions(engine, 1)[0]
        path = _swim_path(start[None], direction[None], params)[0]
        expected = [start]
        for _ in range(params.n_swim + 1):
            expected.append(np.clip(expected[-1] + params.step_size * direction, 0.0, 1.0))
        assert np.array_equal(path, np.array(expected))
        faces += bool(((path == 0.0) | (path == 1.0)).any())
    assert faces > 0


# -- generation ------------------------------------------------------------------


def test_generation_with_swim_disabled_takes_one_move_each():
    params = BfaParams(pop_size=5, n_swim=0, swarming=False)
    engine = StochasticEngine(EngineConfig(kind=EngineKind.GAUSSIAN, seed=3))
    theta, (swarm,) = _initialize([engine], params, [sphere_score])
    evals_before = swarm.evaluations
    _generation(theta, [swarm], [engine], [sphere_score], params)
    assert swarm.last_moves == [1] * 5
    assert swarm.evaluations == evals_before + 5
    assert len(swarm.trace) == 1


def test_swim_stops_after_a_worsening_first_move():
    params = BfaParams(pop_size=1, n_swim=5, swarming=False)
    engine = StochasticEngine(EngineConfig(kind=EngineKind.GAUSSIAN, seed=3))

    calls = {"n": 0}

    def decreasing_score(u):
        calls["n"] += 1
        return float(-calls["n"])  # every evaluation is worse than the last

    theta, (swarm,) = _initialize([engine], params, [decreasing_score])
    _generation(theta, [swarm], [engine], [decreasing_score], params)
    assert swarm.last_moves == [1]
    assert calls["n"] == 2  # the rest of the swim path is never scored


@pytest.mark.parametrize("swarming", [True, False])
def test_score_calls_match_the_stepwise_swim(monkeypatch, swarming):
    # the batched swim scores exactly the positions the one-move-at-a-time
    # swim commits, in the same order, once per counted evaluation
    params = BfaParams(n_total=12, pop_size=9, n_chemo=4, n_repro=2, step_size=0.2,
                       swarming=swarming)
    config = EngineConfig(kind=EngineKind.WEIBULL, seed=4)

    def recorded_run():
        scored = []

        def score(u):  # linear with its maximum at a vertex, so swims run into faces
            scored.append(tuple(u.tolist()))
            return float(u[0] + 2.0 * u[1] - u[2] + 0.5 * u[3])

        return run_custom(score, params, config), scored

    def stepwise_batch(theta, swarms, engines, scores, params):
        for swarm, engine, score in zip(swarms, engines, scores):
            stepwise_generation(swarm, engine, score, params)

    batched, batched_calls = recorded_run()
    monkeypatch.setattr(bfa, "_generation", stepwise_batch)
    stepwise, stepwise_calls = recorded_run()
    assert len(batched_calls) == batched.evaluations
    assert batched_calls == stepwise_calls
    assert batched == stepwise


def test_generation_redraws_a_zero_row_where_a_lone_tumble_would(monkeypatch):
    # run 0 draws an all-0.5 (zero) row for bacterium 2, beside a normal run 1
    params = BfaParams(pop_size=5)
    rng = np.random.default_rng(9)
    units = [rng.random() for _ in range(8)] + [0.5] * 4 + [rng.random() for _ in range(16)]
    normal = EngineConfig(kind=EngineKind.GAMMA, seed=4)
    start = rng.random((2, 5, 4))

    def engines():
        return [ScriptedEngine(units), StochasticEngine(normal)]

    expected = []
    for b, (tumbler, swimmer) in enumerate(zip(engines(), engines())):
        directions = np.array([_directions(tumbler, 1)[0] for _ in range(params.pop_size)])
        swarm = small_swarm(start[b], params)
        stepwise_generation(swarm, swimmer, sphere_score, params)
        assert swimmer.draws == tumbler.draws
        expected.append((directions, swarm.theta, swarm.last_moves, tumbler.draws))
    assert [draws for *_, draws in expected] == [24, 20]

    seen = []

    def spy(start, direction, params):
        seen.append(direction.copy())
        return _swim_path(start, direction, params)

    monkeypatch.setattr(bfa, "_swim_path", spy)
    theta = start.copy()
    swarms = [small_swarm(theta[b], params) for b in range(2)]
    for b, swarm in enumerate(swarms):
        swarm.theta = theta[b]  # the batch's swarms are views of its block
    batch = engines()
    bfa._generation(theta, swarms, batch, [sphere_score] * 2, params)
    assert len(seen) == 1  # every path of the generation comes from one call
    for b, (directions, positions, moves, draws) in enumerate(expected):
        assert np.array_equal(seen[0][b], directions)
        assert np.array_equal(swarms[b].theta, positions)
        assert swarms[b].last_moves == moves
        assert batch[b].draws == draws


@pytest.mark.parametrize("kind", list(EngineKind))
def test_generation_never_draws_ahead_of_its_tumbles(kind):
    # dispersal continues the stream, so a generation takes exactly its 4 S draws
    config = EngineConfig(kind=kind, seed=21)
    params = BfaParams(pop_size=7)
    swarm = small_swarm(np.random.default_rng(2).random((7, 4)), params)
    engine = StochasticEngine(config)
    _generation(swarm.theta[None], [swarm], [engine], [sphere_score], params)
    assert engine.draws == 4 * params.pop_size
    fresh = StochasticEngine(config)
    stream = [fresh.sample_unit() for _ in range(4 * params.pop_size + 1)]
    assert engine.sample_unit() == stream[-1]


def test_swim_bound_is_never_exceeded():
    params = BfaParams(pop_size=8, n_swim=3, swarming=False)
    engine = StochasticEngine(EngineConfig(kind=EngineKind.WEIBULL, seed=12))
    theta, (swarm,) = _initialize([engine], params, [sphere_score])
    for _ in range(20):
        _generation(theta, [swarm], [engine], [sphere_score], params)
        assert all(1 <= m <= params.n_swim + 1 for m in swarm.last_moves)


def test_trace_grows_by_one_per_generation():
    params = BfaParams(pop_size=4, swarming=False)
    engine = StochasticEngine(EngineConfig(kind=EngineKind.GAMMA, seed=8))
    theta, (swarm,) = _initialize([engine], params, [sphere_score])
    for expected_len in range(1, 11):
        _generation(theta, [swarm], [engine], [sphere_score], params)
        assert len(swarm.trace) == expected_len


# -- reproduction ----------------------------------------------------------------


def test_reproduce_even_population():
    params = BfaParams(pop_size=4)
    swarm = small_swarm([(0.1,) * 4, (0.2,) * 4, (0.3,) * 4, (0.4,) * 4], params)
    swarm.health[:] = (10.0, 9.0, 1.0, 0.0)
    reproduce(swarm)
    assert swarm.size == 4
    thetas = [tuple(t) for t in swarm.theta]
    assert thetas == [(0.1,) * 4, (0.2,) * 4, (0.1,) * 4, (0.2,) * 4]
    assert swarm.f_plain.tolist() == [sphere_score(t) for t in swarm.theta]
    assert swarm.health.tolist() == [0.0] * 4


def test_reproduce_odd_population_keeps_ceil_half():
    params = BfaParams(pop_size=25)
    swarm = small_swarm([(i / 25.0,) * 4 for i in range(25)], params)
    swarm.health[:] = np.arange(25.0)  # bacterium 24 is healthiest
    reproduce(swarm)
    assert swarm.size == 25
    survivors = [tuple(t) for t in swarm.theta[:13]]
    clones = [tuple(t) for t in swarm.theta[13:]]
    assert survivors == [((24 - i) / 25.0,) * 4 for i in range(13)]
    assert clones == survivors[:12]


def test_reproduce_breaks_ties_by_position():
    params = BfaParams(pop_size=4)
    swarm = small_swarm([(0.1,) * 4, (0.2,) * 4, (0.3,) * 4, (0.4,) * 4], params)
    swarm.health[:] = 5.0
    reproduce(swarm)
    thetas = [tuple(t) for t in swarm.theta]
    assert thetas == [(0.1,) * 4, (0.2,) * 4, (0.1,) * 4, (0.2,) * 4]
    # mixed ties at odd sizes rank as a sort on (-health, position) does
    health = [2.0, -1.0, 2.0, 0.0, -1.0, 2.0, 0.0]
    for size in (5, 7):
        params = BfaParams(pop_size=size)
        swarm = small_swarm([(i / 10.0,) * 4 for i in range(size)], params)
        swarm.health[:] = health[:size]
        reproduce(swarm)
        ranked = sorted(range(size), key=lambda i: (-health[i], i))
        keep = (size + 1) // 2
        rows = ranked[:keep] + ranked[: size - keep]
        assert [t[0] for t in swarm.theta] == [i / 10.0 for i in rows]


def test_clones_are_independent_copies():
    params = BfaParams(pop_size=2)
    swarm = small_swarm([(0.5,) * 4, (0.6,) * 4], params)
    swarm.health[0] = 1.0
    reproduce(swarm)
    swarm.theta[0, 0] = 0.123
    assert swarm.theta[1, 0] != 0.123


# -- elimination-dispersal ---------------------------------------------------------


def test_dispersal_probability_zero_is_a_no_op():
    params = BfaParams(pop_size=5, p_elim=0.0, swarming=False)
    engine = StochasticEngine(EngineConfig(kind=EngineKind.GAUSSIAN, seed=21))
    theta, (swarm,) = _initialize([engine], params, [sphere_score])
    before = swarm.theta.copy()
    evals, draws = swarm.evaluations, engine.draws
    _disperse(theta, [swarm], [engine], [sphere_score], params)
    assert np.array_equal(before, swarm.theta)
    assert swarm.evaluations == evals
    assert engine.draws == draws + 5  # one decision draw per bacterium


def test_dispersal_probability_one_redraws_everyone():
    params = BfaParams(pop_size=5, p_elim=1.0, swarming=False)
    engine = StochasticEngine(EngineConfig(kind=EngineKind.GAUSSIAN, seed=21))
    theta, (swarm,) = _initialize([engine], params, [sphere_score])
    before = swarm.theta.copy()
    evals, draws = swarm.evaluations, engine.draws
    _disperse(theta, [swarm], [engine], [sphere_score], params)
    assert swarm.size == 5
    assert swarm.evaluations == evals + 5
    assert engine.draws == draws + 5 * 5  # a decision draw, then four position draws
    assert all(not np.array_equal(a, t) for a, t in zip(before, swarm.theta))


def test_dispersal_never_erases_the_archive():
    params = BfaParams(pop_size=5, p_elim=1.0, swarming=False)
    engine = StochasticEngine(EngineConfig(kind=EngineKind.GAUSSIAN, seed=21))
    theta, (swarm,) = _initialize([engine], params, [sphere_score])
    best_before = swarm.best_f
    _disperse(theta, [swarm], [engine], [sphere_score], params)
    assert swarm.best_f >= best_before


# -- full runs ----------------------------------------------------------------------


def test_run_single_generation_has_single_trace_entry():
    result = run_bfa(WEIGHTS, BfaParams(n_total=1, pop_size=4),
                     EngineConfig(kind=EngineKind.GAUSSIAN, seed=5))
    assert len(result.trace) == 1


def test_run_is_bit_identical_on_replay():
    params = BfaParams(n_total=20, pop_size=10)
    cfg = EngineConfig(kind=EngineKind.CHAOTIC, seed=77)
    assert run_bfa(WEIGHTS, params, cfg) == run_bfa(WEIGHTS, params, cfg)


def test_best_result_consistency():
    result = run_bfa(WEIGHTS, BfaParams(n_total=15, pop_size=8),
                     EngineConfig(kind=EngineKind.GAMMA, seed=31))
    assert result.best_f == max(result.trace) == result.trace[-1]
    from bforage.problem import aggregate, evaluate, to_physical
    assert result.best_decision == to_physical(result.best_theta)
    # the score is the unit-coordinate quadratic, so it agrees with the
    # checked path to a relative bound rather than bit for bit
    recomputed = aggregate(evaluate(result.best_decision), WEIGHTS)
    assert abs(result.best_f - recomputed) <= 1e-12 * abs(recomputed)
    # trace is the non-decreasing best-so-far curve
    assert all(a <= b for a, b in zip(result.trace, result.trace[1:]))


def test_population_and_feasibility_invariants_throughout_a_run():
    sizes, thetas_ok = [], []

    def watch(_, swarm):
        sizes.append((swarm.size, *(len(a) for a in (swarm.f_plain, swarm.cost, swarm.health))))
        thetas_ok.append(all(
            float(t.min()) >= 0.0 and float(t.max()) <= 1.0
            for t in swarm.theta
        ))

    run_bfa(WEIGHTS, BfaParams(n_total=30, pop_size=9),
            EngineConfig(kind=EngineKind.WEIBULL, seed=55), observer=watch)
    assert sizes == [(9, 9, 9, 9)] * 30
    assert all(thetas_ok)


def test_engine_draws_replay_exactly():
    params = BfaParams(pop_size=7, swarming=False)
    counts = []
    for _ in range(2):
        engine = StochasticEngine(EngineConfig(kind=EngineKind.GAUSSIAN, seed=17))
        theta, (swarm,) = _initialize([engine], params, [sphere_score])
        for _ in range(12):
            _generation(theta, [swarm], [engine], [sphere_score], params)
        _disperse(theta, [swarm], [engine], [sphere_score], params)
        counts.append(engine.draws)
    assert counts[0] == counts[1]


def test_swarming_disabled_means_cost_equals_plain_objective():
    costs_match = []

    def watch(_, swarm):
        costs_match.append(bool(np.all(swarm.cost == swarm.f_plain)))

    run_bfa(WEIGHTS, BfaParams(n_total=10, pop_size=6, swarming=False),
            EngineConfig(kind=EngineKind.GAUSSIAN, seed=10), observer=watch)
    assert all(costs_match)


def test_archive_equals_trace_even_when_dispersal_lands_on_the_budget_boundary():
    # a dispersal event scheduled exactly at the last generation is skipped,
    # so the final trace entry always reflects the final archive
    params = BfaParams(n_total=4, pop_size=6, n_chemo=2, n_repro=2, p_elim=1.0)
    for kind in (EngineKind.GAUSSIAN, EngineKind.CHAOTIC):
        for seed in range(8):
            result = run_bfa(WEIGHTS, params, EngineConfig(kind=kind, seed=seed))
            assert result.best_f == max(result.trace) == result.trace[-1]


@pytest.mark.parametrize("pop", [5, 25])
@pytest.mark.parametrize("heights", [None, 0.1, 100.0], ids=["off", "default", "strong"])
@pytest.mark.parametrize("size", [1, 2, 3, 8])
def test_every_run_of_a_lockstep_batch_equals_the_run_alone(size, heights, pop):
    # three reproductions and a dispersal followed by one in 7 generations,
    # mixed engine kinds, weights and seeds; a batch's result must not
    # depend on its neighbours. Strong swarming signals make a swarming
    # term taken from the wrong run change gates and health ranks.
    params = BfaParams(n_total=7, pop_size=pop, n_chemo=2, n_repro=2, p_elim=0.5,
                       swarming=heights is not None, h_att=heights or 0.1, h_rep=heights or 0.1)
    weights = [WeightVector(0.7, 0.1, 0.1, 0.1), WeightVector(0.1, 0.2, 0.3, 0.4),
               WeightVector(0.25, 0.25, 0.25, 0.25)]
    kinds = list(EngineKind)
    runs = [(weights[b % 3], EngineConfig(kind=kinds[(b + size) % 4], seed=1000 * size + b))
            for b in range(size)]
    batch = run_batch([w for w, _ in runs], params, [c for _, c in runs])
    assert len(batch) == size
    for result, (w, config) in zip(batch, runs):
        assert repr(result) == repr(run_bfa(w, params, config))


def test_lockstep_observer_sees_each_run_as_alone():
    params = BfaParams(n_total=6, pop_size=6, n_chemo=2, n_repro=1, p_elim=0.5)
    runs = [(WeightVector(0.1, 0.1, 0.1, 0.7), EngineConfig(kind=kind, seed=3)) for kind in EngineKind]

    def recorder(log):
        return lambda generation, swarm: log.append(
            (generation, swarm.theta.tolist(), swarm.health.tolist(), swarm.best_f,
             swarm.evaluations, list(swarm.last_moves)))

    together = []
    run_batch([w for w, _ in runs], params, [c for _, c in runs], observer=recorder(together))
    alone = []
    for w, config in runs:
        log = []
        run_bfa(w, params, config, observer=recorder(log))
        alone.append(log)
    # the batch reports every run after each generation, in batch order
    assert together == [entry for step in zip(*alone) for entry in step]


def test_batch_needs_one_engine_config_per_weight_vector():
    with pytest.raises(ConfigError):
        run_batch([WEIGHTS, WEIGHTS], BfaParams(n_total=1, pop_size=2),
                  [EngineConfig(kind=EngineKind.GAUSSIAN, seed=1)])


def test_a_swim_too_long_for_memory_is_rejected_before_any_allocation():
    # (n_swim + 2) * S * 4 float64s per swarming call would need 6.4 GB
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="n_swim=100000000"):
            run_custom(sphere_score, BfaParams(n_total=2, pop_size=2, n_swim=10**8),
                       EngineConfig(kind=EngineKind.GAUSSIAN, seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_potentials_peak_stays_near_the_largest_array():
    # the (4, 1, 1000, 1000) squared differences are freed before the
    # (2, 1, 1000, 1000) signals are made
    theta = np.random.default_rng(3).random((1, 1000, 4))
    largest = 4 * 1000 * 1000 * 8
    tracemalloc.start()
    try:
        _potentials(theta, theta, BfaParams(pop_size=1000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * largest


@pytest.mark.parametrize("fields,runs", [
    # 4 * (n_swim + 2) * S with swarming; without, the generation's
    # (B, S, n_swim + 2, 4) block of swim paths, the same count
    (dict(pop_size=2, n_swim=2**24 - 2), 1),
    (dict(pop_size=2, n_swim=2**24 - 1), 0),
    (dict(pop_size=2, n_swim=2**24 - 2, swarming=False), 1),
    (dict(pop_size=2, n_swim=2**24 - 1, swarming=False), 0),
    # 4 * S * S at the initial placement: 4 * 5792**2 <= 2**27 < 4 * 5793**2
    (dict(pop_size=5792), 1),
    (dict(pop_size=5793), 0),
    # without swarming S multiplies the path length: 4 * S * 2 at n_swim = 0
    (dict(pop_size=2**24, n_swim=0, swarming=False), 1),
    (dict(pop_size=2**24 + 1, n_swim=0, swarming=False), 0),
    (dict(), 2**27 // (4 * 25 * 25)),
    # one run fitted while each tumble built only its own path; its block
    # of swim paths alone now exceeds 2**27 float64s
    (dict(pop_size=2, n_swim=2**25 - 2, swarming=False), 0),
    (dict(pop_size=2**25, swarming=False), 0),
])
def test_batch_limit_counts_the_largest_array(fields, runs):
    assert bfa._batch_limit(BfaParams(**fields)) == runs


def test_a_batch_too_large_for_memory_is_rejected_before_any_draw(monkeypatch):
    params = BfaParams(n_total=2, pop_size=4)  # 4 * 7 * 4 = 112 float64s per run
    monkeypatch.setattr(bfa, "_MAX_ARRAY_FLOATS", 2 * 112)
    monkeypatch.setattr(bfa, "StochasticEngine", None)  # a draw would fail on it
    with pytest.raises(ConfigError, match="336 float64s .* 3 run"):
        run_batch([WEIGHTS] * 3, params, [EngineConfig(kind=EngineKind.GAUSSIAN, seed=s)
                                          for s in range(3)])


def test_custom_objective_hill_climb():
    params = BfaParams(n_total=30, swarming=False)
    for kind in (EngineKind.GAUSSIAN, EngineKind.WEIBULL):
        result = run_custom(sphere_score, params, EngineConfig(kind=kind, seed=1))
        assert result.best_f >= -0.01
        assert result.best_decision is None and result.best_objectives is None


def test_run_without_a_finite_best_value_is_a_domain_error():
    with pytest.raises(DomainError):
        run_custom(lambda u: math.nan, BfaParams(n_total=3, pop_size=4),
                   EngineConfig(kind=EngineKind.GAUSSIAN, seed=1))
