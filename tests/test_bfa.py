import copy
import math
import sys
import tracemalloc
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from bforage import bfa
from bforage.bfa import BfaParams, SwarmState, run_batch, run_bfa
from bforage.bfa import (
    _directions,
    _disperse,
    _generation,
    _initialize,
    _reproduce,
    _swarming_term,
    _swim_path,
    chemotaxis_move,
)
from bforage.engines import EngineConfig, EngineKind, StochasticEngine
from bforage.errors import BudgetError, ConfigError, DomainError
from bforage.experiment import generate_weights
from bforage.problem import WeightVector, unit_block_scorer

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


def block(score):
    """A score of one (4,) point as a scorer of a (..., 4) block of points."""
    return lambda points: np.apply_along_axis(score, -1, points)


sphere = block(sphere_score)


def potential_at(theta, swarm, params, i):
    """The swarming term at one point of run 0, with bacterium ``i`` there and the rest where they stand."""
    points = np.broadcast_to(theta, (1, swarm.theta.shape[1], 1, 4))
    return float(_swarming_term(params, points, swarm.theta[:1])(i)[0, 0])


def small_batch(positions, score=sphere_score):
    """A batch with run ``b``'s bacteria at ``positions[b]``, each scored, nothing committed."""
    theta = np.array(positions, dtype=float)
    batch, size = theta.shape[:2]
    return SwarmState(theta=theta, best_theta=theta[:, 0].copy(),
                      f_plain=[[score(t) for t in row] for row in theta],
                      health=[[0.0] * size for _ in range(batch)],
                      moves=[[0] * size for _ in range(batch)], best_f=[-math.inf] * batch,
                      evaluations=[0] * batch, trace=[[] for _ in range(batch)])


def small_swarm(positions, params, score=sphere_score):
    """A batch of one run with its bacteria at ``positions``."""
    return small_batch([positions], score)


def stepwise_generation(swarm, engine, score, params):
    """The swim of run 0 as it ran before batching: one move and one swarming term at a time."""
    moves = []
    for i in range(swarm.theta.shape[1]):
        previous = swarm.f_plain[0][i]
        if params.swarming:
            previous = previous - potential_at(swarm.theta[0, i], swarm, params, i)
        direction = _directions([engine], 1)[0, 0]
        current = chemotaxis_move(i, direction, swarm, score, params)
        taken = 1
        while taken <= params.n_swim and current > previous:
            previous = current
            current = chemotaxis_move(i, direction, swarm, score, params)
            taken += 1
        moves.append(taken)
    swarm.moves[0] = moves
    swarm.trace[0].append(swarm.best_f[0])
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


@pytest.mark.parametrize("value", [10**400, -(10**400)], ids=["+10**400", "-10**400"])
@pytest.mark.parametrize("name", ["step_size", "w_rep", "w_att", "h_rep", "h_att", "k", "dr"])
def test_an_int_beyond_float_range_is_a_config_error_naming_its_field(name, value):
    # math.isfinite raises OverflowError on such an int rather than answering False
    if hasattr(BfaParams, name):
        make = BfaParams
    else:
        def make(**field):
            return EngineConfig(kind="weibull", seed=1, **field)
    with pytest.raises(ConfigError, match=rf"^{name} must be finite"):
        make(**{name: value})


LARGEST = sys.float_info.max
# a default health sum adds min(n_chemo, n_total) * (n_swim + 1) + 1 = 61
# costs, each with a swarming term of at most pop_size * (|h_att| + |h_rep|)
TERM = LARGEST / 61  # the largest term a default health sum holds
HALF, QUARTER = TERM / 2, TERM / 4


def _up(x):
    return math.nextafter(x, math.inf)


@pytest.mark.parametrize("accepted,rejected", [
    (dict(pop_size=1, h_rep=TERM, h_att=0.0), dict(pop_size=1, h_rep=_up(TERM), h_att=0.0)),
    (dict(pop_size=2, h_rep=HALF, h_att=0.0), dict(pop_size=2, h_rep=_up(HALF), h_att=0.0)),
    # QUARTER + _up(QUARTER) still rounds to HALF; one step more does not
    (dict(pop_size=2, h_rep=QUARTER, h_att=-_up(QUARTER)),
     dict(pop_size=2, h_rep=QUARTER, h_att=-_up(_up(QUARTER)))),
    (dict(pop_size=2, h_rep=QUARTER, h_att=-QUARTER), dict(pop_size=3, h_rep=QUARTER, h_att=-QUARTER)),
    (dict(pop_size=2**1000, h_rep=0.0, h_att=0.0), dict(pop_size=10**400, h_rep=0.0, h_att=0.0)),
    # one generation and no swim: a placement and one move, 2 costs
    (dict(n_total=1, n_swim=0, pop_size=1, h_rep=LARGEST / 2, h_att=0.0),
     dict(n_total=1, n_swim=0, pop_size=1, h_rep=_up(LARGEST / 2), h_att=0.0)),
])
def test_swarming_heights_whose_term_overflows_are_rejected(accepted, rejected):
    BfaParams(**accepted)
    with pytest.raises(ConfigError, match="overflows"):
        BfaParams(**rejected)


def test_health_stays_finite_at_the_largest_accepted_heights():
    # at 2e307 every health sum of this run reached -inf by generation 3
    with pytest.raises(ConfigError, match="overflows"):
        BfaParams(n_total=20, pop_size=3, h_rep=2e307, h_att=0.0, w_att=0.0)
    params = BfaParams(n_total=20, pop_size=3, h_rep=LARGEST / (3 * 61), h_att=0.0, w_att=0.0)
    seen = []
    run_bfa(WEIGHTS, params, EngineConfig(kind=EngineKind.GAUSSIAN, seed=1),
            observer=lambda generation, swarm: seen.append(np.array(swarm.health)))
    assert len(seen) == 20
    assert all(np.isfinite(health).all() for health in seen)


@pytest.mark.parametrize("name", ["w_rep", "w_att"])
def test_a_width_whose_signal_overflows_at_the_cube_diagonal_is_rejected(name):
    # w * d must be finite at d = 4.0, the largest squared distance in the unit cube
    with pytest.raises(ConfigError, match=rf"{name}=1e\+308 overflows"):
        BfaParams(**{name: 1e308})
    with pytest.raises(ConfigError, match="overflows"):
        BfaParams(**{name: _up(LARGEST / 4)})
    assert getattr(BfaParams(**{name: LARGEST / 4}), name) == LARGEST / 4


@pytest.mark.parametrize("name", ["w_rep", "w_att"])
def test_the_largest_accepted_width_runs_a_generation_without_a_warning(name):
    params = BfaParams(n_total=1, pop_size=6, **{name: LARGEST / 4})
    config = EngineConfig(kind=EngineKind.GAUSSIAN, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_bfa(WEIGHTS, params, config)
    assert math.isfinite(result.best_f) and len(result.trace) == 1


# a swim path's running sum reaches its start plus n_swim + 1 steps; at the
# default n_swim = 5, 1.0 + 6 * (LARGEST / 6) already rounds past LARGEST
STEP = math.nextafter(LARGEST / 6, 0.0)


def test_a_step_whose_swim_path_overflows_is_rejected():
    with pytest.raises(ConfigError, match=r"step_size=1e\+308 overflows"):
        BfaParams(step_size=1e308)
    with pytest.raises(ConfigError, match="step_size=.* overflows"):
        BfaParams(step_size=_up(STEP))
    assert BfaParams(step_size=STEP).step_size == STEP


def test_the_largest_accepted_step_runs_a_generation_without_a_warning():
    params = BfaParams(n_total=1, pop_size=6, step_size=STEP)
    config = EngineConfig(kind=EngineKind.GAUSSIAN, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_bfa(WEIGHTS, params, config)
    assert math.isfinite(result.best_f) and len(result.trace) == 1


# -- initialization -----------------------------------------------------------


def test_initialize_draws_four_units_per_bacterium():
    params = BfaParams(pop_size=25)
    engine = StochasticEngine(EngineConfig(kind=EngineKind.GAUSSIAN, seed=9))
    swarm = _initialize([engine], params, sphere)
    assert swarm.theta.shape == (1, 25, 4)
    assert len(swarm.f_plain[0]) == len(swarm.health[0]) == len(swarm.moves[0]) == 25
    assert engine.draws == 100
    assert swarm.evaluations == [25]


def test_initialize_is_deterministic():
    params = BfaParams(pop_size=6)
    cfg = EngineConfig(kind=EngineKind.WEIBULL, seed=4)
    a = _initialize([StochasticEngine(cfg)], params, sphere)
    b = _initialize([StochasticEngine(cfg)], params, sphere)
    for name in ("theta", "f_plain", "health", "best_theta", "best_f"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_initialize_singleton_best_is_sole_member():
    params = BfaParams(pop_size=1)
    swarm = _initialize([StochasticEngine(EngineConfig(kind=EngineKind.GAMMA, seed=2))],
                        params, sphere)
    assert swarm.best_f == [swarm.f_plain[0][0]]
    assert np.array_equal(swarm.best_theta, swarm.theta[:, 0])


# -- tumble -------------------------------------------------------------------


def test_tumble_passes_through_an_already_unit_vector():
    # signed draws (1, 0, 0, 0) come from unit draws (1.0, 0.5, 0.5, 0.5)
    direction = _directions([ScriptedEngine([1.0, 0.5, 0.5, 0.5])], 1)[0, 0]
    assert direction.tolist() == [1.0, 0.0, 0.0, 0.0]


def test_tumble_normalizes_the_diagonal():
    direction = _directions([ScriptedEngine([1.0, 1.0, 1.0, 1.0])], 1)[0, 0]
    assert direction.tolist() == [0.5, 0.5, 0.5, 0.5]


def test_tumble_redraws_on_the_zero_vector():
    direction = _directions([ScriptedEngine([0.5, 0.5, 0.5, 0.5, 1.0, 0.5, 0.5, 0.5])], 1)[0, 0]
    assert direction.tolist() == [1.0, 0.0, 0.0, 0.0]


def test_tumble_is_unit_length():
    engine = StochasticEngine(EngineConfig(kind=EngineKind.CHAOTIC, seed=6))
    for _ in range(500):
        assert abs(float(np.linalg.norm(_directions([engine], 1)[0, 0])) - 1.0) <= 1e-12


@pytest.mark.parametrize("kind", list(EngineKind))
def test_directions_equal_one_tumble_at_a_time(kind):
    # the block's norms keep the bits of each row's own ``delta @ delta``
    block = StochasticEngine(EngineConfig(kind=kind, seed=11))
    alone = StochasticEngine(EngineConfig(kind=kind, seed=11))
    for size in (1, 2, 7, 25, 400):
        directions = _directions([block], size)[0]
        assert directions.shape == (size, 4)
        assert np.array_equal(directions, [_directions([alone], 1)[0, 0] for _ in range(size)])
    assert block.draws == alone.draws


# -- chemotaxis move ------------------------------------------------------------


def test_move_steps_along_the_axis():
    params = BfaParams(step_size=0.1, h_att=0.0, h_rep=0.0)
    swarm = small_swarm([(0.5, 0.5, 0.5, 0.5)], params)
    chemotaxis_move(0, np.array([1.0, 0.0, 0.0, 0.0]), swarm, sphere, params)
    assert swarm.theta[0, 0].tolist() == pytest.approx([0.6, 0.5, 0.5, 0.5], abs=1e-15)
    assert swarm.evaluations == [1]


def test_move_clamps_at_the_boundary():
    params = BfaParams(step_size=0.1, h_att=0.0, h_rep=0.0)
    swarm = small_swarm([(0.98, 0.5, 0.5, 0.5)], params)
    chemotaxis_move(0, np.array([1.0, 0.0, 0.0, 0.0]), swarm, sphere, params)
    assert swarm.theta[0, 0].tolist() == [1.0, 0.5, 0.5, 0.5]


def test_zero_step_leaves_position_and_cost_unchanged():
    # parameter objects forbid step 0, so exercise the op with a stand-in
    params = SimpleNamespace(step_size=0.0, swarming=False,
                             w_rep=10.0, w_att=0.2, h_rep=0.0, h_att=0.0)
    swarm = small_swarm([(0.25, 0.5, 0.5, 0.5)], params)
    before_cost = sphere_score(swarm.theta[0, 0])
    cost = chemotaxis_move(0, np.array([1.0, 0.0, 0.0, 0.0]), swarm, sphere, params)
    assert swarm.theta[0, 0].tolist() == [0.25, 0.5, 0.5, 0.5]
    assert cost == swarm.f_plain[0][0] == before_cost


def test_move_accumulates_health():
    params = BfaParams(step_size=0.05, h_att=0.0, h_rep=0.0)
    swarm = small_swarm([(0.5, 0.5, 0.5, 0.5)], params)
    first = chemotaxis_move(0, np.array([0.0, 1.0, 0.0, 0.0]), swarm, sphere, params)
    second = chemotaxis_move(0, np.array([0.0, 1.0, 0.0, 0.0]), swarm, sphere, params)
    assert swarm.health[0][0] == first + second


# -- swarming term ---------------------------------------------------------------


def test_swarming_cancels_when_all_bacteria_coincide():
    params = BfaParams()
    swarm = small_swarm([(0.3, 0.3, 0.3, 0.3)] * 7, params)
    assert potential_at(swarm.theta[0, 0], swarm, params, 0) == 0.0


def test_swarming_single_member_hand_value():
    params = BfaParams()  # heights 0.1, widths 0.2 and 10
    # bacterium 1 stands at squared distance 1 from the other; at its own
    # zero distance its two equal heights cancel
    swarm = small_swarm([(0.0, 0.0, 0.0, 0.0), (0.5, 0.5, 0.5, 0.5)], params)
    theta = np.array([1.0, 0.0, 0.0, 0.0])
    expected = -0.1 * math.exp(-0.2) + 0.1 * math.exp(-10.0)
    assert potential_at(theta, swarm, params, 1) == pytest.approx(expected, rel=1e-12)


def test_swarming_zero_heights_zero_term():
    params = BfaParams(h_att=0.0, h_rep=0.0)
    swarm = small_swarm([(0.1, 0.2, 0.3, 0.4), (0.9, 0.8, 0.7, 0.6)], params)
    assert potential_at(np.array([0.5, 0.5, 0.5, 0.5]), swarm, params, 0) == 0.0


@pytest.mark.parametrize("kind", list(EngineKind))
def test_run_without_swarming_equals_a_run_with_a_zero_term(kind, monkeypatch):
    # reproductions at generations 3, 6 and 9, a dispersal at 6; zero heights
    # skip the term, which must give the run that computes it at every point
    params = BfaParams(n_total=12, pop_size=6, n_chemo=3, n_repro=2, p_elim=0.5,
                       h_att=0.0, h_rep=0.0)
    assert not params.swarming
    for seed in (1, 2):
        config = EngineConfig(kind=kind, seed=seed)
        off = run_bfa(WEIGHTS, params, config)
        with monkeypatch.context() as m:
            m.setattr(BfaParams, "swarming", True)
            zero = run_bfa(WEIGHTS, params, config)
        assert repr(off) == repr(zero)


def test_swarming_is_on_unless_both_heights_are_zero():
    assert BfaParams().swarming and BfaParams(h_att=0.0).swarming and BfaParams(h_rep=-1.0).swarming
    assert not BfaParams(h_att=0.0, h_rep=-0.0).swarming
    with pytest.raises(TypeError):
        BfaParams(swarming=False)
    # the largest array holds a swim path's worth of points per bacterium,
    # as the block of swim paths and as the swarming term's squared differences
    params = BfaParams(pop_size=25, n_swim=5, h_att=0.0, h_rep=0.0)
    assert bfa._run_floats(params) == 25 * (5 + 2) * 4
    assert bfa._run_floats(replace(params, h_att=0.1)) == 4 * 25 * (5 + 2)


@pytest.mark.parametrize("size", [1, 2, 5, 8, 9, 25])
def test_path_potentials_equal_swarming_term_at_each_point(size):
    # the batch stands bacterium i at each path point in turn; numpy sums 8
    # or more values pairwise, so sizes on both sides of 8 are covered
    params = BfaParams(step_size=0.3, n_swim=6)
    rng = np.random.default_rng(size)
    swarm = small_swarm(rng.random((size, 4)), params)
    engine = StochasticEngine(EngineConfig(kind=EngineKind.GAMMA, seed=size))
    for i in range(size):
        path = _swim_path(swarm.theta[:, i], _directions([engine], 1)[0], params)[0]
        assert ((path[1:] == 0.0) | (path[1:] == 1.0)).any()  # the swim reaches a face
        points = np.broadcast_to(path, (1, size) + path.shape)
        potentials = _swarming_term(params, points, swarm.theta)(i)[0]
        assert potentials.shape == (len(path),)
        for point, potential in zip(path, potentials):
            moved = small_swarm(swarm.theta[0], params)
            moved.theta[0, i] = point
            assert potential == potential_at(point, moved, params, i)


def reference_potentials(points, theta, params, i=None):
    """The swarming term at ``points`` (B, K, 4) against ``theta`` (B, S, 4),
    as it was computed before it had work buffers:
    transposed inputs, ``np.multiply.outer`` on a tuple of widths and one
    height multiply per signal, each array allocated by its own call."""
    if not params.swarming:
        return np.zeros(points.shape[:2])
    squares = np.subtract(theta.transpose(2, 0, 1)[:, :, None, :],
                          points.transpose(2, 0, 1)[:, :, :, None], order="C")
    squares *= squares
    d = np.add.reduce(squares, axis=0)
    del squares
    if i is not None:
        d[:, :, i] = 0.0
    signals = np.multiply.outer((-params.w_att, -params.w_rep), d)
    np.exp(signals, out=signals)
    signals[0] *= -params.h_att
    signals[1] *= params.h_rep
    attract, repel = np.add.reduce(signals, axis=3)
    return attract + repel


def bits(values):
    return np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("batch", [1, 3, 16])
@pytest.mark.parametrize("size", [1, 7, 8, 9, 25])
def test_buffered_potentials_equal_the_unbuffered_reference_bit_for_bit(batch, size):
    # sizes on both sides of 8, where numpy's sum turns pairwise; one term
    # serves consecutive calls with different i, as in a generation, so a
    # column zeroed by an earlier call would show in a later one
    for heights in [(0.0, 0.0), (0.1, 0.1), (-0.3, 2.5)]:
        params = BfaParams(pop_size=size, h_att=heights[0], h_rep=heights[1])
        for count in sorted({1, params.n_swim + 2, size}):
            rng = np.random.default_rng([batch, size, count])
            theta = rng.random((batch, size, 4))
            points = rng.random((batch, size, count, 4))
            points[:, :, 0] = theta[:, :1]  # zero distance to a member
            points[:, :, -1, :2] = (0.0, 1.0)  # on two faces of the cube
            term = _swarming_term(params, points, theta)
            for i in [*range(size), *reversed(range(size))]:
                expected = bits(reference_potentials(points[:, i], theta, params, i))
                assert expected.shape == (batch, count)
                assert np.array_equal(bits(term(i)), expected), (heights, count, i)


@pytest.mark.parametrize("heights", [(0.0, 0.0), (0.1, 0.1), (-0.3, 2.5)],
                         ids=["off", "equal", "unequal"])
def test_a_term_on_strided_and_broadcast_inputs_equals_the_reference_bit_for_bit(heights):
    # the term reads flat and transposed views of its inputs; theta here is
    # every other bacterium of a larger swarm, and the points are either one
    # path per run broadcast to every bacterium or theta itself
    params = BfaParams(pop_size=9, h_att=heights[0], h_rep=heights[1])
    rng = np.random.default_rng(32)
    theta = rng.random((3, 18, 4))[:, ::2]
    assert not theta.flags.c_contiguous
    paths = np.broadcast_to(rng.random((3, 1, 7, 4)), (3, 9, 7, 4))
    for points in (paths, theta[:, :, None]):
        term = _swarming_term(params, points, theta)
        for i in [0, 4, 8]:
            expected = bits(reference_potentials(points[:, i], theta, params, i))
            assert np.array_equal(bits(term(i)), expected), (points.shape, i)


@pytest.mark.parametrize("heights", [(0.1, 0.1), (-0.3, 2.5)])
def test_a_term_follows_writes_to_theta_and_points_between_calls(heights):
    # a generation's swims write theta between calls, and a dispersal writes
    # a fresh position into theta, which is also its points, before term(i)
    params = BfaParams(pop_size=9, h_att=heights[0], h_rep=heights[1])
    rng = np.random.default_rng(20)
    theta = rng.random((3, 9, 4))
    points = rng.random((3, 9, 7, 4))
    term = _swarming_term(params, points, theta)
    dispersal = _swarming_term(params, theta[:, :, None], theta)
    for i in [0, 4, 8, 4]:
        theta[:, rng.integers(9)] = rng.random((3, 4))
        points[:, i] = rng.random((7, 4))
        expected = bits(reference_potentials(points[:, i], theta, params, i))
        assert np.array_equal(bits(term(i)), expected), i
        theta[:, i] = rng.random((3, 4))
        expected = bits(reference_potentials(theta[:, i : i + 1], theta, params, i))
        assert np.array_equal(bits(dispersal(i)), expected), i


@pytest.mark.parametrize("step", [0.05, 0.3, 0.9])
def test_swim_path_equals_iterated_clamp(step):
    params = BfaParams(step_size=step, n_swim=12)
    rng = np.random.default_rng(int(step * 100))
    engine = StochasticEngine(EngineConfig(kind=EngineKind.WEIBULL, seed=2))
    starts = [rng.random(4) for _ in range(40)] + [np.array([0.0, 1.0, 0.98, 0.02])]
    faces = 0
    for start in starts:
        direction = _directions([engine], 1)[0, 0]
        path = _swim_path(start[None], direction[None], params)[0]
        expected = [start]
        for _ in range(params.n_swim + 1):
            expected.append(np.clip(expected[-1] + params.step_size * direction, 0.0, 1.0))
        assert np.array_equal(path, np.array(expected))
        faces += bool(((path == 0.0) | (path == 1.0)).any())
    assert faces > 0


# -- generation ------------------------------------------------------------------


def test_generation_with_swim_disabled_takes_one_move_each():
    params = BfaParams(pop_size=5, n_swim=0, h_att=0.0, h_rep=0.0)
    engine = StochasticEngine(EngineConfig(kind=EngineKind.GAUSSIAN, seed=3))
    swarm = _initialize([engine], params, sphere)
    (evals_before,) = swarm.evaluations
    _generation(swarm, [engine], sphere, params)
    assert swarm.moves == [[1] * 5]
    assert swarm.evaluations == [evals_before + 5]
    assert swarm.trace == [swarm.best_f]


def test_swim_stops_after_a_worsening_first_move():
    params = BfaParams(pop_size=1, n_swim=5, h_att=0.0, h_rep=0.0)
    engine = StochasticEngine(EngineConfig(kind=EngineKind.GAUSSIAN, seed=3))

    calls = {"n": 0}

    def decreasing_score(u):
        calls["n"] += 1
        return float(-calls["n"])  # every point is worse than the one scored before it

    swarm = _initialize([engine], params, block(decreasing_score))
    _generation(swarm, [engine], block(decreasing_score), params)
    assert swarm.moves == [[1]]
    assert swarm.evaluations == [2]


@pytest.mark.parametrize("swarming", [True, False])
def test_committed_points_match_the_stepwise_swim(monkeypatch, swarming):
    # the batched swim commits exactly the positions the one-move-at-a-time
    # swim commits, in the same order, once per counted evaluation
    heights = 0.1 if swarming else 0.0
    params = BfaParams(n_total=12, pop_size=9, n_chemo=4, n_repro=2, step_size=0.2,
                       h_att=heights, h_rep=heights)
    assert params.swarming is swarming
    config = EngineConfig(kind=EngineKind.WEIBULL, seed=4)
    # linear with its maximum at a vertex, so swims run into faces
    score = block(lambda u: float(u[0] + 2.0 * u[1] - u[2] + 0.5 * u[3]))
    swim = bfa._swim

    def recorded_run():
        committed = []

        def recording_swim(b, i, path, values, potentials, previous, swarm):
            taken = swim(b, i, path, values, potentials, previous, swarm)
            committed.extend(path[:taken].tolist())
            return taken

        monkeypatch.setattr(bfa, "_swim", recording_swim)
        return run_batch(score, params, [config])[0], committed

    def stepwise_batch(swarm, engines, score, params):
        (engine,) = engines
        stepwise_generation(swarm, engine, score, params)

    batched, batched_points = recorded_run()
    monkeypatch.setattr(bfa, "_generation", stepwise_batch)
    stepwise, stepwise_points = recorded_run()
    assert len(batched_points) == batched.evaluations
    assert batched_points == stepwise_points
    assert batched == stepwise


def test_generation_redraws_a_zero_row_where_a_lone_tumble_would(monkeypatch):
    # an all-0.5 row of four draws is a zero direction. Run 0 redraws twice:
    # bacterium 1 in the generation's block and bacterium 4 in the block that
    # redraws it; run 1 redraws once, for bacterium 3; run 2 never redraws
    params = BfaParams(pop_size=5)
    rng = np.random.default_rng(9)

    def rows(*zero):
        return [u for row in range(len(zero)) for u in
                ([0.5] * 4 if zero[row] else [rng.random() for _ in range(4)])]

    scripts = [rows(0, 1, 0, 0, 0, 1, 0), rows(0, 0, 0, 1, 0, 0)]
    normal = EngineConfig(kind=EngineKind.GAMMA, seed=4)
    start = rng.random((3, 5, 4))

    def engines():
        return [ScriptedEngine(scripts[0]), ScriptedEngine(scripts[1]), StochasticEngine(normal)]

    expected = []
    for b, (tumbler, block, swimmer) in enumerate(zip(engines(), engines(), engines())):
        directions = np.array([_directions([tumbler], 1)[0, 0] for _ in range(params.pop_size)])
        assert np.array_equal(_directions([block], params.pop_size)[0], directions)
        assert block.draws == tumbler.draws
        swarm = small_swarm(start[b], params)
        stepwise_generation(swarm, swimmer, sphere, params)
        assert swimmer.draws == tumbler.draws
        expected.append((directions, swarm.theta[0], swarm.moves[0], tumbler.draws))
    assert [draws for *_, draws in expected] == [28, 24, 20]

    batch = engines()
    together = _directions(batch, params.pop_size)
    assert [engine.draws for engine in batch] == [28, 24, 20]
    for b, (directions, *_) in enumerate(expected):
        assert np.array_equal(together[b], directions)

    seen = []

    def spy(start, direction, params):
        seen.append(direction.copy())
        return _swim_path(start, direction, params)

    monkeypatch.setattr(bfa, "_swim_path", spy)
    swarm = small_batch(start)
    batch = engines()
    bfa._generation(swarm, batch, sphere, params)
    assert len(seen) == 1  # every path of the generation comes from one call
    for b, (directions, positions, moves, draws) in enumerate(expected):
        assert np.array_equal(seen[0][b], directions)
        assert np.array_equal(swarm.theta[b], positions)
        assert swarm.moves[b] == moves
        assert batch[b].draws == draws


@pytest.mark.parametrize("kind", list(EngineKind))
def test_generation_never_draws_ahead_of_its_tumbles(kind):
    # dispersal continues the stream, so a generation takes exactly its 4 S draws
    config = EngineConfig(kind=kind, seed=21)
    params = BfaParams(pop_size=7)
    swarm = small_swarm(np.random.default_rng(2).random((7, 4)), params)
    engine = StochasticEngine(config)
    _generation(swarm, [engine], sphere, params)
    assert engine.draws == 4 * params.pop_size
    fresh = StochasticEngine(config)
    stream = [fresh.sample_unit() for _ in range(4 * params.pop_size + 1)]
    assert engine.sample_unit() == stream[-1]


def test_swim_bound_is_never_exceeded():
    params = BfaParams(pop_size=8, n_swim=3, h_att=0.0, h_rep=0.0)
    engine = StochasticEngine(EngineConfig(kind=EngineKind.WEIBULL, seed=12))
    swarm = _initialize([engine], params, sphere)
    for _ in range(20):
        _generation(swarm, [engine], sphere, params)
        assert all(1 <= m <= params.n_swim + 1 for m in swarm.moves[0])


def test_trace_grows_by_one_per_generation():
    params = BfaParams(pop_size=4, h_att=0.0, h_rep=0.0)
    engine = StochasticEngine(EngineConfig(kind=EngineKind.GAMMA, seed=8))
    swarm = _initialize([engine], params, sphere)
    for expected_len in range(1, 11):
        _generation(swarm, [engine], sphere, params)
        assert len(swarm.trace[0]) == expected_len


# -- reproduction ----------------------------------------------------------------


def ranked_rows(health):
    """The rows one run keeps: survivors by (-health, position), then clones of the leading ones."""
    size = len(health)
    ranked = sorted(range(size), key=lambda i: (-health[i], i))
    keep = (size + 1) // 2
    return ranked[:keep] + ranked[: size - keep]


def test_reproduce_even_population():
    # each run of the batch ranks its own row: descending, ascending, all equal
    swarm = small_batch([[(0.1,) * 4, (0.2,) * 4, (0.3,) * 4, (0.4,) * 4]] * 3)
    swarm.health = [[10.0, 9.0, 1.0, 0.0], [0.0, 1.0, 9.0, 10.0], [5.0] * 4]
    _reproduce(swarm)
    assert swarm.theta.shape == (3, 4, 4)
    assert swarm.theta[..., 0].tolist() == [[0.1, 0.2, 0.1, 0.2], [0.4, 0.3, 0.4, 0.3],
                                            [0.1, 0.2, 0.1, 0.2]]
    assert swarm.f_plain == [[sphere_score(t) for t in row] for row in swarm.theta]
    assert swarm.health == [[0.0] * 4] * 3


def test_reproduce_odd_population_keeps_ceil_half():
    swarm = small_batch([[(i / 25.0,) * 4 for i in range(25)]] * 3)
    # bacterium 24 is healthiest in run 0, bacterium 0 in run 1; run 2 ties in fives
    health = [np.arange(25.0).tolist(), (-np.arange(25.0)).tolist(), [i % 5 / 2 for i in range(25)]]
    swarm.health = [list(row) for row in health]
    _reproduce(swarm)
    assert swarm.theta.shape == (3, 25, 4)
    survivors = [[tuple(t) for t in row[:13]] for row in swarm.theta]
    clones = [[tuple(t) for t in row[13:]] for row in swarm.theta]
    assert survivors[0] == [((24 - i) / 25.0,) * 4 for i in range(13)]
    assert survivors[1] == [(i / 25.0,) * 4 for i in range(13)]
    assert [t[0] for t in survivors[2] + clones[2]] == [i / 25.0 for i in ranked_rows(health[2])]
    assert all(clones[b] == survivors[b][:12] for b in range(3))


def test_reproduce_breaks_ties_by_position():
    # mixed ties, the same ties reversed, and one row all equal, at odd sizes;
    # f_plain holds labels, not scores, so it must move with theta
    mixed = [2.0, -1.0, 2.0, 0.0, -1.0, 2.0, 0.0]
    for size in (5, 7):
        health = [mixed[:size], mixed[:size][::-1], [5.0] * size]
        positions = np.random.default_rng(size).random((3, size, 4))
        swarm = small_batch(positions)
        swarm.f_plain = [[100.0 * b + i for i in range(size)] for b in range(3)]
        swarm.health = [list(row) for row in health]
        _reproduce(swarm)
        for b in range(3):
            rows = ranked_rows(health[b])
            assert np.array_equal(swarm.theta[b], positions[b, rows])
            assert swarm.f_plain[b] == [100.0 * b + i for i in rows]
            assert swarm.health[b] == [0.0] * size
        keep = (size + 1) // 2
        assert ranked_rows(health[2]) == [*range(keep), *range(size - keep)]


def test_clones_are_independent_copies():
    swarm = small_batch([[(0.5,) * 4, (0.6,) * 4, (0.7,) * 4]] * 3)
    swarm.health = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    _reproduce(swarm)
    assert swarm.theta[:, :, 0].tolist() == [[0.5, 0.6, 0.5], [0.6, 0.5, 0.6], [0.7, 0.5, 0.7]]
    swarm.theta[:, 0, 0] = 0.123
    swarm.f_plain[0][0] = swarm.health[0][0] = 0.123
    assert swarm.theta[:, 2, 0].tolist() == [0.5, 0.6, 0.7]
    assert swarm.f_plain[0][2] != 0.123
    assert [row[0] for row in swarm.health[1:]] == [0.0, 0.0]


# -- elimination-dispersal ---------------------------------------------------------


def dispersal_batch(p_elim):
    """A swarming batch of one run per engine kind, placed, with a score that logs its blocks."""
    params = BfaParams(pop_size=5, p_elim=p_elim)
    engines = [StochasticEngine(EngineConfig(kind=kind, seed=21)) for kind in EngineKind]
    shapes = []

    def score(points):
        shapes.append(points.shape)
        return sphere(points)

    swarm = _initialize(engines, params, score)
    shapes.clear()
    return params, engines, score, shapes, swarm


def state(swarm):
    """Every field of ``swarm`` as plain values, compared exactly by ``==``."""
    return (swarm.theta.tolist(), swarm.best_theta.tolist(), swarm.f_plain, swarm.health,
            swarm.moves, swarm.best_f, swarm.evaluations, swarm.trace)


def test_dispersal_probability_zero_is_a_no_op():
    params, engines, score, shapes, swarm = dispersal_batch(0.0)
    before = copy.deepcopy(state(swarm))
    draws = [engine.draws for engine in engines]
    _disperse(swarm, engines, score, params)
    assert shapes == []  # a dispersal that moves nobody scores nothing
    assert [engine.draws for engine in engines] == [n + 5 for n in draws]  # one decision each
    assert state(swarm) == before


def test_dispersal_probability_one_redraws_everyone():
    params, engines, score, shapes, swarm = dispersal_batch(1.0)
    before = copy.deepcopy(swarm)
    draws = [engine.draws for engine in engines]
    _disperse(swarm, engines, score, params)
    assert shapes == [(4, 5, 1, 4)]  # one block for the whole dispersal
    # a decision draw, then four position draws, per bacterium
    assert [engine.draws for engine in engines] == [n + 5 * 5 for n in draws]
    assert swarm.theta.shape == (4, 5, 4)
    assert swarm.evaluations == [n + 5 for n in before.evaluations]
    for b in range(4):
        for i in range(5):
            assert not np.array_equal(before.theta[b, i], swarm.theta[b, i])
            # one cost, against the run's swarm as it stands at index i: the
            # bacteria before i dispersed, the rest not yet
            standing = np.concatenate([swarm.theta[b, : i + 1], before.theta[b, i + 1 :]])[None]
            potential = _swarming_term(params, standing[:, :, None], standing)(i)[0, 0]
            assert swarm.f_plain[b][i] == sphere_score(swarm.theta[b, i])
            cost = swarm.f_plain[b][i] - potential
            assert bits(swarm.health[b][i]) == bits(before.health[b][i] + cost)


def test_dispersal_never_erases_the_archive():
    params = BfaParams(pop_size=5, p_elim=1.0, h_att=0.0, h_rep=0.0)
    engine = StochasticEngine(EngineConfig(kind=EngineKind.GAUSSIAN, seed=21))
    swarm = _initialize([engine], params, sphere)
    (best_before,) = swarm.best_f
    _disperse(swarm, [engine], sphere, params)
    assert swarm.best_f[0] >= best_before


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
    params = BfaParams(n_total=30, pop_size=9)
    sizes, thetas_ok, swim_ok = [], [], []

    def watch(_, swarm):
        sizes.append((swarm.theta.shape, swarm.best_theta.shape,
                      *([len(row) for row in rows] for rows in (swarm.f_plain, swarm.health,
                                                                swarm.moves))))
        thetas_ok.append(float(swarm.theta.min()) >= 0.0 and float(swarm.theta.max()) <= 1.0)
        swim_ok.append(all(1 <= m <= params.n_swim + 1 for row in swarm.moves for m in row))

    run_batch(unit_block_scorer([WEIGHTS] * 3), params,
              [EngineConfig(kind=EngineKind.WEIBULL, seed=55 + b) for b in range(3)],
              observer=watch)
    assert sizes == [((3, 9, 4), (3, 4), [9] * 3, [9] * 3, [9] * 3)] * 30
    assert all(thetas_ok) and all(swim_ok)


def test_engine_draws_replay_exactly():
    params = BfaParams(pop_size=7, h_att=0.0, h_rep=0.0)
    counts = []
    for _ in range(2):
        engine = StochasticEngine(EngineConfig(kind=EngineKind.GAUSSIAN, seed=17))
        swarm = _initialize([engine], params, sphere)
        for _ in range(12):
            _generation(swarm, [engine], sphere, params)
        _disperse(swarm, [engine], sphere, params)
        counts.append(engine.draws)
    assert counts[0] == counts[1]


def test_swarming_disabled_means_cost_equals_plain_objective():
    # the term is zero everywhere, and f - 0.0 is f for every float
    params = BfaParams(n_total=10, pop_size=6, h_att=0.0, h_rep=0.0)
    engine = StochasticEngine(EngineConfig(kind=EngineKind.GAUSSIAN, seed=10))
    score = unit_block_scorer([WEIGHTS])
    swarm = _initialize([engine], params, score)
    costs, plains = [], []
    for _ in range(params.n_total):
        for i, direction in enumerate(_directions([engine], params.pop_size)[0]):
            costs.append(chemotaxis_move(i, direction, swarm, score, params))
            plains.append(swarm.f_plain[0][i])
    assert np.array_equal(bits(costs), bits(plains))


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
@pytest.mark.parametrize("size", [1, 2, 3, 8, 16])
def test_every_run_of_a_lockstep_batch_equals_the_run_alone(size, heights, pop):
    # three reproductions and a dispersal followed by one in 7 generations,
    # mixed engine kinds, weights and seeds; a batch's result must not
    # depend on its neighbours. Strong swarming signals make a swarming
    # term taken from the wrong run change gates and health ranks; at 16,
    # the sweep's largest batch, every run has its own weights, so a score
    # taken from the wrong run's coefficients changes its path too.
    params = BfaParams(n_total=7, pop_size=pop, n_chemo=2, n_repro=2, p_elim=0.5,
                       h_att=heights or 0.0, h_rep=heights or 0.0)
    weights = [WeightVector(0.7, 0.1, 0.1, 0.1), WeightVector(0.1, 0.2, 0.3, 0.4),
               WeightVector(0.25, 0.25, 0.25, 0.25)]
    if size == 16:
        weights += generate_weights(0.1, 0.1)[::6][:13]
    kinds = list(EngineKind)
    runs = [(weights[b % len(weights)], EngineConfig(kind=kinds[(b + size) % 4],
                                                     seed=1000 * size + b))
            for b in range(size)]
    if size == 16:
        assert len({w for w, _ in runs}) == 16
    batch = run_batch(unit_block_scorer([w for w, _ in runs]), params, [c for _, c in runs])
    assert len(batch) == size
    for result, (w, config) in zip(batch, runs):
        assert repr(result) == repr(replace(run_bfa(w, params, config), best_decision=None,
                                            best_objectives=None))


def test_a_model_batch_scores_each_placement_and_generation_in_one_call(monkeypatch):
    # one block call for the whole batch at the initial placement, one per
    # generation, and one (B, S, 1, 4) block for the dispersal after
    # generation 4, which moves some bacteria
    params = BfaParams(n_total=5, pop_size=6, n_chemo=2, n_repro=2)
    shapes, decisions = [], []
    sample_unit = StochasticEngine.sample_unit

    def recording_sample_unit(engine):
        decisions.append(sample_unit(engine))
        return decisions[-1]

    def counting_block_scorer(weights):
        block = unit_block_scorer(weights)

        def score(points):
            shapes.append(points.shape)
            return block(points)

        return score

    monkeypatch.setattr(bfa, "unit_block_scorer", counting_block_scorer)
    monkeypatch.setattr(StochasticEngine, "sample_unit", recording_sample_unit)
    weights = [WEIGHTS, WeightVector(0.4, 0.3, 0.2, 0.1), WeightVector(0.1, 0.1, 0.1, 0.7)]
    configs = [EngineConfig(kind=kind, seed=5) for kind in list(EngineKind)[:3]]
    run_batch(bfa.unit_block_scorer(weights), params, configs)
    # the only single draws are the dispersal decisions
    assert len(decisions) == 3 * params.pop_size
    assert 0 < sum(u < params.p_elim for u in decisions) < 3 * params.pop_size
    generation = (3, 6, params.n_swim + 1, 4)
    assert shapes == [(3, 6, 1, 4)] + [generation] * 4 + [(3, 6, 1, 4)] + [generation]


def test_run_batch_on_the_model_block_scorer_equals_run_bfa():
    params = BfaParams(n_total=9, pop_size=7, n_chemo=3, n_repro=2, p_elim=0.5)
    config = EngineConfig(kind=EngineKind.GAMMA, seed=8)
    custom = run_batch(unit_block_scorer([WEIGHTS]), params, [config])[0]
    assert custom == replace(run_bfa(WEIGHTS, params, config), best_decision=None,
                             best_objectives=None)


def test_a_custom_score_gets_one_block_per_placement_generation_and_dispersal(monkeypatch):
    # a custom scorer sees float64 arrays of unit points whose last axis is
    # 4: one call at the placement, one per generation, and one per
    # dispersal that moves a bacterium; the dispersals after generations 4,
    # 8 and 12 move some bacteria and none
    params = BfaParams(n_total=13, pop_size=6, n_chemo=2, n_repro=2, p_elim=0.1)
    shapes, decisions = [], []
    sample_unit = StochasticEngine.sample_unit

    def recording_sample_unit(engine):
        decisions.append(sample_unit(engine))
        return decisions[-1]

    def score(points):
        assert type(points) is np.ndarray and points.dtype == np.float64
        assert points.shape[-1] == 4
        shapes.append(points.shape)
        return sphere(points)

    monkeypatch.setattr(StochasticEngine, "sample_unit", recording_sample_unit)
    run_batch(score, params, [EngineConfig(kind=EngineKind.CHAOTIC, seed=3)])
    # the only single draws are the dispersal decisions, one per bacterium
    assert len(decisions) == 3 * params.pop_size
    moving = [min(decisions[k : k + 6]) < params.p_elim for k in range(0, len(decisions), 6)]
    assert True in moving and False in moving
    generation = (1, 6, params.n_swim + 1, 4)
    want = [(1, 6, 1, 4)]
    for g in range(1, params.n_total + 1):
        want.append(generation)
        if g % 4 == 0 and moving[g // 4 - 1]:
            want.append((1, 6, 1, 4))
    assert shapes == want


def test_lockstep_observer_sees_each_run_as_alone():
    params = BfaParams(n_total=6, pop_size=6, n_chemo=2, n_repro=1, p_elim=0.5)
    runs = [(WeightVector(0.1, 0.1, 0.1, 0.7), EngineConfig(kind=kind, seed=3)) for kind in EngineKind]

    def recorder(log):
        return lambda generation, swarm: log.append((generation, [
            (swarm.theta[b].tolist(), list(swarm.f_plain[b]), list(swarm.health[b]),
             swarm.best_f[b], swarm.evaluations[b], list(swarm.moves[b]))
            for b in range(len(swarm.theta))]))

    together = []
    run_batch(unit_block_scorer([w for w, _ in runs]), params, [c for _, c in runs],
              observer=recorder(together))
    # the batch reports once per generation, every run in its own row
    assert [generation for generation, _ in together] == list(range(1, params.n_total + 1))
    for b, (w, config) in enumerate(runs):
        alone = []
        run_bfa(w, params, config, observer=recorder(alone))
        assert [(generation, rows[0]) for generation, rows in alone] == \
            [(generation, rows[b]) for generation, rows in together]


def test_batch_needs_one_engine_config_per_weight_vector():
    with pytest.raises(ConfigError, match=r"shape \(1, 2, 1\) .* got shape \(2, 2, 1\)"):
        run_batch(unit_block_scorer([WEIGHTS, WEIGHTS]), BfaParams(n_total=1, pop_size=2),
                  [EngineConfig(kind=EngineKind.GAUSSIAN, seed=1)])


def test_a_swim_too_long_for_memory_is_rejected_before_any_allocation():
    # (n_swim + 2) * S * 4 float64s per swarming call would need 6.4 GB
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="n_swim=100000000"):
            run_batch(sphere, BfaParams(n_total=2, pop_size=2, n_swim=10**8),
                      [EngineConfig(kind=EngineKind.GAUSSIAN, seed=1)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_potentials_peak_stays_near_the_largest_array():
    # the (2, 1, 1000, 1000) signals and their sums are written into the
    # (4, 1, 1000, 1000) buffer of squared differences
    theta = np.random.default_rng(3).random((1, 1000, 4))
    points = np.broadcast_to(theta[:, None], (1, 1000, 1000, 4))  # each bacterium's points: the swarm
    largest = 4 * 1000 * 1000 * 8
    tracemalloc.start()
    try:
        _swarming_term(BfaParams(pop_size=1000), points, theta)(0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * largest


@pytest.mark.parametrize("heights,parent_peak", [(0.1, 3.503), (0.0, 2.752)],
                         ids=["swarming", "off"])
def test_a_model_run_peaks_no_higher_than_with_buffers_made_per_call(heights, parent_peak):
    # a generation keeps its swarming-term buffers from its first call to its
    # last, beside its swim paths and their scores; parent_peak is the traced
    # peak, over the largest array, when every call made and freed its own
    # (3.5028 and 2.7517 on CPython 3.11 and numpy 2.4)
    params = BfaParams(n_total=1, pop_size=4, n_swim=2**15, h_att=heights, h_rep=heights)
    largest = 8 * bfa._run_floats(params)
    tracemalloc.start()
    try:
        run_bfa(WEIGHTS, params, EngineConfig(kind=EngineKind.GAUSSIAN, seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= parent_peak * largest


@pytest.mark.parametrize("fields,runs", [
    # 4 * (n_swim + 2) * S with swarming, the (4, B, n_swim + 2, S) squared
    # differences; without, the generation's (B, S, n_swim + 2, 4) block of
    # swim paths, the same count
    (dict(pop_size=2, n_swim=2**24 - 2), 1),
    (dict(pop_size=2, n_swim=2**24 - 1), 0),
    (dict(pop_size=2, n_swim=2**24 - 2, h_att=0.0, h_rep=0.0), 1),
    (dict(pop_size=2, n_swim=2**24 - 1, h_att=0.0, h_rep=0.0), 0),
    # with swarming too, at the default n_swim: 4 * 7 * 4793490 <= 2**27 < 4 * 7 * 4793491
    (dict(pop_size=4793490), 1),
    (dict(pop_size=4793491), 0),
    # S multiplies the path length: 4 * S * 2 at n_swim = 0
    (dict(pop_size=2**24, n_swim=0, h_att=0.0, h_rep=0.0), 1),
    (dict(pop_size=2**24 + 1, n_swim=0, h_att=0.0, h_rep=0.0), 0),
    (dict(), 2**27 // (4 * 25 * 7)),
    # one run fitted while each tumble built only its own path; its block
    # of swim paths alone now exceeds 2**27 float64s
    (dict(pop_size=2, n_swim=2**25 - 2, h_att=0.0, h_rep=0.0), 0),
    (dict(pop_size=2**25, h_att=0.0, h_rep=0.0), 0),
])
def test_batch_limit_counts_the_largest_array(fields, runs):
    assert bfa._batch_limit(BfaParams(**fields)) == runs


def test_a_batch_too_large_for_memory_is_rejected_before_any_draw(monkeypatch):
    params = BfaParams(n_total=2, pop_size=4)  # 4 * 7 * 4 = 112 float64s per run
    monkeypatch.setattr(bfa, "_MAX_ARRAY_FLOATS", 2 * 112)
    monkeypatch.setattr(bfa, "StochasticEngine", None)  # a draw would fail on it
    with pytest.raises(ConfigError, match="336 float64s .* 3 run"):
        run_batch(unit_block_scorer([WEIGHTS] * 3), params,
                  [EngineConfig(kind=EngineKind.GAUSSIAN, seed=s) for s in range(3)])


def test_custom_objective_hill_climb():
    params = BfaParams(n_total=30, h_att=0.0, h_rep=0.0)
    for kind in (EngineKind.GAUSSIAN, EngineKind.WEIBULL):
        result = run_batch(sphere, params, [EngineConfig(kind=kind, seed=1)])[0]
        assert result.best_f >= -0.01
        assert result.best_decision is None and result.best_objectives is None


def test_run_without_a_finite_best_value_is_a_domain_error():
    with pytest.raises(DomainError):
        run_batch(lambda points: np.full(points.shape[:-1], math.nan), BfaParams(n_total=3, pop_size=4),
                  [EngineConfig(kind=EngineKind.GAUSSIAN, seed=1)])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_score_non_finite_at_some_points_is_a_domain_error(bad):
    # raised at the call that made the value: a NaN bacterium's health
    # would sort it last at reproduction, with a finite best value
    def score(points):
        return np.where(points[..., 0] > 0.5, bad, -np.sum(points * points, axis=-1))

    with pytest.raises(DomainError, match=r"at unit point \[(0\.[5-9]|1\.0).*must be finite"):
        run_batch(score, BfaParams(n_total=3), [EngineConfig(kind=EngineKind.GAUSSIAN, seed=1)])


@pytest.mark.parametrize("score,message", [
    (lambda points: -1.0, r"\(1, 4, 1\) .* got a float"),
    (lambda points: sphere(points).tolist(), r"\(1, 4, 1\) .* got a list"),
    (lambda points: sphere(points)[..., None], r"\(1, 4, 1\) .* got shape \(1, 4, 1, 1\)"),
    (lambda points: np.zeros(points.shape[:-1], dtype=np.int64), r"\(1, 4, 1\) .* dtype int64"),
    (lambda points: sphere(points).astype(np.float32), r"\(1, 4, 1\) .* dtype float32"),
    # right at the placement, one value short along each swim path of the generation
    (lambda points: sphere(points)[..., : min(points.shape[2], 5)].copy(),
     r"\(1, 4, 6\) .* got shape \(1, 4, 5\)"),
], ids=["scalar", "list", "extra-axis", "int", "float32", "generation"])
def test_a_score_that_is_not_a_float64_block_of_its_points_is_a_config_error(score, message):
    with pytest.raises(ConfigError, match="must return a float64 array of shape " + message):
        run_batch(score, BfaParams(n_total=2, pop_size=4),
                  [EngineConfig(kind=EngineKind.GAUSSIAN, seed=1)])
