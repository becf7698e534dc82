"""Bacteria-foraging optimizer over the unit hypercube.

The swarm evolves through chemotactic generations: each bacterium tumbles
into a random unit direction, takes one step, then keeps swimming in the
same direction while the move improves its augmented fitness (plain
weighted objective minus the cell-to-cell swarming potential), up to the
swim limit. Every ``n_chemo`` generations the healthier half of the
population reproduces by cloning; every ``n_chemo * n_repro`` generations
each bacterium is independently dispersed to a fresh random position with
probability ``p_elim``. The run stops after ``n_total`` generations.

All randomness flows through a single :class:`~bforage.engines.StochasticEngine`,
so a run is a pure function of its weight vector, parameters and engine
configuration. :func:`run_batch` advances several runs that share their
parameters in lockstep, one bacterium index at a time, so that numpy's
fixed cost per call is paid once per batch; each run keeps its own engine
and score, and its result is bit-identical to running it alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .engines import EngineConfig, StochasticEngine, _finite
from .errors import BudgetError, ConfigError, DomainError
from .problem import (
    DecisionVector,
    ObjectiveVector,
    WeightVector,
    evaluate,
    to_physical,
    unit_scorer,
)

__all__ = [
    "BfaParams",
    "SwarmState",
    "RunResult",
    "reproduce",
    "run_bfa",
    "run_batch",
    "run_custom",
]

N_DIMENSIONS = 4

# the most float64s one array of a lockstep batch may hold (1 GiB)
_MAX_ARRAY_FLOATS = 2**27

ScoreFn = Callable[[np.ndarray], float]
Observer = Callable[[int, "SwarmState"], None]


@dataclass(frozen=True)
class BfaParams:
    """Algorithm settings.

    ``step_size`` is expressed in normalized (unit-cube) coordinates so a
    single scalar step is meaningful across all four dimensions. The
    signal widths must be non-negative, so every ``exp(-w * d)`` of the
    swarming term lies in [0, 1], and the term's largest size,
    ``pop_size * (|h_att| + |h_rep|)``, must be a finite float.
    """

    n_total: int = 200        # chemotactic-generation budget for the whole run
    pop_size: int = 25        # swarm size, constant throughout
    n_swim: int = 5           # extra same-direction moves allowed per tumble
    n_chemo: int = 10         # generations between reproduction events
    n_repro: int = 5          # reproduction events between dispersal events
    w_rep: float = 10.0       # repellent signal width
    w_att: float = 0.2        # attractant signal width
    h_rep: float = 0.1        # repellent signal height
    h_att: float = 0.1        # attractant signal height (= attractant depth)
    step_size: float = 0.05   # chemotactic step, normalized units
    p_elim: float = 0.25      # per-bacterium dispersal probability
    swarming: bool = True     # include the cell-to-cell term in fitness

    def __post_init__(self):
        if not (isinstance(self.n_total, int) and self.n_total >= 1):
            raise BudgetError(f"n_total must be >= 1, got {self.n_total!r}")
        for name in ("pop_size", "n_swim", "n_chemo", "n_repro"):
            value = getattr(self, name)
            if not (isinstance(value, int) and value >= 0):
                raise ConfigError(f"{name} must be a non-negative integer, got {value!r}")
        if self.pop_size < 1 or self.n_chemo < 1 or self.n_repro < 1:
            raise ConfigError("pop_size, n_chemo and n_repro must all be >= 1")
        for name in ("step_size", "w_rep", "w_att", "h_rep", "h_att"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.step_size > 0:
            raise ConfigError(f"step_size must be positive, got {self.step_size}")
        if self.w_rep < 0 or self.w_att < 0:  # exp(-w * d) must stay at most 1
            raise ConfigError(f"w_rep and w_att must be non-negative, got {self.w_rep}, {self.w_att}")
        if not _finite(lambda: self.pop_size * (abs(self.h_att) + abs(self.h_rep))):
            raise ConfigError(f"the swarming term overflows at pop_size={self.pop_size}, "
                              f"h_att={self.h_att}, h_rep={self.h_rep}")
        if not 0.0 <= self.p_elim <= 1.0:
            raise ConfigError(f"p_elim must lie in [0, 1], got {self.p_elim}")


@dataclass
class SwarmState:
    """Mutable run state: the population as arrays plus the best-so-far archive.

    Row ``i`` of ``theta`` (unit-cube position), ``f_plain`` (weighted
    objective there, no swarming term), ``cost`` (augmented fitness at the
    last evaluation) and ``health`` is bacterium ``i``. ``health`` is the
    running sum of every augmented cost evaluated for that bacterium since
    the last reproduction event (the initial placement and dispersal
    re-evaluations included); reproduction resets it to zero. In a lockstep
    batch ``theta`` is a view of the batch's (B, S, 4) block of positions,
    so every step of a run writes the arrays in place and never rebinds them.
    """

    theta: np.ndarray      # (S, 4)
    f_plain: np.ndarray    # (S,)
    cost: np.ndarray       # (S,)
    health: np.ndarray     # (S,)
    best_theta: np.ndarray
    best_f: float
    trace: list[float] = field(default_factory=list)
    evaluations: int = 0
    last_moves: list[int] = field(default_factory=list)  # moves per bacterium, last generation

    @property
    def size(self) -> int:
        return len(self.theta)


@dataclass(frozen=True)
class RunResult:
    """Outcome of one full run; comparable field by field for replay checks."""

    best_theta: tuple[float, ...]
    best_decision: Optional[DecisionVector]
    best_objectives: Optional[ObjectiveVector]
    best_f: float
    trace: tuple[float, ...]
    evaluations: int
    seed: int


def _directions(engine: StochasticEngine, count: int) -> np.ndarray:
    """``count`` unit-length random directions, as a (count, 4) array.

    Each row takes the engine's next four unit draws, mapped onto [-1, 1];
    the ``4 * count`` draws come as one ``sample_units`` block. A zero row
    is redrawn from the four draws after it, in one more block for all the
    rows still missing, so later rows shift and the engine is never asked
    for more draws than the rows it fills. The stacked ``(1, 4) @ (4, 1)``
    products take numpy's vector dot, so each squared norm has the bits of
    ``delta @ delta`` on its row alone.
    """
    blocks = []
    while count:
        signed = np.array(engine.sample_units(N_DIMENSIONS * count))
        signed = 2.0 * signed.reshape(count, N_DIMENSIONS) - 1.0
        norms = np.sqrt((signed[:, None, :] @ signed[:, :, None])[:, 0])
        kept = norms[:, 0] > 0.0
        if not kept.all():
            signed, norms = signed[kept], norms[kept]
        blocks.append(signed / norms)
        count -= len(norms)
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


def _potentials(points: np.ndarray, theta: np.ndarray, params: BfaParams,
                i: Optional[int] = None) -> np.ndarray:
    """Cell-to-cell potential at each point of ``points`` (B, K, 4), as (B, K).

    Run ``b`` of a lockstep batch scores its points ``points[b]`` against
    its own swarm ``theta[b]`` (S, 4). Without swarming the term is zero
    everywhere, and ``f - 0.0`` is ``f`` for every float, so a cost is the
    plain objective bit for bit. With swarming it is attractant
    wells plus repellent hills of every member (itself included; at zero
    distance the two cancel at equal heights), over squared distances in
    unit coordinates. With ``i`` given, bacterium ``i`` stands at each point
    in turn, so its distance is zero there whatever ``theta[b, i]`` holds.
    The result is bit-identical to scoring each point of each run alone:
    the squared distances are summed over the leading axis of a
    (4, B, K, S) array, which adds the coordinates in order,
    ``((d0 + d1) + d2) + d3``, as ``np.sum(..., axis=1)`` does over four
    columns; each point's S terms are summed along the last, contiguous
    axis, whatever the axes before it; and numpy's ``exp`` gives the same
    value for an element whatever the shape of the array around it.
    """
    if not params.swarming:
        return np.zeros(points.shape[:2])
    squares = np.subtract(theta.transpose(2, 0, 1)[:, :, None, :],
                          points.transpose(2, 0, 1)[:, :, :, None], order="C")
    squares *= squares
    d = np.add.reduce(squares, axis=0)
    del squares  # so the call peaks at 1.25x its largest array, not 1.75x
    if i is not None:
        d[:, :, i] = 0.0
    signals = np.multiply.outer((-params.w_att, -params.w_rep), d)
    np.exp(signals, out=signals)
    signals[0] *= -params.h_att  # attractant wells
    signals[1] *= params.h_rep   # repellent hills
    attract, repel = np.add.reduce(signals, axis=3)
    return attract + repel


# no run calls it: it stays as the tests' one-move reference and the hook perfbench's tracer patches
def chemotaxis_move(
    i: int,
    direction: np.ndarray,
    swarm: SwarmState,
    score: ScoreFn,
    params: BfaParams,
) -> float:
    """Step bacterium ``i`` along ``direction``, clamp, re-evaluate; returns the new cost."""
    swarm.theta[i] = np.clip(swarm.theta[i] + params.step_size * direction, 0.0, 1.0)
    potentials = _potentials(swarm.theta[None, i : i + 1], swarm.theta[None], params, i)
    _swim(i, swarm.theta[i : i + 1], potentials[0], math.inf, swarm, score)
    return swarm.cost[i]


# -- lockstep batches ------------------------------------------------------------
#
# A batch is B runs that share one BfaParams, advanced together one
# bacterium index at a time. ``theta`` is the (B, S, 4) block of positions
# and ``swarms[b].theta`` is its view ``theta[b]``, so the batched numpy
# calls and each run's own bookkeeping see the same positions. Every run
# keeps its own engine and score, and draws and scores in the order it
# would alone, so a run's result does not depend on the batch around it.


def _initialize(
    engines: Sequence[StochasticEngine], params: BfaParams, scores: Sequence[ScoreFn]
) -> tuple[np.ndarray, list[SwarmState]]:
    """Place ``pop_size`` bacteria per run at engine-drawn positions and evaluate them.

    Returns the (B, S, 4) block of positions and each run's swarm. Draw
    order is fixed: all positions first, bacterium by bacterium, one unit
    draw per component, as one ``sample_units`` block of ``4 * S`` draws per
    run; then every cost is evaluated against the complete initial swarm.
    """
    theta = np.array([engine.sample_units(N_DIMENSIONS * params.pop_size) for engine in engines])
    theta = theta.reshape(len(engines), params.pop_size, N_DIMENSIONS)
    potentials = _potentials(theta, theta, params).tolist()
    swarms = []
    for b, score in enumerate(scores):
        zeros = np.zeros(params.pop_size)
        swarm = SwarmState(theta=theta[b], f_plain=zeros.copy(), cost=zeros.copy(), health=zeros,
                           best_theta=theta[b, 0].copy(), best_f=-math.inf)
        for i in range(swarm.size):
            _swim(i, theta[b, i : i + 1], potentials[b][i : i + 1], math.inf, swarm, score)
        swarms.append(swarm)
    return theta, swarms


def _swim_path(start: np.ndarray, direction: np.ndarray, params: BfaParams) -> np.ndarray:
    """Each ``start`` (..., 4) and the ``n_swim + 1`` positions its tumble
    along ``direction`` (..., 4) can reach, as a (..., n_swim + 2, 4) array.

    Each axis moves in one fixed direction for the whole swim, so once a
    coordinate is clamped at a face of the cube the running sum stays past
    that face: clipping the cumulative sum once equals clamping after every
    step, bit for bit.
    """
    steps = np.empty(start.shape[:-1] + (params.n_swim + 2, N_DIMENSIONS))
    steps[..., 0, :] = start
    steps[..., 1:, :] = params.step_size * direction[..., None, :]
    path = np.add.accumulate(steps, axis=-2, out=steps)
    path[..., 1:, :].clip(0.0, 1.0, out=path[..., 1:, :])
    return path


def _swim(i: int, path: np.ndarray, potentials, previous: float, swarm: SwarmState,
          score: ScoreFn) -> int:
    """Move bacterium ``i`` along ``path`` (K, 4), scoring each point, while
    its augmented cost improves; returns the number of moves.

    Every evaluation of the optimizer commits here: the initial placement,
    a dispersal and ``chemotaxis_move`` as a one-point path, which commits
    one evaluation whatever ``previous`` is. ``potentials[k]`` is the
    swarming term at ``path[k]``, and ``previous`` the cost the first point
    must beat before a second may follow. Keeping the health sum in a
    local and writing the row once per swim makes a batch of 8 default
    runs about 9 % faster than a write per move.
    """
    health = float(swarm.health[i])
    for k in range(len(path)):
        point = path[k]
        f_plain = score(point)
        cost = f_plain - potentials[k]
        health += cost
        if f_plain > swarm.best_f:
            swarm.best_f = f_plain
            swarm.best_theta = point.copy()
        if not cost > previous:
            break
        previous = cost
    swarm.theta[i] = point
    swarm.f_plain[i] = f_plain
    swarm.cost[i] = cost
    swarm.health[i] = health
    swarm.evaluations += k + 1
    return k + 1


def _generation(
    theta: np.ndarray,
    swarms: Sequence[SwarmState],
    engines: Sequence[StochasticEngine],
    scores: Sequence[ScoreFn],
    params: BfaParams,
) -> None:
    """One generation of every run: each bacterium tumbles once, then swims while improving.

    The swim gate compares augmented fitness before and after each move; a
    move is always committed, the gate only decides whether another one
    follows. ``score`` is called only at committed positions, in order.
    Appends each run's best-so-far value to its trace.

    Draw order is fixed: every tumble of a run is drawn before its first
    swim, in row order, four unit draws per bacterium, a zero direction
    redrawn from the next four. Nothing else draws, so each engine ends
    exactly ``4 * S`` draws on (four more per redraw).
    """
    moves = [[] for _ in swarms]
    size = theta.shape[1]
    # only the tumbles draw within a generation, and a bacterium's start
    # changes only through its own swim, so every run's directions and every
    # reachable path are known before the first swim
    directions = np.array([_directions(engine, size) for engine in engines])
    paths = _swim_path(theta, directions, params)
    steps = paths[:, :, 1:]
    for i in range(size):
        # the other bacteria stand still during a swim, so the swarming term
        # at every run's start and along its reachable path is one call
        potentials = _potentials(paths[:, i], theta, params, i).tolist()
        for b, swarm in enumerate(swarms):
            terms = potentials[b]
            start = terms.pop(0)  # where bacterium i stands; the rest pair with steps[b, i]
            taken = _swim(i, steps[b, i], terms, swarm.f_plain[i] - start, swarm, scores[b])
            moves[b].append(taken)
    for swarm, taken in zip(swarms, moves):
        swarm.last_moves = taken
        swarm.trace.append(swarm.best_f)


def reproduce(swarm: SwarmState) -> None:
    """Health-ranked cloning: the healthier half survives and splits.

    With population S the top ``ceil(S/2)`` (ties broken by row index)
    are kept in rank order and the leading ``S - ceil(S/2)`` of them are
    cloned, so the size is exactly S again. Health resets to zero for
    everyone. The arrays are rewritten in place.
    """
    size = swarm.size
    order = np.argsort(-swarm.health, kind="stable")
    keep = (size + 1) // 2
    rows = np.concatenate([order[:keep], order[: size - keep]])
    swarm.theta[:] = swarm.theta[rows]
    swarm.f_plain[:] = swarm.f_plain[rows]
    swarm.cost[:] = swarm.cost[rows]
    swarm.health[:] = 0.0


def _disperse(
    theta: np.ndarray,
    swarms: Sequence[SwarmState],
    engines: Sequence[StochasticEngine],
    scores: Sequence[ScoreFn],
    params: BfaParams,
) -> None:
    """Independently disperse each bacterium of every run with probability ``p_elim``.

    One unit draw per bacterium decides; a dispersed bacterium then takes
    a block of four unit draws for a fresh position and is re-evaluated. The
    best-so-far archive is never erased.
    """
    for i in range(theta.shape[1]):
        moved = []
        for b, engine in enumerate(engines):
            if engine.sample_unit() < params.p_elim:
                theta[b, i] = engine.sample_units(N_DIMENSIONS)
                moved.append(b)
        if moved:
            # bacteria after i have not moved yet: each run's term is against
            # its swarm as it stands at this index
            potentials = _potentials(theta[:, i : i + 1], theta, params, i).tolist()
            for b in moved:
                _swim(i, theta[b, i : i + 1], potentials[b], math.inf, swarms[b], scores[b])


def _run_floats(params: BfaParams) -> int:
    """The float64s one run adds to the largest array of a batched call.

    With swarming that array is the (4, B, K, S) block of squared
    differences in ``_potentials``, K being ``n_swim + 2`` on a swim path
    and S at the initial placement; without, it is the generation's
    (B, S, n_swim + 2, 4) block of swim paths.
    """
    path = params.n_swim + 2
    points = max(path, params.pop_size) if params.swarming else path
    return N_DIMENSIONS * params.pop_size * points


def _batch_limit(params: BfaParams) -> int:
    """The most runs with ``params`` one lockstep batch holds; 0 if one run is too large."""
    return _MAX_ARRAY_FLOATS // _run_floats(params)


def _run_lockstep(
    scores: Sequence[ScoreFn],
    params: BfaParams,
    engine_configs: Sequence[EngineConfig],
    observer: Optional[Observer] = None,
) -> list[RunResult]:
    """Run one optimizer per (score, engine config) pair in lockstep.

    Raises :class:`DomainError` when a run ends without a finite best
    value, so a broken objective never yields a plausible-looking result,
    and :class:`ConfigError`, before the first draw, when one array of the
    batch would hold more than ``_MAX_ARRAY_FLOATS`` float64s.
    """
    if not engine_configs:
        return []
    if len(engine_configs) > _batch_limit(params):
        name = "n_swim" if params.n_swim + 2 >= params.pop_size else "pop_size"
        raise ConfigError(
            f"{name}={getattr(params, name)} needs {len(engine_configs) * _run_floats(params)} "
            f"float64s in one array for {len(engine_configs)} run(s), over the limit of "
            f"2**27 (1 GiB); lower n_swim or pop_size")
    engines = [StochasticEngine(config) for config in engine_configs]
    theta, swarms = _initialize(engines, params, scores)
    dispersal_period = params.n_chemo * params.n_repro
    for generation in range(1, params.n_total + 1):
        _generation(theta, swarms, engines, scores, params)
        # reproduction and dispersal happen between generations; one that
        # falls exactly on the budget boundary is skipped, so the final
        # trace entry always reflects the final archive
        if generation < params.n_total:
            if generation % params.n_chemo == 0:
                for swarm in swarms:
                    reproduce(swarm)
            if generation % dispersal_period == 0:
                _disperse(theta, swarms, engines, scores, params)
        if observer is not None:
            for swarm in swarms:
                observer(generation, swarm)
    results = []
    for swarm, config in zip(swarms, engine_configs):
        if not math.isfinite(swarm.best_f):
            raise DomainError(f"run ended with a non-finite best value {swarm.best_f!r}")
        results.append(RunResult(
            best_theta=tuple(float(v) for v in swarm.best_theta),
            best_decision=None,
            best_objectives=None,
            best_f=swarm.best_f,
            trace=tuple(swarm.trace),
            evaluations=swarm.evaluations,
            seed=config.seed,
        ))
    return results


def run_custom(
    score: ScoreFn,
    params: BfaParams,
    engine_config: EngineConfig,
    observer: Optional[Observer] = None,
) -> RunResult:
    """Run the optimizer on an arbitrary unit-cube objective (maximized).

    Raises :class:`DomainError` when the run ends without a finite best
    value, so a broken objective never yields a plausible-looking result.
    """
    return _run_lockstep([score], params, [engine_config], observer)[0]


def run_batch(
    weights: Sequence[WeightVector],
    params: BfaParams,
    engine_configs: Sequence[EngineConfig],
    observer: Optional[Observer] = None,
) -> list[RunResult]:
    """``run_bfa`` of each (weights, engine config) pair, advanced in lockstep.

    The runs share ``params``; the batch builds all its swim paths in one
    call per generation and makes one swarming-term call per tumble index
    for all of them. Each result is bit-identical to ``run_bfa`` of that
    run alone. ``observer``, if given, sees every run's swarm after each
    generation, in batch order.
    """
    if len(weights) != len(engine_configs):
        raise ConfigError(f"{len(weights)} weight vectors for {len(engine_configs)} engine configs")
    results = _run_lockstep([unit_scorer(w) for w in weights], params, engine_configs, observer)
    out = []
    for result in results:
        decision = to_physical(result.best_theta)
        out.append(replace(result, best_decision=decision, best_objectives=evaluate(decision)))
    return out


def run_bfa(
    weights: WeightVector,
    params: BfaParams,
    engine_config: EngineConfig,
    observer: Optional[Observer] = None,
) -> RunResult:
    """Run the optimizer on the sand-mould model under ``weights``.

    Deterministic: identical arguments give an identical result, draw for
    draw. The returned decision and objective vectors are recomputed at
    the archived best position (outside the evaluation count).
    """
    return run_batch([weights], params, [engine_config], observer)[0]
