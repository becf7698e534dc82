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
configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .engines import EngineConfig, StochasticEngine
from .errors import BudgetError, ConfigError, DomainError
from .problem import (
    DecisionVector,
    ObjectiveVector,
    WeightVector,
    aggregate,
    evaluate,
    to_physical,
)

__all__ = [
    "BfaParams",
    "SwarmState",
    "RunResult",
    "initialize_swarm",
    "tumble_direction",
    "chemotaxis_move",
    "chemotaxis_generation",
    "reproduce",
    "eliminate_disperse",
    "run_bfa",
    "run_custom",
]

N_DIMENSIONS = 4

ScoreFn = Callable[[np.ndarray], float]
Observer = Callable[[int, "SwarmState"], None]


@dataclass(frozen=True)
class BfaParams:
    """Algorithm settings.

    ``step_size`` is expressed in normalized (unit-cube) coordinates so a
    single scalar step is meaningful across all four dimensions.
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
    re-evaluations included); reproduction resets it to zero.
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


def tumble_direction(engine: StochasticEngine) -> np.ndarray:
    """Unit-length random direction from unit draws mapped onto [-1, 1]; redraws a zero vector."""
    while True:
        delta = np.array([2.0 * engine.sample_unit() - 1.0 for _ in range(N_DIMENSIONS)])
        norm = math.sqrt(float(delta @ delta))
        if norm > 0.0:
            return delta / norm


def _potentials(points: np.ndarray, swarm: SwarmState, params: BfaParams,
                i: Optional[int] = None) -> np.ndarray:
    """Cell-to-cell potential at each row of ``points`` (K, 4), as a (K,) array.

    The swarming term: attractant wells plus repellent hills of every member
    (itself included; at zero distance the two cancel at equal heights), over
    squared distances in unit coordinates. With ``i`` given, bacterium ``i``
    stands at each point in turn, so its distance is zero there whatever
    ``swarm.theta[i]`` holds. The result is bit-identical to scoring each
    point alone: the squared distances are summed over the leading axis of
    a (4, K, S) array, which adds the coordinates in order,
    ``((d0 + d1) + d2) + d3``, as ``np.sum(..., axis=1)`` does over four
    columns, and numpy's ``exp`` gives the same value for an element
    whatever the shape of the array around it.
    """
    squares = np.subtract(swarm.theta.T[:, None, :], points.T[:, :, None], order="C")
    squares *= squares
    d = np.add.reduce(squares, axis=0)
    if i is not None:
        d[:, i] = 0.0
    signals = np.multiply.outer((-params.w_att, -params.w_rep), d)
    np.exp(signals, out=signals)
    signals[0] *= -params.h_att  # attractant wells
    signals[1] *= params.h_rep   # repellent hills
    attract, repel = np.add.reduce(signals, axis=2)
    return attract + repel


def _evaluate_at(
    i: int,
    swarm: SwarmState,
    score: ScoreFn,
    params: BfaParams,
    potential: Optional[float] = None,
) -> float:
    """Score bacterium ``i`` where it stands; returns its augmented cost.

    ``potential`` is the swarming term there when the caller has computed
    it already; without swarming the cost is the plain objective.
    """
    theta = swarm.theta[i]
    f_plain = score(theta)
    swarm.evaluations += 1
    cost = f_plain
    if params.swarming:
        if potential is None:
            potential = _potentials(swarm.theta[i : i + 1], swarm, params, i)[0]
        cost = f_plain - potential
    swarm.f_plain[i] = f_plain
    swarm.cost[i] = cost
    swarm.health[i] += cost
    if f_plain > swarm.best_f:
        swarm.best_f = f_plain
        swarm.best_theta = theta.copy()
    return cost


def chemotaxis_move(
    i: int,
    direction: np.ndarray,
    swarm: SwarmState,
    score: ScoreFn,
    params: BfaParams,
) -> float:
    """Step bacterium ``i`` along ``direction``, clamp, re-evaluate; returns the new cost."""
    swarm.theta[i] = np.clip(swarm.theta[i] + params.step_size * direction, 0.0, 1.0)
    return _evaluate_at(i, swarm, score, params)


def initialize_swarm(engine: StochasticEngine, params: BfaParams, score: ScoreFn) -> SwarmState:
    """Place ``pop_size`` bacteria at engine-drawn positions and evaluate them.

    Draw order is fixed: all positions first (bacterium by bacterium, one
    unit draw per component), then every cost is evaluated against the
    complete initial swarm.
    """
    theta = np.array([[engine.sample_unit() for _ in range(N_DIMENSIONS)]
                      for _ in range(params.pop_size)])
    zeros = np.zeros(params.pop_size)
    swarm = SwarmState(theta=theta, f_plain=zeros.copy(), cost=zeros.copy(), health=zeros,
                       best_theta=theta[0].copy(), best_f=-math.inf)
    for i in range(swarm.size):
        _evaluate_at(i, swarm, score, params)
    return swarm


def _swim_path(start: np.ndarray, direction: np.ndarray, params: BfaParams) -> np.ndarray:
    """``start`` and the ``n_swim + 1`` positions one tumble can reach, as rows.

    Each axis moves in one fixed direction for the whole swim, so once a
    coordinate is clamped at a face of the cube the running sum stays past
    that face: clipping the cumulative sum once equals clamping after every
    step, bit for bit.
    """
    steps = np.empty((params.n_swim + 2, N_DIMENSIONS))
    steps[0] = start
    steps[1:] = params.step_size * direction
    path = np.add.accumulate(steps, axis=0)
    path[1:].clip(0.0, 1.0, out=path[1:])
    return path


def chemotaxis_generation(
    swarm: SwarmState,
    engine: StochasticEngine,
    score: ScoreFn,
    params: BfaParams,
) -> SwarmState:
    """One generation: every bacterium tumbles once, then swims while improving.

    The swim gate compares augmented fitness before and after each move; a
    move is always committed, the gate only decides whether another one
    follows. The other bacteria stand still during a swim, so the swarming
    term along the whole reachable path comes from one batched call per
    tumble, while ``score`` is called only at committed positions, in
    order. Appends the best-so-far value to the trace.
    """
    moves = []
    for i in range(swarm.size):
        direction = tumble_direction(engine)
        path = _swim_path(swarm.theta[i], direction, params)
        # without swarming the potentials are ignored and previous is f_plain exactly
        potentials = _potentials(path, swarm, params, i) if params.swarming else np.zeros(len(path))
        previous = swarm.f_plain[i] - potentials[0]
        for taken in range(1, len(path)):
            swarm.theta[i] = path[taken]
            current = _evaluate_at(i, swarm, score, params, potentials[taken])
            if not current > previous:
                break
            previous = current
        moves.append(taken)
    swarm.last_moves = moves
    swarm.trace.append(swarm.best_f)
    return swarm


def reproduce(swarm: SwarmState, params: BfaParams) -> SwarmState:
    """Health-ranked cloning: the healthier half survives and splits.

    With population S the top ``ceil(S/2)`` (ties broken by row index)
    are kept in rank order and the leading ``S - ceil(S/2)`` of them are
    cloned, so the size is exactly S again. Health resets to zero for
    everyone.
    """
    size = swarm.size
    order = np.argsort(-swarm.health, kind="stable")
    keep = (size + 1) // 2
    rows = np.concatenate([order[:keep], order[: size - keep]])
    swarm.theta = swarm.theta[rows]
    swarm.f_plain = swarm.f_plain[rows]
    swarm.cost = swarm.cost[rows]
    swarm.health = np.zeros(size)
    return swarm


def eliminate_disperse(
    swarm: SwarmState,
    engine: StochasticEngine,
    score: ScoreFn,
    params: BfaParams,
) -> SwarmState:
    """Independently disperse each bacterium with probability ``p_elim``.

    One unit draw decides; a dispersed bacterium gets a fresh engine-drawn
    position and is re-evaluated. The best-so-far archive is never erased.
    """
    for i in range(swarm.size):
        if engine.sample_unit() < params.p_elim:
            swarm.theta[i] = [engine.sample_unit() for _ in range(N_DIMENSIONS)]
            _evaluate_at(i, swarm, score, params)
    return swarm


def _run_loop(
    score: ScoreFn,
    params: BfaParams,
    engine: StochasticEngine,
    observer: Optional[Observer] = None,
) -> SwarmState:
    swarm = initialize_swarm(engine, params, score)
    dispersal_period = params.n_chemo * params.n_repro
    for generation in range(1, params.n_total + 1):
        chemotaxis_generation(swarm, engine, score, params)
        # reproduction and dispersal happen between generations; one that
        # falls exactly on the budget boundary is skipped, so the final
        # trace entry always reflects the final archive
        if generation < params.n_total:
            if generation % params.n_chemo == 0:
                reproduce(swarm, params)
            if generation % dispersal_period == 0:
                eliminate_disperse(swarm, engine, score, params)
        if observer is not None:
            observer(generation, swarm)
    return swarm


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
    engine = StochasticEngine(engine_config)
    swarm = _run_loop(score, params, engine, observer)
    if not math.isfinite(swarm.best_f):
        raise DomainError(f"run ended with a non-finite best value {swarm.best_f!r}")
    return RunResult(
        best_theta=tuple(float(v) for v in swarm.best_theta),
        best_decision=None,
        best_objectives=None,
        best_f=swarm.best_f,
        trace=tuple(swarm.trace),
        evaluations=swarm.evaluations,
        seed=engine_config.seed,
    )


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

    def score(u: np.ndarray) -> float:
        return aggregate(evaluate(to_physical(u)), weights)

    result = run_custom(score, params, engine_config, observer)
    decision = to_physical(result.best_theta)
    return replace(result, best_decision=decision, best_objectives=evaluate(decision))
