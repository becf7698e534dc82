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
so a run is a pure function of its score, parameters and engine
configuration. :func:`run_batch`, the one run entry, advances runs that
share their parameters in lockstep, one bacterium index at a time, so that
numpy's fixed cost per call is paid once per batch; each run keeps its own
engine and score row, and its result is bit-identical to running it alone.
:func:`run_bfa` is its batch of one on the sand-mould model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from collections.abc import Sequence
from typing import Callable, Optional

import numpy as np

from .engines import EngineConfig, StochasticEngine, _finite
from .errors import BudgetError, ConfigError, DomainError
from .problem import (
    DecisionVector,
    ObjectiveVector,
    WeightVector,
    evaluate,
    to_physical,
    unit_block_scorer,
)

__all__ = [
    "BfaParams",
    "SwarmState",
    "RunResult",
    "run_bfa",
    "run_batch",
]

N_DIMENSIONS = 4

# the most float64s one array of a lockstep batch may hold (1 GiB)
_MAX_ARRAY_FLOATS = 2**27

Observer = Callable[[int, "SwarmState"], None]


@dataclass(frozen=True)
class BfaParams:
    """Algorithm settings.

    ``step_size`` is expressed in normalized (unit-cube) coordinates so a
    single scalar step is meaningful across all four dimensions; a swim
    path's running sum reaches its start in [0, 1] plus ``n_swim + 1``
    steps, so ``1.0 + (n_swim + 1) * step_size`` must be finite. The
    signal widths must be non-negative, so every ``exp(-w * d)`` of the
    swarming term lies in [0, 1], and ``4.0 * w`` must be finite, so
    ``w * d`` is finite at every squared distance ``d`` in the unit cube.
    The term is at most ``pop_size * (|h_att| + |h_rep|)`` in size, and one
    health sum adds at most ``min(n_chemo, n_total) * (n_swim + 1) + 1``
    costs (a placement or dispersal, then the swims up to the next
    reproduction), so their product must be a finite float.
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
            if not _finite(lambda: getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.step_size > 0:
            raise ConfigError(f"step_size must be positive, got {self.step_size}")
        steps = self.n_swim + 1
        if not _finite(lambda: 1.0 + steps * self.step_size):
            raise ConfigError(f"step_size={self.step_size} overflows a swim path's running sum "
                              f"of a start in [0, 1] and n_swim + 1 = {steps} steps")
        if self.w_rep < 0 or self.w_att < 0:  # exp(-w * d) must stay at most 1
            raise ConfigError(f"w_rep and w_att must be non-negative, got {self.w_rep}, {self.w_att}")
        for name in ("w_rep", "w_att"):  # a squared distance in the unit cube is at most 4.0
            if not math.isfinite(4.0 * getattr(self, name)):
                raise ConfigError(f"{name}={getattr(self, name)} overflows its signal "
                                  f"{name} * d at the unit cube's largest squared distance d = 4.0")
        costs = min(self.n_chemo, self.n_total) * (self.n_swim + 1) + 1
        if not _finite(lambda: self.pop_size * (abs(self.h_att) + abs(self.h_rep)) * costs):
            raise ConfigError(f"the swarming term overflows a health sum of {costs} costs at "
                              f"pop_size={self.pop_size}, h_att={self.h_att}, h_rep={self.h_rep}")
        if not 0.0 <= self.p_elim <= 1.0:
            raise ConfigError(f"p_elim must lie in [0, 1], got {self.p_elim}")

    @property
    def swarming(self) -> bool:
        """Whether fitness has a cell-to-cell term; at zero heights it is zero everywhere."""
        return bool(self.h_att or self.h_rep)


@dataclass
class SwarmState:
    """Mutable state of a lockstep batch: run ``b`` is row ``b``.

    ``theta`` (B, S, 4) holds the unit-cube positions, bacterium ``i`` of
    run ``b`` at ``theta[b, i]``, and ``best_theta`` (B, 4) each run's
    archived best position. The other fields are per-run Python lists,
    indexed ``[b]`` or ``[b][i]``: ``f_plain`` (weighted objective, no
    swarming term), ``health`` (the running sum of every augmented cost
    evaluated for that bacterium since the last reproduction event, the
    initial placement and dispersal re-evaluations included; reproduction
    resets it to zero), ``moves`` (moves each bacterium made in the last
    generation), ``best_f``, ``evaluations`` and ``trace``. The swims read
    and write them one scalar at a time, which a list does faster than an
    array. Every step writes ``theta`` in place and never rebinds it.
    """

    theta: np.ndarray            # (B, S, 4)
    best_theta: np.ndarray       # (B, 4)
    f_plain: list[list[float]]
    health: list[list[float]]
    moves: list[list[int]]
    best_f: list[float]
    evaluations: list[int]
    trace: list[list[float]]


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


def _directions(engines: Sequence[StochasticEngine], count: int) -> np.ndarray:
    """``count`` unit-length random directions per engine, as a (B, count, 4) array.

    Each row takes its engine's next four unit draws, mapped onto [-1, 1]; the
    ``4 * count`` draws of a run come as one ``sample_units`` block, and
    every run's rows are normalised in one chain. A zero row is redrawn
    from the four draws after it, from its own engine only: that run keeps
    its other rows in order and draws one more block for all the rows it
    still misses, so later rows shift and no engine is asked for more
    draws than the rows it fills. The stacked ``(1, 4) @ (4, 1)`` products
    take numpy's vector dot, so each squared norm has the bits of
    ``delta @ delta`` on its row alone.
    """
    signed = np.array([engine.sample_units(N_DIMENSIONS * count) for engine in engines])
    signed = 2.0 * signed.reshape(len(engines), count, N_DIMENSIONS) - 1.0
    norms = np.sqrt(signed[..., None, :] @ signed[..., :, None])[..., 0]
    if norms.all():
        return signed / norms
    for b, engine in enumerate(engines):
        kept = norms[b, :, 0] > 0.0
        rows = signed[b, kept] / norms[b, kept]
        signed[b] = np.concatenate([rows, _directions([engine], count - len(rows))[0]])
    return signed


def _swarming_term(
    params: BfaParams, points: np.ndarray, theta: np.ndarray
) -> Callable[[int], np.ndarray]:
    """The cell-to-cell term along each bacterium's points, as a function ``term(i)``.

    ``points`` (B, S, K, 4) holds K points per bacterium of each run, and
    ``theta`` (B, S, 4) the runs' swarms. ``term(i)`` gives the (B, K) term
    at each point ``points[b, i]`` against run ``b``'s own swarm, with
    bacterium ``i`` standing at the point: its own distance is zero there
    whatever ``theta[b, i]`` holds. Without swarming the term is zero
    everywhere, and ``f - 0.0`` is ``f`` for every float, so a cost is the
    plain objective bit for bit; ``term(i)`` is then a (B, K) block of
    zeros. With swarming it is attractant wells plus repellent hills of
    every member (``i`` included; at zero distance the two cancel at equal
    heights), over squared distances in unit coordinates.

    The buffers and the coordinate views of ``points`` and ``theta`` are
    made once, here, and each call is one chain of numpy calls that write
    into them. The views read both arrays at call time, so writes into
    either between calls show in the next result; a result is valid until
    the next call. The squared differences share one buffer with the
    signals and their sums, so a term holds 1.25 times its (4, B, K, S)
    largest array.

    At B = 1 a call costs numpy's fixed cost per call more than its
    arithmetic, so a call adds as little to its nine numpy calls as it
    can: bacterium ``i`` is the leading index of a view made here
    (``coordinates[i]``, ``own[i]``), the ufuncs are locals with ``out``
    passed by position, and every step after the subtraction runs on a
    flat view of its buffer: the square on the 1-D squares, the coordinate
    sum over the 4 rows of ``rows`` (4, B·K·S), the widths, ``exp`` and
    heights on the 2 rows of ``signals`` (2, B·K·S), the point sums over
    ``runs`` (2, B·K, S), and the final add on two (B·K) rows. A flat view
    of a contiguous buffer holds the same elements in the same order, so
    each element meets the same operations, in the same order, as it
    would in the 4-D array.

    The result is bit-identical to scoring each point of each run alone:
    the squared distances are summed over the leading axis of ``rows``,
    which adds the coordinates in order, ``((d0 + d1) + d2) + d3``, as
    ``np.sum(..., axis=1)`` does over four columns; each point's S terms
    are one sum along the last, contiguous axis of ``runs``, whatever the
    axes before it; and numpy's ``exp`` gives the same value for an
    element whatever the shape of the array around it.
    """
    batch, size = theta.shape[:2]
    count = points.shape[2]
    if not params.swarming:
        zeros = np.zeros((batch, count))
        return lambda i: zeros
    cells = batch * count
    squares = np.empty((N_DIMENSIONS, batch, count, size))
    distances = np.empty((batch, count, size))
    flat_squares = squares.reshape(-1)
    rows = squares.reshape(N_DIMENSIONS, -1)  # (4, B·K·S)
    flat_distances = distances.reshape(-1)
    own = distances.transpose(2, 0, 1)  # (S, B, K): bacterium i's distances at [i]
    signals = rows[:2]  # (2, B·K·S)
    flat_signals = signals.reshape(-1)
    runs = signals.reshape(2, cells, size)
    sums = flat_squares[2 * cells * size : 2 * cells * (size + 1)].reshape(2, cells)
    attract, repel = sums
    result = attract.reshape(batch, count)
    widths = np.reshape((-params.w_att, -params.w_rep), (2, 1))
    heights = np.reshape((-params.h_att, params.h_rep), (2, 1))
    coordinates = points.transpose(1, 3, 0, 2)[..., None]  # (S, 4, B, K, 1)
    swarm = theta.transpose(2, 0, 1)[:, :, None]  # (4, B, 1, S)
    subtract, multiply, add, exp, reduce = np.subtract, np.multiply, np.add, np.exp, np.add.reduce

    def term(i: int) -> np.ndarray:
        subtract(swarm, coordinates[i], squares)
        multiply(flat_squares, flat_squares, flat_squares)
        reduce(rows, 0, None, flat_distances)
        own[i] = 0.0
        multiply(widths, flat_distances, signals)
        exp(flat_signals, flat_signals)
        multiply(signals, heights, signals)  # attractant wells, repellent hills
        reduce(runs, 2, None, sums)
        add(attract, repel, attract)
        return result

    return term


# run_batch swims whole generations; this stays as the tests' one-move reference and the tracer's hook
def chemotaxis_move(
    i: int,
    direction: np.ndarray,
    swarm: SwarmState,
    score: Callable[[np.ndarray], np.ndarray],
    params: BfaParams,
) -> float:
    """Step bacterium ``i`` of run 0 along ``direction``, clamp, re-evaluate; returns the new cost."""
    theta = swarm.theta[:1]
    theta[0, i] = np.clip(theta[0, i] + params.step_size * direction, 0.0, 1.0)
    path = theta[0, i : i + 1]
    potentials = _swarming_term(params, theta[:, :, None], theta)(i)[0].tolist()
    _swim(0, i, path, _scores(score, path), potentials, math.inf, swarm)
    return swarm.f_plain[0][i] - potentials[0]


# -- lockstep batches ------------------------------------------------------------
#
# A batch is B runs that share one BfaParams, advanced together one
# bacterium index at a time. One SwarmState holds them all, run b in row
# b, so the batched numpy calls read the (B, S, 4) block of positions that
# each run's own bookkeeping writes. Every run
# keeps its own engine and draws in the order it would alone, so a run's
# result does not depend on the batch around it. A batch's score maps a
# float64 array of unit points, shaped (B, ..., 4), to the (B, ...) array
# of their values, run b's points under row b. It scores every point a
# placement, a generation or a dispersal can reach in one call, and each
# swim reads its values from that block.


def _scores(score: Callable[[np.ndarray], np.ndarray], points: np.ndarray) -> list:
    """``score(points)`` as nested lists, checked: finite float64 of shape ``points.shape[:-1]``."""
    block = score(points)
    if not (isinstance(block, np.ndarray) and block.dtype == np.float64
            and block.shape == points.shape[:-1]):
        got = (f"shape {block.shape} and dtype {block.dtype}" if isinstance(block, np.ndarray)
               else f"a {type(block).__name__}")
        raise ConfigError(f"a score must return a float64 array of shape {points.shape[:-1]} "
                          f"for points of shape {points.shape}, got {got}")
    if not np.isfinite(block).all():
        where = tuple(np.argwhere(~np.isfinite(block))[0])
        raise DomainError(f"the score is {float(block[where])} at unit point "
                          f"{points[where].tolist()} (batch row {where[0]}); a score must be finite")
    return block.tolist()


def _initialize(
    engines: Sequence[StochasticEngine], params: BfaParams,
    score: Callable[[np.ndarray], np.ndarray],
) -> SwarmState:
    """Place ``pop_size`` bacteria per run at engine-drawn positions and evaluate them.

    Returns the batch's state. Draw order is fixed: all positions first,
    bacterium by bacterium, one unit draw per component, as one
    ``sample_units`` block of ``4 * S`` draws per run. Every bacterium is
    then placed where it already stands, so every cost is against the
    complete initial swarm.
    """
    batch, size = len(engines), params.pop_size
    theta = np.array([engine.sample_units(N_DIMENSIONS * size) for engine in engines])
    theta = theta.reshape(batch, size, N_DIMENSIONS)
    swarm = SwarmState(theta=theta, best_theta=theta[:, 0].copy(),
                       f_plain=[[0.0] * size for _ in engines],
                       health=[[0.0] * size for _ in engines], moves=[[0] * size for _ in engines],
                       best_f=[-math.inf] * batch, evaluations=[0] * batch,
                       trace=[[] for _ in engines])
    _place(swarm, theta, np.ones((batch, size), dtype=bool), score, params)
    return swarm


def _place(
    swarm: SwarmState, positions: np.ndarray, moved: np.ndarray,
    score: Callable[[np.ndarray], np.ndarray], params: BfaParams,
) -> None:
    """Put bacterium ``i`` of run ``b`` at ``positions[b, i]`` (B, S, 4) where
    ``moved[b, i]`` (B, S) holds, and evaluate it there.

    Every value comes from one ``score`` call over the (B, S, 1, 4) block.
    Each placement commits as a one-point swim, taking the indices in turn
    across the batch, so the swarming term at index ``i`` is against each
    run's swarm as it stands then: the bacteria before ``i`` at their new
    positions, the rest where they were. The term puts bacterium ``i`` at
    its point, so ``theta`` takes the position only when its swim commits.
    """
    points = positions[:, :, None]
    values = _scores(score, points)
    term = _swarming_term(params, points, swarm.theta)
    for i in np.flatnonzero(moved.any(axis=0)).tolist():
        potentials = term(i).tolist()
        for b in np.flatnonzero(moved[:, i]).tolist():
            _swim(b, i, positions[b, i : i + 1], values[b][i], potentials[b], math.inf, swarm)


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


def _swim(b: int, i: int, path: np.ndarray, values, potentials, previous: float,
          swarm: SwarmState) -> int:
    """Move bacterium ``i`` of run ``b`` along ``path`` (K, 4) while its
    augmented cost improves; returns the number of moves.

    Every evaluation of the optimizer commits here: the initial placement,
    a dispersal and ``chemotaxis_move`` as a one-point path, which commits
    one evaluation whatever ``previous`` is. ``values[k]`` is the objective
    at ``path[k]``, scored ahead; values past the last committed point are
    dropped. ``potentials[k]`` is the swarming term at ``path[k]``, and
    ``previous`` the cost the first point must beat before a second may
    follow. Keeping the health sum in a local and writing it once per
    swim makes a batch of 8 default runs about 9 % faster than a write per
    move.
    """
    health = swarm.health[b][i]
    for k, f_plain in enumerate(values):
        cost = f_plain - potentials[k]
        health += cost
        if f_plain > swarm.best_f[b]:
            swarm.best_f[b] = f_plain
            swarm.best_theta[b] = path[k]
        if not cost > previous:
            break
        previous = cost
    swarm.theta[b, i] = path[k]
    swarm.f_plain[b][i] = f_plain
    swarm.health[b][i] = health
    swarm.evaluations[b] += k + 1
    return k + 1


def _generation(
    swarm: SwarmState,
    engines: Sequence[StochasticEngine],
    score: Callable[[np.ndarray], np.ndarray],
    params: BfaParams,
) -> None:
    """One generation of every run: each bacterium tumbles once, then swims while improving.

    The swim gate compares augmented fitness before and after each move; a
    move is always committed, the gate only decides whether another one
    follows. ``score`` gives the objective at every step of every run's
    swim paths, the (B, S, n_swim + 1) values, in one call before the first
    swim, and each swim reads its values from that block. Records each
    bacterium's moves and appends each run's best-so-far value to its trace.

    Draw order is fixed: every tumble of a run is drawn before its first
    swim, in row order, four unit draws per bacterium, a zero direction
    redrawn from the next four. Nothing else draws, so each engine ends
    exactly ``4 * S`` draws on (four more per redraw).
    """
    theta = swarm.theta
    size = theta.shape[1]
    # only the tumbles draw within a generation, and a bacterium's start
    # changes only through its own swim, so every run's directions and every
    # reachable path are known before the first swim
    paths = _swim_path(theta, _directions(engines, size), params)
    steps = paths[:, :, 1:]
    values = _scores(score, steps)
    # made after scoring, so its buffers never add to the scorer's own
    # arrays; it reads theta as the swims write it in place
    term = _swarming_term(params, paths, theta)
    for i in range(size):
        # the other bacteria stand still during a swim, so the swarming term
        # at every run's start and along its reachable path is one call
        potentials = term(i).tolist()
        for b, terms in enumerate(potentials):
            start = terms.pop(0)  # where bacterium i stands; the rest pair with steps[b, i]
            swarm.moves[b][i] = _swim(b, i, steps[b, i], values[b][i], terms,
                                      swarm.f_plain[b][i] - start, swarm)
        del potentials, terms  # so this index's lists are gone before the next one's are made
    for trace, best_f in zip(swarm.trace, swarm.best_f):
        trace.append(best_f)


def _reproduce(swarm: SwarmState) -> None:
    """Health-ranked cloning in every run: the healthier half survives and splits.

    With population S the top ``ceil(S/2)`` of each run (ties broken by row
    index) are kept in rank order and the leading ``S - ceil(S/2)`` of them
    are cloned, so the size is exactly S again. Health resets to zero for
    everyone.
    """
    size = swarm.theta.shape[1]
    keep = (size + 1) // 2
    order = np.argsort(-np.array(swarm.health), axis=1, kind="stable")
    rows = np.concatenate([order[:, :keep], order[:, : size - keep]], axis=1)
    swarm.theta[:] = np.take_along_axis(swarm.theta, rows[..., None], axis=1)
    swarm.f_plain = [[f_plain[i] for i in ranked]
                     for f_plain, ranked in zip(swarm.f_plain, rows.tolist())]
    swarm.health = [[0.0] * size for _ in swarm.health]


def _disperse(
    swarm: SwarmState,
    engines: Sequence[StochasticEngine],
    score: Callable[[np.ndarray], np.ndarray],
    params: BfaParams,
) -> None:
    """Independently disperse each bacterium of every run with probability ``p_elim``.

    Each run draws all its decisions and positions first, bacterium by
    bacterium: one unit draw decides, and a dispersed bacterium takes a
    block of four unit draws for a fresh position. The dispersed bacteria
    are then placed and re-evaluated in one score call; a dispersal that
    moves nobody makes none. The best-so-far archive is never erased.
    """
    positions = swarm.theta.copy()
    moved = np.zeros(positions.shape[:2], dtype=bool)
    for b, engine in enumerate(engines):
        for i in range(positions.shape[1]):
            if engine.sample_unit() < params.p_elim:
                positions[b, i] = engine.sample_units(N_DIMENSIONS)
                moved[b, i] = True
    if moved.any():
        _place(swarm, positions, moved, score, params)


def _run_floats(params: BfaParams) -> int:
    """The float64s one run adds to the largest array of a batched call.

    That is the generation's (B, S, n_swim + 2, 4) block of swim paths
    and, with swarming, its term's (4, B, n_swim + 2, S) block of squared
    differences, which holds as many.
    """
    return N_DIMENSIONS * params.pop_size * (params.n_swim + 2)


def _batch_limit(params: BfaParams) -> int:
    """The most runs with ``params`` one lockstep batch holds; 0 if one run is too large."""
    return _MAX_ARRAY_FLOATS // _run_floats(params)


def run_batch(
    score: Callable[[np.ndarray], np.ndarray],
    params: BfaParams,
    engine_configs: Sequence[EngineConfig],
    observer: Optional[Observer] = None,
) -> list[RunResult]:
    """Run the optimizer once per engine config, in lockstep, maximizing ``score``.

    ``score`` is a block scorer: it maps float64 unit points shaped
    ``(B, ..., 4)``, run ``b``'s in row ``b``, to the float64 ``(B, ...)``
    array of their values, as ``problem.unit_block_scorer(weights)`` does;
    ``lambda points: np.apply_along_axis(f, -1, points)`` adapts a function
    ``f`` of one point. The batch scores all its swim paths in one call per
    generation; each result is bit-identical to the run alone and leaves
    ``best_decision`` and ``best_objectives`` ``None``. ``observer``, if
    given, sees the batch's state after each generation, run ``b`` in row ``b``.

    Raises :class:`ConfigError` when ``score`` returns any other block,
    :class:`DomainError` at a non-finite value, so a broken objective never
    yields a plausible-looking result, and :class:`ConfigError`, before the
    first draw, when one array of the batch would hold more than
    ``_MAX_ARRAY_FLOATS`` float64s.
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
    swarm = _initialize(engines, params, score)
    dispersal_period = params.n_chemo * params.n_repro
    for generation in range(1, params.n_total + 1):
        _generation(swarm, engines, score, params)
        # reproduction and dispersal happen between generations; one that
        # falls exactly on the budget boundary is skipped, so the final
        # trace entry always reflects the final archive
        if generation < params.n_total:
            if generation % params.n_chemo == 0:
                _reproduce(swarm)
            if generation % dispersal_period == 0:
                _disperse(swarm, engines, score, params)
        if observer is not None:
            observer(generation, swarm)
    return [RunResult(best_theta=tuple(swarm.best_theta[b].tolist()),
                      best_decision=None,
                      best_objectives=None,
                      best_f=swarm.best_f[b],
                      trace=tuple(swarm.trace[b]),
                      evaluations=swarm.evaluations[b],
                      seed=config.seed)
            for b, config in enumerate(engine_configs)]


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
    result = run_batch(unit_block_scorer([weights]), params, [engine_config], observer)[0]
    decision = to_physical(result.best_theta)
    return replace(result, best_decision=decision, best_objectives=evaluate(decision))
