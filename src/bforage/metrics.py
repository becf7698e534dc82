"""Frontier and run-quality metrics (maximization throughout).

* :func:`pareto_filter` -- drop dominated and duplicate points. In
  descending lexicographic order, stable on ties, a point is dropped
  exactly when some point before it is >= it in every coordinate, which
  covers dominated points and later copies of equal ones alike. Blocks of
  256 rows are compared only with the rows before them, so about n^2 / 2
  comparisons of d - 1 coordinates are made (the first is sorted); 4-D
  fronts of 84, 336 and 2925 points take about 0.09 ms, 0.5 ms and 14 ms
  of CPU on a 2-core x86 host.
* :func:`hvi_exact` -- exact hypervolume dominated relative to a reference
  point, for up to 4 objectives, by one dimension sweep (after Beume et
  al. 2009 and HV4D+ of Guerreiro & Fonseca 2018). Points are inserted in
  descending order of the last objective into a coordinate-compressed
  (f1, f2) grid whose cells hold the largest f3 of the inserted points
  that dominate them. An insertion raises the cells its point dominates
  to its f3, the 3-D volume grows by the area-weighted rise, and the 4-D
  volume adds the slab width down to the next point times the current 3-D
  volume. Fewer objectives are padded with unit sides, so one path serves
  1 to 4. Cost: n insertions over an n x n grid, O(n^3) at worst; an
  insertion touches only the cells still below its f3, so nondominated
  4-D fronts of 84, 200, 455 and 1000 points take about 1.2 ms, 3.5 ms,
  16 ms and 90 ms of CPU on a 2-core x86 host.
* :func:`hvi_monte_carlo` -- seeded sampling estimate of the same volume,
  kept as an independent cross-check of the exact routine: every sample
  is decided by direct comparisons with the points. Samples are drawn
  and tested in chunks of 2^15, whose draws and transposed columns (1 MB
  each in 4-D) fit in a 2 MB L2 cache; the buffers are made once per
  call, so 10^6 samples trace about 3.4 MB. Points are tested largest box
  first, and after the 2nd, 8th and 32nd point the covered samples leave
  the chunk. The estimate is bit-identical to drawing every sample in one
  block and testing every point. 10^6 samples take about 0.07 s on 84
  points covering 69 % of the box and 0.10 s on 84 covering 20 %, and
  0.49 s and 0.69 s on 1000 points covering 71 % and 26 %.
* :func:`aer` -- average explorative rate of a best-so-far trace: the
  fraction of iterations whose relative improvement clears a threshold.
"""

from __future__ import annotations

import math
import numbers
from typing import Sequence

import numpy as np

from .errors import (
    ConfigError,
    DegenerateTraceError,
    ReferencePointError,
)

__all__ = [
    "pareto_filter",
    "hvi_exact",
    "hvi_monte_carlo",
    "aer",
]

_MAX_DIMENSION = 4
_MC_CHUNK = 1 << 15  # Monte Carlo samples drawn and tested at a time
_MC_CHECKPOINTS = (2, 8, 32)  # points tested before covered samples leave a chunk
_PARETO_BLOCK = 256  # rows the Pareto mask compares with every point at a time


def _as_point_matrix(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        return pts.reshape(0, 0)
    if pts.ndim != 2:
        raise ConfigError(f"expected a 2-D point set, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise ConfigError("point set contains non-finite values")
    if pts.shape[1] > _MAX_DIMENSION:
        raise ConfigError(f"at most {_MAX_DIMENSION} objectives supported, got {pts.shape[1]}")
    return pts


def _nondominated_mask(pts: np.ndarray) -> np.ndarray:
    # in descending lexicographic order (stable, so equal rows keep their
    # input order) a dominating point or an earlier copy comes before the
    # point it removes, and neither can come after; so a point is dropped
    # exactly when some point before it is >= it in every coordinate. Each
    # block of rows is compared with the rows before it only, so the
    # temporaries are _PARETO_BLOCK x n booleans at most
    n = len(pts)
    order = np.lexsort(-pts.T[::-1])
    # the first coordinate never increases in this order, so it is skipped
    columns = np.ascontiguousarray(pts[order, 1:].T)
    kept = np.empty(n, dtype=bool)
    for start in range(0, n, _PARETO_BLOCK):
        stop = min(start + _PARETO_BLOCK, n)
        # covered[r, j]: row j comes before row start + r and is >= it in every coordinate
        covered = np.ones((stop - start, stop), dtype=bool)
        covered[:, start:] = np.tri(stop - start, k=-1, dtype=bool)
        for column in columns:
            covered &= column[:stop] >= column[start:stop, None]
        kept[start:stop] = ~covered.any(axis=1)
    keep = np.empty(n, dtype=bool)
    keep[order] = kept
    return keep


def pareto_filter(points) -> np.ndarray:
    """Maximal subset of a point set, first occurrence kept on ties."""
    pts = _as_point_matrix(points)
    if len(pts) == 0:
        return pts
    return pts[_nondominated_mask(pts)]


def _grid_sweep(pts: np.ndarray) -> float:
    # pts: nondominated points with non-negative coordinates, 1 to 4 columns;
    # unit sides pad them to four, which scales the volume by exactly 1.
    # heights[i, j] is the largest f3 of the points inserted so far that
    # dominate grid cell (i, j), so volume3 is their 3-D volume
    pts = np.hstack([pts, np.ones((len(pts), _MAX_DIMENSION - pts.shape[1]))])
    pts = pts[np.argsort(-pts[:, 3], kind="stable")]
    # grid lines at the sorted f1 and f2 values; a tie only adds a cell of
    # zero width, and a point dominates the cells up to its last equal line
    xs = np.sort(pts[:, 0])
    ys = np.sort(pts[:, 1])
    area = np.outer(np.diff(xs, prepend=0.0), np.diff(ys, prepend=0.0))
    rows = np.searchsorted(xs, pts[:, 0], side="right")
    cols = np.searchsorted(ys, pts[:, 1], side="right")
    widths = pts[:, 3] - np.append(pts[1:, 3], 0.0)
    heights = np.zeros_like(area)
    volume3 = 0.0
    volume = 0.0
    for i, j, f3, width in zip(rows, cols, pts[:, 2], widths):
        # heights never increase away from the origin along a row or a
        # column, so the cells already at f3 or above fill leading rows and
        # columns of the dominated block; only the rest can rise
        i0 = np.count_nonzero(heights[:i, j - 1] >= f3)
        j0 = np.count_nonzero(heights[i - 1, :j] >= f3)
        block = heights[i0:i, j0:j]
        raised = np.maximum(block, f3)
        volume3 += float(np.sum((raised - block) * area[i0:i, j0:j]))
        block[...] = raised
        volume += float(width) * volume3
    return volume


def _validated(points, reference) -> tuple[np.ndarray, np.ndarray]:
    pts = _as_point_matrix(points)
    ref = np.asarray(reference, dtype=float)
    if not np.isfinite(ref).all():
        raise ConfigError(f"reference must be finite, got {ref.tolist()}")
    if len(pts) == 0:
        return pts, ref
    if ref.shape != (pts.shape[1],):
        raise ConfigError(f"reference has dimension {ref.shape}, points have {pts.shape[1]}")
    bad = ~(pts >= ref).all(axis=1)
    if bad.any():
        index = int(np.flatnonzero(bad)[0])
        raise ReferencePointError(
            f"point {tuple(pts[index].tolist())} does not weakly dominate "
            f"the reference {tuple(ref.tolist())}"
        )
    return pts, ref


def _check_count(value, name: str, minimum: int) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ConfigError(f"{name} must be an integer >= {minimum}, got {value!r}")


def hvi_exact(points, reference) -> float:
    """Exact dominated hypervolume of ``points`` relative to ``reference``.

    Every point must weakly dominate the reference (coordinate-wise >=),
    and the reference must be finite; dominated and duplicate points
    contribute nothing.
    """
    pts, ref = _validated(points, reference)
    if len(pts) == 0:
        return 0.0
    shifted = pts - ref
    return _grid_sweep(shifted[_nondominated_mask(shifted)])


def hvi_monte_carlo(points, reference, samples: int, seed: int) -> float:
    """Sampling estimate of the dominated hypervolume (seeded, reproducible).

    Uniform samples are drawn inside the bounding box spanned by the
    reference and the coordinate-wise maximum; the dominated fraction
    scales the box volume. ``samples`` must be a positive integer and
    ``seed`` a non-negative one.
    """
    _check_count(samples, "samples", 1)
    _check_count(seed, "seed", 0)
    pts, ref = _validated(points, reference)
    if len(pts) == 0:
        return 0.0
    upper = pts.max(axis=0)
    box_volume = float(np.prod(upper - ref))
    if box_volume == 0.0:
        return 0.0
    # only maximal points matter for the union; largest boxes first, so the
    # first checkpoints drop most covered samples. A covered count does not
    # depend on the order the points are tested in, so neither does the estimate
    pts = pts[_nondominated_mask(pts)]
    pts = pts[np.argsort(-np.prod(pts - ref, axis=1), kind="stable")]
    stages = [stage for stage in np.split(pts, _MC_CHECKPOINTS) if len(stage)]
    span = upper - ref
    dim = pts.shape[1]
    size = min(_MC_CHUNK, samples)
    # two flat buffers take turns: the draws land in one and are transposed
    # into the other, and each checkpoint compresses the uncovered samples
    # into whichever one does not hold them
    spare = np.empty(dim * size)
    held = np.empty(dim * size)
    below_buffer = np.empty(dim * size, dtype=bool)
    inside_buffer = np.empty(size, dtype=bool)
    covered_buffer = np.empty(size, dtype=bool)
    rng = np.random.Generator(np.random.PCG64(seed))
    hits = 0
    for start in range(0, samples, _MC_CHUNK):
        left = min(_MC_CHUNK, samples - start)
        # PCG64 yields the same doubles in chunks as in one block, and scaling
        # in place gives the bits of draws * (upper - ref) + ref
        draws = rng.random(out=spare[: left * dim].reshape(left, dim))
        draws *= span
        draws += ref
        columns = held[: dim * left].reshape(dim, left)
        columns[...] = draws.T
        for number, stage in enumerate(stages):
            below = below_buffer[: dim * left].reshape(dim, left)
            inside = inside_buffer[:left]
            covered = covered_buffer[:left]
            covered[...] = False
            for p in stage:
                np.less_equal(columns, p[:, None], out=below)
                np.logical_and.reduce(below, axis=0, out=inside)
                covered |= inside
            stage_hits = int(np.count_nonzero(covered))
            hits += stage_hits
            left -= stage_hits
            if left == 0 or number + 1 == len(stages):
                break
            # only the uncovered samples go on to the next stage
            uncovered = np.logical_not(covered, out=covered)
            columns = np.compress(uncovered, columns, axis=1,
                                  out=spare[: dim * left].reshape(dim, left))
            spare, held = held, spare
    return box_volume * (hits / samples)


def aer(trace: Sequence[float], threshold: float) -> float:
    """Average explorative rate of a trace at a relative-deviation threshold.

    The deviation at step ``n`` is ``|f[n+1] - f[n]| / |f[n]|``; each step
    whose deviation reaches ``threshold`` counts. The result lies in
    [0, 1]. A trace shorter than two values, or one containing an exact
    zero or a non-finite value, has no defined rate.
    """
    if not threshold >= 0:
        raise ConfigError(f"threshold must be non-negative, got {threshold}")
    values = [float(v) for v in trace]
    if len(values) < 2:
        raise DegenerateTraceError("at least two trace values are needed")
    if any(v == 0.0 for v in values):
        raise DegenerateTraceError("trace contains an exact zero; relative deviation undefined")
    if not all(map(math.isfinite, values)):
        raise DegenerateTraceError("trace contains a non-finite value")
    steps = len(values) - 1
    hits = 0
    for current, following in zip(values, values[1:]):
        deviation = abs(following - current) / abs(current)
        if deviation >= threshold:
            hits += 1
    return hits / steps
