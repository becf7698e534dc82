"""Frontier and run-quality metrics (maximization throughout).

* :func:`pareto_filter` -- drop dominated and duplicate points.
* :func:`hvi_exact` -- exact hypervolume dominated relative to a reference
  point, by recursive dimension sweep (practical for up to 4 objectives).
* :func:`hvi_monte_carlo` -- seeded sampling estimate of the same volume,
  kept as an independent cross-check of the exact routine.
* :func:`aer` -- average explorative rate of a best-so-far trace: the
  fraction of iterations whose relative improvement clears a threshold.
"""

from __future__ import annotations

import math
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
    "hvi_percent_gap",
]

_MAX_DIMENSION = 4


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
    # ge[i, j]: point j is >= point i in every coordinate
    ge = (pts[None, :, :] >= pts[:, None, :]).all(axis=-1)
    gt = (pts[None, :, :] > pts[:, None, :]).any(axis=-1)
    dominated = (ge & gt).any(axis=1)
    equal = ge & ge.T
    duplicate = np.triu(equal, k=1).any(axis=0)  # keep the first of equal rows
    return ~dominated & ~duplicate


def pareto_filter(points) -> np.ndarray:
    """Maximal subset of a point set, first occurrence kept on ties."""
    pts = _as_point_matrix(points)
    if len(pts) == 0:
        return pts
    return pts[_nondominated_mask(pts)]


def _staircase_area(pts: np.ndarray) -> float:
    # pts: nondominated 2-D points with non-negative coordinates
    order = np.argsort(-pts[:, 1], kind="stable")
    xs = pts[order, 0]
    ys = pts[order, 1]
    lower = np.append(ys[1:], 0.0)
    return float(np.sum(xs * (ys - lower)))


def _sweep(pts: np.ndarray, dim: int) -> float:
    if dim == 1:
        return float(pts[:, 0].max())
    if dim == 2:
        return _staircase_area(pts)
    order = np.argsort(-pts[:, dim - 1], kind="stable")
    pts = pts[order]
    levels = np.append(pts[:, dim - 1], 0.0)
    volume = 0.0
    for j in range(len(pts)):
        width = float(levels[j] - levels[j + 1])
        if width > 0.0:
            slab = pts[: j + 1, : dim - 1]
            slab = slab[_nondominated_mask(slab)]
            volume += width * _sweep(slab, dim - 1)
    return volume


def _check_reference(pts: np.ndarray, ref: np.ndarray) -> None:
    bad = ~(pts >= ref).all(axis=1)
    if bad.any():
        index = int(np.flatnonzero(bad)[0])
        raise ReferencePointError(
            f"point {tuple(pts[index])} does not weakly dominate the reference {tuple(ref)}"
        )


def hvi_exact(points, reference) -> float:
    """Exact dominated hypervolume of ``points`` relative to ``reference``.

    Every point must weakly dominate the reference (coordinate-wise >=);
    dominated and duplicate points contribute nothing.
    """
    pts = _as_point_matrix(points)
    if len(pts) == 0:
        return 0.0
    ref = np.asarray(reference, dtype=float)
    if ref.shape != (pts.shape[1],):
        raise ConfigError(f"reference has dimension {ref.shape}, points have {pts.shape[1]}")
    _check_reference(pts, ref)
    shifted = pts - ref
    shifted = shifted[_nondominated_mask(shifted)]
    return float(_sweep(shifted, shifted.shape[1]))


def hvi_monte_carlo(points, reference, samples: int, seed: int) -> float:
    """Sampling estimate of the dominated hypervolume (seeded, reproducible).

    Uniform samples are drawn inside the bounding box spanned by the
    reference and the coordinate-wise maximum; the dominated fraction
    scales the box volume.
    """
    if samples < 1:
        raise ConfigError(f"samples must be >= 1, got {samples}")
    pts = _as_point_matrix(points)
    if len(pts) == 0:
        return 0.0
    ref = np.asarray(reference, dtype=float)
    if ref.shape != (pts.shape[1],):
        raise ConfigError(f"reference has dimension {ref.shape}, points have {pts.shape[1]}")
    _check_reference(pts, ref)
    upper = pts.max(axis=0)
    box_volume = float(np.prod(upper - ref))
    if box_volume == 0.0:
        return 0.0
    rng = np.random.Generator(np.random.PCG64(seed))
    draws = rng.random((samples, pts.shape[1])) * (upper - ref) + ref
    # only maximal points matter for the union; visit big boxes first and
    # drop samples as soon as something covers them
    pts = pts[_nondominated_mask(pts)]
    order = np.argsort(-np.prod(pts - ref, axis=1), kind="stable")
    remaining = draws
    hits = 0
    for p in pts[order]:
        mask = (remaining <= p).all(axis=1)
        hits += int(np.count_nonzero(mask))
        remaining = remaining[~mask]
        if remaining.shape[0] == 0:
            break
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


def hvi_percent_gap(hv_a: float, hv_b: float) -> float:
    """Relative dominance gap of ``hv_a`` over ``hv_b``, in percent."""
    if hv_b == 0.0:
        raise ZeroDivisionError("reference hypervolume is zero")
    return 100.0 * (hv_a - hv_b) / hv_b
