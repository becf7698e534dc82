"""Reference hypervolume routines that the tests compare ``bforage.metrics`` against.

``recursive_sweep_volume`` is the exact routine the package used before the
grid dimension sweep: it sorts on the last objective and recomputes the
volume of every nondominated slab one dimension down, so it costs about
n^2.5 on 4-D fronts. ``unchunked_monte_carlo`` is the sampling estimator
before chunking: it holds every sample at once and re-indexes the
uncovered ones after each point. ``nondominated_mask`` is the Pareto mask
before it compared rows a block at a time: it builds every n x n x d
comparison at once. All are kept here, free of imports from the package, as
oracles: the exact volume agrees with the package to rounding, the sampling
estimate and the mask to the last bit.
"""

from __future__ import annotations

import numpy as np


def nondominated_mask(pts: np.ndarray) -> np.ndarray:
    """Maximal rows of ``pts``, first occurrence kept among equal rows."""
    ge = (pts[None, :, :] >= pts[:, None, :]).all(axis=-1)
    gt = (pts[None, :, :] > pts[:, None, :]).any(axis=-1)
    dominated = (ge & gt).any(axis=1)
    equal = ge & ge.T
    duplicate = np.triu(equal, k=1).any(axis=0)
    return ~dominated & ~duplicate


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
            slab = slab[nondominated_mask(slab)]
            volume += width * _sweep(slab, dim - 1)
    return volume


def recursive_sweep_volume(points, reference) -> float:
    """Dominated hypervolume by recursive slab sweep (points must dominate the reference)."""
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        return 0.0
    shifted = pts - np.asarray(reference, dtype=float)
    shifted = shifted[nondominated_mask(shifted)]
    return float(_sweep(shifted, shifted.shape[1]))


def unchunked_monte_carlo(points, reference, samples: int, seed: int) -> float:
    """Sampling estimate drawing all ``samples`` rows in one block."""
    pts = np.asarray(points, dtype=float)
    ref = np.asarray(reference, dtype=float)
    upper = pts.max(axis=0)
    box_volume = float(np.prod(upper - ref))
    if box_volume == 0.0:
        return 0.0
    rng = np.random.Generator(np.random.PCG64(seed))
    draws = rng.random((samples, pts.shape[1])) * (upper - ref) + ref
    pts = pts[nondominated_mask(pts)]
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
