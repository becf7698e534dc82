"""Independent references that the benchmark checks bforage's outputs against.

* :func:`weighted_optimum` -- the exact maximum of a weighted sum of the four
  responses over the process box, by enumerating the 3**4 active sets.
* :func:`union_volume` -- the volume dominated by a point set, by
  inclusion-exclusion over every subset (desk-size sets only).
* :func:`derive_seed` -- the documented per-run seed construction of a sweep.

Objective values come from ``tests/polynomial_oracle.py``, a straight-line
evaluator that shares no code with ``bforage.problem``; the box is restated
from the model's specification rather than imported.
"""

from __future__ import annotations

import hashlib
import importlib.util
import itertools
import struct
from pathlib import Path

import numpy as np

LOWER = np.array([1.5, 30.0, 3.0, 60.0])
UPPER = np.array([2.5, 50.0, 5.0, 100.0])
SPAN = UPPER - LOWER

_ORACLE_PATH = Path(__file__).resolve().parents[1] / "tests" / "polynomial_oracle.py"
_spec = importlib.util.spec_from_file_location("polynomial_oracle", _ORACLE_PATH)
polynomial_oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(polynomial_oracle)

# a reduced Hessian whose condition number exceeds this is treated as
# singular: its face has no isolated stationary point, and the face's
# maximum is then attained on one of its lower faces, which are enumerated too
_SINGULAR_CONDITION = 1e12


def objectives(x) -> np.ndarray:
    """The four responses at physical point(s) ``x`` (shape ``(..., 4)``)."""
    x = np.asarray(x, dtype=float)
    f = polynomial_oracle.oracle_objectives(x[..., 0], x[..., 1], x[..., 2], x[..., 3])
    return np.stack([np.asarray(v, dtype=float) for v in f], axis=-1)


def weighted_value(weights, x) -> np.ndarray:
    """``sum_i w_i f_i(x)`` by the polynomial oracle; any real weights."""
    f = objectives(x)
    w1, w2, w3, w4 = (float(v) for v in weights)
    return w1 * f[..., 0] + w2 * f[..., 1] + w3 * f[..., 2] + w4 * f[..., 3]


def _unit_quadratic(weights):
    """Gradient and Hessian of the weighted sum in unit coordinates at the centre.

    Recovered from oracle values at the centre, at the face centres and at
    the centres of the 2-faces; exact for a quadratic up to rounding.
    """
    h = 0.5
    centre = np.full(4, 0.5)

    def q(u):
        return float(weighted_value(weights, LOWER + np.asarray(u) * SPAN))

    q0 = q(centre)
    eye = np.eye(4)
    plus = [q(centre + h * eye[i]) for i in range(4)]
    minus = [q(centre - h * eye[i]) for i in range(4)]
    grad = np.array([(plus[i] - minus[i]) / (2 * h) for i in range(4)])
    hess = np.empty((4, 4))
    for i in range(4):
        hess[i, i] = (plus[i] + minus[i] - 2 * q0) / h**2
        for j in range(i + 1, 4):
            both = q(centre + h * eye[i] + h * eye[j])
            hess[i, j] = hess[j, i] = (both - plus[i] - plus[j] + q0) / h**2
    return centre, grad, hess


def weighted_optimum(weights) -> tuple[float, np.ndarray]:
    """Exact maximum of the weighted sum over the box and a physical maximizer.

    Each variable is at its lower bound, at its upper bound or free; on each
    of the 81 faces the free variables solve the reduced stationarity
    system. Singular faces are skipped, and stationary points outside the
    box are dropped. Every surviving candidate is scored by the oracle.
    """
    centre, grad, hess = _unit_quadratic(weights)
    best_value, best_x = -np.inf, None
    for states in itertools.product((0.0, 1.0, None), repeat=4):
        free = [i for i, s in enumerate(states) if s is None]
        fixed = [i for i, s in enumerate(states) if s is not None]
        u = np.array([0.0 if s is None else s for s in states])
        if free:
            h_ff = hess[np.ix_(free, free)]
            if np.linalg.cond(h_ff) > _SINGULAR_CONDITION:
                continue
            rhs = grad[free] + hess[np.ix_(free, fixed)] @ (u[fixed] - centre[fixed])
            u_free = centre[free] - np.linalg.solve(h_ff, rhs)
            if not np.all((u_free >= -1e-12) & (u_free <= 1 + 1e-12)):
                continue
            u[free] = np.clip(u_free, 0.0, 1.0)
        x = LOWER + u * SPAN
        value = float(weighted_value(weights, x))
        if value > best_value:
            best_value, best_x = value, x
    return best_value, best_x


def check_optimum(weights, value: float, rng: np.random.Generator, samples: int = 4096) -> None:
    """Raise unless ``value`` beats every box vertex and a seeded feasible sample."""
    vertices = LOWER + np.array(list(itertools.product((0.0, 1.0), repeat=4))) * SPAN
    points = np.concatenate([vertices, LOWER + rng.random((samples, 4)) * SPAN])
    rivals = weighted_value(weights, points)
    slack = 1e-9 * max(1.0, abs(value))
    if not np.all(rivals <= value + slack):
        worst = int(np.argmax(rivals))
        raise AssertionError(
            f"oracle optimum {value!r} at weights {tuple(weights)} is beaten by "
            f"{rivals[worst]!r} at {tuple(points[worst])}"
        )


def objective_ranges() -> tuple[np.ndarray, np.ndarray]:
    """Per-objective minimum and maximum over the box."""
    lows, highs = [], []
    for i in range(4):
        unit = np.eye(4)[i]
        highs.append(weighted_optimum(unit)[0])
        lows.append(-weighted_optimum(-unit)[0])
    return np.array(lows), np.array(highs)


def union_volume(points, reference) -> float:
    """Volume of the union of boxes ``[reference, p]`` by inclusion-exclusion.

    Walks all ``2**n - 1`` non-empty subsets, so only for small ``n``.
    """
    pts = np.asarray(points, dtype=float)
    ref = np.asarray(reference, dtype=float)
    n = len(pts)
    if n > 20:
        raise ValueError(f"inclusion-exclusion over {n} points is out of reach")
    # meet[m] = coordinate-wise minimum over the subset with bitmask m
    meet = np.full((1 << n, pts.shape[1]), np.inf)
    parity = np.zeros(1 << n, dtype=np.int64)
    for bit in range(n):
        lo, hi = 1 << bit, 1 << (bit + 1)
        meet[lo:hi] = np.minimum(meet[: hi - lo], pts[bit])
        parity[lo:hi] = parity[: hi - lo] + 1
    sizes = np.clip(meet[1:] - ref, 0.0, None).prod(axis=1)
    signs = np.where(parity[1:] % 2 == 1, 1.0, -1.0)
    return float(np.sum(signs * sizes))


def derive_seed(master_seed: int, engine_index: int, weight_index: int, run_index: int) -> int:
    """BLAKE2b-64 of the four indices packed as little-endian unsigned 64-bit words."""
    packed = struct.pack("<QQQQ", master_seed, engine_index, weight_index, run_index)
    return int.from_bytes(hashlib.blake2b(packed, digest_size=8).digest(), "little")
