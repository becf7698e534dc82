"""Resin-bonded sand mould model: four response surfaces over a box.

The decision variables are the moulding process settings -- resin
percentage ``A``, hardener percentage ``B``, number of strokes ``C`` and
curing time ``D`` (minutes). The four responses (permeability, compression
strength, tensile strength, shear strength) are quadratic regression
polynomials with pairwise interaction terms; all four are maximized.

The optimizer works in the unit hypercube; :func:`to_physical` maps unit
coordinates onto the variable box.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, InfeasibleError

__all__ = [
    "DecisionVector",
    "ObjectiveVector",
    "WeightVector",
    "LOWER_BOUNDS",
    "UPPER_BOUNDS",
    "COEFFICIENTS",
    "evaluate",
    "aggregate",
    "to_physical",
    "unit_scorer",
]

VARIABLE_NAMES = ("A", "B", "C", "D")
LOWER_BOUNDS = np.array([1.5, 30.0, 3.0, 60.0])
UPPER_BOUNDS = np.array([2.5, 50.0, 5.0, 100.0])
_SPAN = UPPER_BOUNDS - LOWER_BOUNDS

# Term order shared by all four responses:
#   1, A, B, C, D, A^2, B^2, C^2, D^2, AB, AC, AD, BC, BD, CD
COEFFICIENTS = np.array([
    [-333.77, 614.73, -27.435, 630.36, -18.97,
     -168.98, 0.239, -76.08, 0.111,
     2.827, 0.575, 0.047, -0.7701, 0.1323, -0.1883],
    [2765.36, 877.869, -112.778, -731.934, 17.9222,
     -357.829, 0.983456, 52.2310, -0.0276946,
     14.6571, 96.8495, -3.74068, 7.62554, -0.096084, -1.27093],
    [-354.406, 211.418, 17.3611, 96.7916, 2.78503,
     -44.7516, -0.173996, -10.6696, -0.026223,
     -2.08868, 6.05542, 0.197646, 2.07847, -0.078904, 1.18561],
    [318.163, 726.696, 33.3432, -721.381, 2.40622,
     -210.057, -0.189623, 80.1788, 0.000987,
     -1.89739, 49.8702, -0.32471, -1.70998, -0.07323, 0.306223],
])


class DecisionVector(NamedTuple):
    """One point in the process-parameter box."""

    A: float
    B: float
    C: float
    D: float


class ObjectiveVector(NamedTuple):
    """The four response values at a decision point (all maximized)."""

    f1: float  # permeability
    f2: float  # compression strength
    f3: float  # tensile strength
    f4: float  # shear strength


@dataclass(frozen=True)
class WeightVector:
    """Convex weighting of the four objectives; components sum to one."""

    w1: float
    w2: float
    w3: float
    w4: float

    def __post_init__(self):
        for name, value in zip(("w1", "w2", "w3", "w4"), self):
            if not value >= 0:  # NaN fails too
                raise ConfigError(f"{name} must be non-negative, got {value}")
        total = self.w1 + self.w2 + self.w3 + self.w4
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"weights must sum to 1 (within 1e-9), got {total!r}")

    def __iter__(self):
        return iter((self.w1, self.w2, self.w3, self.w4))

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.w1, self.w2, self.w3, self.w4)


def _check_bounds(x: DecisionVector) -> None:
    for name, value, lo, hi in zip(VARIABLE_NAMES, x, LOWER_BOUNDS, UPPER_BOUNDS):
        if not lo <= value <= hi:
            raise InfeasibleError(f"{name}={value} outside [{lo}, {hi}]")


def _responses(a: float, b: float, c: float, d: float) -> list[float]:
    """The four response polynomials at ``(a, b, c, d)``, unchecked."""
    terms = np.array([
        1.0, a, b, c, d,
        a * a, b * b, c * c, d * d,
        a * b, a * c, a * d, b * c, b * d, c * d,
    ])
    return (COEFFICIENTS @ terms).tolist()


def evaluate(x: DecisionVector | Sequence[float]) -> ObjectiveVector:
    """Evaluate the four response polynomials at a feasible point."""
    x = DecisionVector(*x)
    _check_bounds(x)
    return ObjectiveVector._make(_responses(*x))


def aggregate(f: ObjectiveVector | Sequence[float], w: WeightVector) -> float:
    """Weighted sum of the objectives, the scalar being maximized."""
    f1, f2, f3, f4 = f
    return w.w1 * f1 + w.w2 * f2 + w.w3 * f3 + w.w4 * f4


def to_physical(u: Sequence[float] | np.ndarray) -> DecisionVector:
    """Map unit-cube coordinates onto the variable box (affine, per axis)."""
    values = LOWER_BOUNDS + np.asarray(u, dtype=float) * _SPAN
    return DecisionVector._make(values.tolist())


def unit_scorer(w: WeightVector) -> Callable[[np.ndarray], float]:
    """The weighted objective at a unit-cube point, as a function of the point.

    ``unit_scorer(w)(u) == aggregate(evaluate(to_physical(u)), w)`` bit for
    bit: the same affine map, term array, matrix product and left-to-right
    weighted sum, without the named tuples and without the bounds check,
    which cannot fail for ``u`` in [0, 1]⁴ since ``LOWER + u * SPAN`` then
    lies in the box. ``u`` must be a float array of shape (4,).
    """
    w1, w2, w3, w4 = w

    def score(u: np.ndarray) -> float:
        f1, f2, f3, f4 = _responses(*(LOWER_BOUNDS + u * _SPAN).tolist())
        return w1 * f1 + w2 * f2 + w3 * f3 + w4 * f4

    return score
