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
    "unit_block_scorer",
]

VARIABLE_NAMES = ("A", "B", "C", "D")
LOWER_BOUNDS = np.array([1.5, 30.0, 3.0, 60.0])
UPPER_BOUNDS = np.array([2.5, 50.0, 5.0, 100.0])
_SPAN = UPPER_BOUNDS - LOWER_BOUNDS

# Term order shared by all four responses:
#   1, A, B, C, D, A^2, B^2, C^2, D^2, AB, AC, AD, BC, BD, CD
_CROSS_ROWS, _CROSS_COLS = np.triu_indices(4, 1)  # the last six: (0, 1), (0, 2), ... (2, 3)
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


class _WeightFields(NamedTuple):
    w1: float
    w2: float
    w3: float
    w4: float


class WeightVector(_WeightFields):
    """Convex weighting of the four objectives; components sum to one.

    A named tuple whose every construction is checked: the constructor,
    ``_make``, ``_replace``, and pickle and copy at any protocol, which
    rebuild through the constructor.
    """

    __slots__ = ()

    def __new__(cls, w1: float, w2: float, w3: float, w4: float):
        if not (w1 >= 0 and w2 >= 0 and w3 >= 0 and w4 >= 0):  # NaN fails too
            for name, value in zip(cls._fields, (w1, w2, w3, w4)):
                if not value >= 0:
                    raise ConfigError(f"{name} must be non-negative, got {value}")
        total = w1 + w2 + w3 + w4
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"weights must sum to 1 (within 1e-9), got {total!r}")
        return tuple.__new__(cls, (w1, w2, w3, w4))

    @classmethod
    def _make(cls, iterable) -> WeightVector:
        return cls(*iterable)

    def __reduce__(self):
        return type(self), tuple(self)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return tuple(self)


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


def _unit_quadratic(w: WeightVector) -> tuple[float, np.ndarray, np.ndarray]:
    """The weighted objective as a quadratic in unit coordinates.

    Returns ``(c, g, H)`` with ``aggregate(evaluate(to_physical(u)), w)``
    equal to ``c + g @ u + u @ H @ u / 2`` for every ``u``, up to rounding:
    ``c`` is the value at ``u = 0``, ``g`` (4,) the gradient there and
    ``H`` (4, 4) the symmetric Hessian. With the weighted polynomial
    written in physical coordinates as ``p0 + b @ x + x @ Q @ x / 2`` and
    ``x = L + S * u`` (``L`` the lower bounds, ``S`` the spans),
    ``c = p0 + (b + Q @ L / 2) @ L``, ``g = S * (b + Q @ L)`` and
    ``H = S Q S``.
    """
    p = np.array(w) @ COEFFICIENTS
    b = p[1:5]
    q = np.diag(2.0 * p[5:9])
    q[_CROSS_ROWS, _CROSS_COLS] = q[_CROSS_COLS, _CROSS_ROWS] = p[9:]
    q_lo = q @ LOWER_BOUNDS
    c = p[0] + (b + q_lo / 2.0) @ LOWER_BOUNDS
    return float(c), _SPAN * (b + q_lo), _SPAN[:, None] * q * _SPAN


def _unit_coefficients(w: WeightVector) -> list[float]:
    """The 15 coefficients of :func:`_unit_polynomial` for ``w``, in its argument order."""
    c, g, h = _unit_quadratic(w)
    return [c, *g.tolist(), *(h.diagonal() / 2).tolist(), *h[_CROSS_ROWS, _CROSS_COLS].tolist()]


def _unit_polynomial(c, g0, g1, g2, g3, h00, h11, h22, h33, h01, h02, h03, h12, h13, h23,
                     u0, u1, u2, u3):
    """The quadratic of :func:`_unit_quadratic` at ``(u0, u1, u2, u3)``, nested by
    the first variable of each term (``h_ii = H_ii / 2``, ``h_ij = H_ij`` for
    ``i < j``) and summed left to right.

    No bounds check: the model is a polynomial defined everywhere. On
    arrays, as :func:`unit_block_scorer` calls it, each ``+`` and ``*`` is
    one correctly rounded float64 operation, taken in the same order as on
    Python floats, so an array element has the bits of the scalar call at
    its point.
    """
    return (c + u0 * (g0 + h00 * u0 + h01 * u1 + h02 * u2 + h03 * u3)
            + u1 * (g1 + h11 * u1 + h12 * u2 + h13 * u3)
            + u2 * (g2 + h22 * u2 + h23 * u3)
            + u3 * (g3 + h33 * u3))


def unit_block_scorer(weights: Sequence[WeightVector]) -> Callable[[np.ndarray], np.ndarray]:
    """The weighted objective of each of B weight vectors over a block of points.

    The returned function maps a float array ``points`` of shape
    (B, ..., 4) to the (B, ...) array whose entries ``[b, ...]`` are
    :func:`_unit_polynomial` at ``points[b, ...]`` with the coefficients of
    ``weights[b]``, bit for bit the scalar call on Python floats. That agrees
    with ``aggregate(evaluate(to_physical(u)), w)`` to 1e-12 relative on
    [0, 1]⁴, but not bit for bit: the two sum in different orders. The
    coefficients are derived once, here; a lone run keeps them as Python
    floats, which numpy applies to an array faster than it broadcasts
    (1, 1, 1) arrays, with the same bits. Each call copies the
    points into four contiguous coordinate arrays, which cuts the cost of
    the polynomial's 28 operations by about a third at B = 16.
    """
    columns = np.array([_unit_coefficients(w) for w in weights]).T.copy()  # (15, B)
    alone = columns[:, 0].tolist() if len(weights) == 1 else None

    def score(points: np.ndarray) -> np.ndarray:
        coordinates = points.transpose(points.ndim - 1, *range(points.ndim - 1)).copy()
        if alone is not None:
            return _unit_polynomial(*alone, *coordinates)
        return _unit_polynomial(*columns.reshape(columns.shape + (1,) * (points.ndim - 2)),
                                *coordinates)

    return score
