import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bforage.errors import ConfigError, InfeasibleError
from bforage.problem import (
    COEFFICIENTS,
    DecisionVector,
    LOWER_BOUNDS,
    UPPER_BOUNDS,
    WeightVector,
    aggregate,
    evaluate,
    to_physical,
    unit_scorer,
)
from bforage.problem import _unit_quadratic
from polynomial_oracle import oracle_objectives

# Two previously reported best solutions for this model. The frozen
# objective vectors are what the model polynomials actually give at those
# decision points (independently recomputed); the objective values quoted
# alongside them in the original report disagree with the polynomials by
# 5%-228%, so the recomputed vectors are the regression truth and the
# quoted ones are retained only to document that mismatch.
REPORTED_DECISION_1 = (2.25034, 31.2589, 4.76753, 62.2761)
MODEL_OBJECTIVES_1 = (393.4207679359471, 1188.7030249165284,
                      1011.9909799507026, 333.2025180988497)
QUOTED_OBJECTIVES_1 = (841.718, 973.687, 312.121, 424.551)

REPORTED_DECISION_2 = (2.49418, 37.4942, 4.7164, 89.7164)
MODEL_OBJECTIVES_2 = (438.6280707634921, 1138.1149471037136,
                      1082.7486690361427, 329.96014751955397)
QUOTED_OBJECTIVES_2 = (763.173, 1082.75, 329.961, 438.523)

CORNER = (1.5, 30.0, 3.0, 60.0)
CORNER_OBJECTIVES = (336.89950000000033, 1072.03814, 702.80573, 349.82404000000014)


def random_feasible(rng):
    return tuple(rng.uniform(lo, hi) for lo, hi in zip(LOWER_BOUNDS, UPPER_BOUNDS))


def test_coefficient_table_checksum():
    # guards the 60 transcribed constants against silent edits
    assert float(COEFFICIENTS.sum()) == pytest.approx(3449.6588774, abs=1e-9)
    assert float(np.abs(COEFFICIENTS).sum()) == pytest.approx(9813.0543266, abs=1e-9)
    assert COEFFICIENTS.shape == (4, 15)


def test_evaluate_agrees_with_independent_oracle_on_random_points():
    rng = random.Random(1234)
    for _ in range(10_000):
        point = random_feasible(rng)
        got = evaluate(point)
        want = oracle_objectives(*point)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-9 * max(1.0, abs(w))


@pytest.mark.parametrize("decision,frozen", [
    (REPORTED_DECISION_1, MODEL_OBJECTIVES_1),
    (REPORTED_DECISION_2, MODEL_OBJECTIVES_2),
    (CORNER, CORNER_OBJECTIVES),
])
def test_frozen_fixture_points(decision, frozen):
    got = evaluate(decision)
    want = oracle_objectives(*decision)
    for g, w, f in zip(got, want, frozen):
        assert abs(g - w) <= 1e-9 * abs(w)
        assert g == pytest.approx(f, rel=1e-12)


def test_quoted_objective_rows_disagree_with_the_model():
    # documented data quirk: the objective values quoted alongside the
    # reported decision points do not satisfy the model polynomials there
    for decision, quoted in [
        (REPORTED_DECISION_1, QUOTED_OBJECTIVES_1),
        (REPORTED_DECISION_2, QUOTED_OBJECTIVES_2),
    ]:
        got = evaluate(decision)
        deviations = [abs(g - q) / abs(q) for g, q in zip(got, quoted)]
        assert max(deviations) > 0.01


@pytest.mark.parametrize("point,field", [
    ((9.9, 40.0, 4.0, 80.0), "A"),
    ((2.0, 29.9, 4.0, 80.0), "B"),
    ((2.0, 40.0, 5.1, 80.0), "C"),
    ((2.0, 40.0, 4.0, 101.0), "D"),
])
def test_evaluate_rejects_out_of_bounds(point, field):
    with pytest.raises(InfeasibleError) as err:
        evaluate(point)
    assert field in str(err.value)


def test_to_physical_corners_and_midpoint():
    assert to_physical((0, 0, 0, 0)) == DecisionVector(1.5, 30.0, 3.0, 60.0)
    assert to_physical((1, 1, 1, 1)) == DecisionVector(2.5, 50.0, 5.0, 100.0)
    assert to_physical((0.5, 0.5, 0.5, 0.5)) == DecisionVector(2.0, 40.0, 4.0, 80.0)


def test_physical_points_from_unit_cube_are_always_feasible():
    rng = np.random.Generator(np.random.PCG64(8))
    for _ in range(1000):
        evaluate(to_physical(np.clip(rng.uniform(-2, 3, size=4), 0.0, 1.0)))  # must not raise


SCORER_WEIGHTS = [WeightVector(0.25, 0.25, 0.25, 0.25), WeightVector(0.7, 0.1, 0.1, 0.1)] + [
    WeightVector(*(1.0 if j == i else 0.0 for j in range(4))) for i in range(4)]


def test_unit_scorer_agrees_with_the_model_to_1e_12():
    # a declared numerics change: the score sums the unit-coordinate
    # quadratic in its own order, so it agrees with the checked path and
    # with the oracle to a relative bound rather than bit for bit. Points:
    # 10**5 random ones, every point of {0, 1/2, 1}**4 (the corners, the
    # centres of every face and the cube's centre) and the largest uniform
    rng = np.random.Generator(np.random.PCG64(17))
    grid = np.array(np.meshgrid(*[[0.0, 0.5, 1.0]] * 4)).reshape(4, -1).T
    points = np.concatenate([rng.random((100_000, 4)), grid, np.full((1, 4), 1.0 - 2.0**-53)])
    checked = [evaluate(to_physical(u)) for u in points]
    oracle = [oracle_objectives(*to_physical(u)) for u in points]
    for weights in SCORER_WEIGHTS:
        score = unit_scorer(weights)
        for u, f_checked, f_oracle in zip(points, checked, oracle):
            value = score(u)
            assert type(value) is float
            for want in (aggregate(f_checked, weights), aggregate(f_oracle, weights)):
                assert abs(value - want) <= 1e-12 * abs(want)


def test_unit_scorer_is_the_model_polynomial_outside_the_cube():
    # the score has no bounds check, so on [-1, 2]**4 it must still be the
    # model's polynomial; F comes close to 0 there, so the bound is relative
    # to the largest |F| on the cube's 16 corners
    rng = np.random.Generator(np.random.PCG64(23))
    points = rng.uniform(-1.0, 2.0, size=(10_000, 4))
    corners = np.array(np.meshgrid(*[[0.0, 1.0]] * 4)).reshape(4, -1).T
    for weights in SCORER_WEIGHTS:
        score = unit_scorer(weights)
        scale = max(abs(aggregate(evaluate(to_physical(u)), weights)) for u in corners)
        for u in points:
            want = aggregate(oracle_objectives(*to_physical(u)), weights)
            assert abs(score(u) - want) <= 1e-12 * scale


def test_unit_quadratic_is_the_model_in_unit_coordinates():
    rng = np.random.Generator(np.random.PCG64(29))
    for weights in SCORER_WEIGHTS:
        c, g, h = _unit_quadratic(weights)
        assert np.array_equal(h, h.T)
        for u in [np.zeros(4), *rng.uniform(-1.0, 2.0, size=(100, 4))]:
            want = aggregate(oracle_objectives(*to_physical(u)), weights)
            assert abs(c + g @ u + u @ h @ u / 2 - want) <= 1e-12 * max(1.0, abs(want))


def test_aggregate_examples():
    w = WeightVector(0.1, 0.7, 0.1, 0.1)
    assert aggregate((841.718, 973.687, 312.121, 424.551), w) == pytest.approx(839.42, abs=0.005)
    assert aggregate((763.173, 1082.75, 329.961, 438.523), w) == pytest.approx(911.09, abs=0.005)
    assert aggregate((10.0, 20.0, 30.0, 40.0), WeightVector(1, 0, 0, 0)) == 10.0


def test_aggregate_one_hot_is_exact_component():
    f = evaluate((2.0, 40.0, 4.0, 80.0))
    for i in range(4):
        w = WeightVector(*(1.0 if j == i else 0.0 for j in range(4)))
        assert aggregate(f, w) == f[i]


@given(
    f=st.tuples(*[st.floats(-1e6, 1e6) for _ in range(4)]),
    g=st.tuples(*[st.floats(-1e6, 1e6) for _ in range(4)]),
    scale=st.floats(-100, 100),
)
@settings(max_examples=200, deadline=None)
def test_aggregate_is_linear_in_objectives(f, g, scale):
    w = WeightVector(0.4, 0.3, 0.2, 0.1)
    left = aggregate([scale * a + b for a, b in zip(f, g)], w)
    right = scale * aggregate(f, w) + aggregate(g, w)
    assert left == pytest.approx(right, rel=1e-9, abs=1e-6)


def test_weight_vector_validation():
    WeightVector(0.25, 0.25, 0.25, 0.25)
    WeightVector(1.0, 0.0, 0.0, 0.0)
    with pytest.raises(ConfigError):
        WeightVector(0.5, 0.5, 0.5, -0.5)
    with pytest.raises(ConfigError):
        WeightVector(0.3, 0.3, 0.3, 0.3)
    for bad in (math.nan, math.inf):
        with pytest.raises(ConfigError):
            WeightVector(bad, 0.3, 0.3, 0.4)


@pytest.mark.parametrize("bad,shown", [(-0.1, "-0.1"), (math.nan, "nan")], ids=["negative", "nan"])
def test_weight_vector_names_the_first_bad_field(bad, shown):
    with pytest.raises(ConfigError) as err:
        WeightVector(0.6, 0.5, bad, -0.2)
    assert str(err.value) == f"w3 must be non-negative, got {shown}"


def test_weight_vector_tolerates_float_noise_in_the_sum():
    # 0.1 + 0.7 + 0.1 + 0.1 lands one ulp below 1.0 in binary; still accepted
    parts = (0.1, 0.7, 0.1, 0.1)
    assert sum(parts) != 1.0
    WeightVector(*parts)
