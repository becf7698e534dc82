import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bforage.errors import ConfigError, DegenerateTraceError, ReferencePointError
from bforage.metrics import (
    _MC_CHECKPOINTS,
    _MC_CHUNK,
    _PARETO_BLOCK,
    _nondominated_mask,
    aer,
    hvi_exact,
    hvi_monte_carlo,
    pareto_filter,
)
from hypervolume_oracle import nondominated_mask, recursive_sweep_volume, unchunked_monte_carlo


def union_volume_by_inclusion_exclusion(points, ref):
    """Independent oracle: measure of a union of boxes by subset alternation."""
    points = [tuple(p) for p in points]
    ref = tuple(ref)
    total = 0.0
    for r in range(1, len(points) + 1):
        for subset in itertools.combinations(points, r):
            sides = [min(p[i] for p in subset) - ref[i] for i in range(len(ref))]
            volume = math.prod(max(s, 0.0) for s in sides)
            total += volume if r % 2 == 1 else -volume
    return total


def sphere_front(seed, n, dim=4):
    """``n`` mutually nondominated points: positive-orthant sphere directions, scaled per axis."""
    rng = np.random.Generator(np.random.PCG64(seed))
    directions = np.abs(rng.standard_normal((n, dim)))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    return 100.0 + directions * rng.uniform(300.0, 900.0, size=dim)


# -- pareto filter ------------------------------------------------------------


def test_pareto_filter_hand_cases():
    assert pareto_filter([(1, 1), (2, 2)]).tolist() == [[2, 2]]
    assert pareto_filter([(1, 2), (2, 1)]).tolist() == [[1, 2], [2, 1]]
    assert pareto_filter([(1, 1), (1, 1)]).tolist() == [[1, 1]]
    assert len(pareto_filter([])) == 0


@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)),
                min_size=1, max_size=24))
@settings(max_examples=200, deadline=None)
def test_pareto_filter_properties(raw):
    pts = np.array(raw, dtype=float)
    kept = pareto_filter(pts)
    # no kept point is dominated by any input point
    for p in kept:
        assert not any(np.all(q >= p) and np.any(q > p) for q in pts)
    # idempotent, and duplicates are gone
    again = pareto_filter(kept)
    assert again.shape == kept.shape and np.array_equal(again, kept)
    assert len({tuple(p) for p in kept}) == len(kept)
    # every dropped point is dominated by, or duplicates, a kept one
    kept_set = {tuple(p) for p in kept}
    for q in pts:
        if tuple(q) not in kept_set:
            assert any(np.all(p >= q) for p in kept)


@pytest.mark.parametrize("n", [1, 84, 200, _PARETO_BLOCK, _PARETO_BLOCK + 1, 3 * _PARETO_BLOCK + 5])
def test_pareto_mask_matches_the_unblocked_reference(n):
    # integer grids tie in every coordinate and repeat whole rows, across
    # block boundaries too; the first of equal rows is the one kept
    rng = np.random.default_rng(n)
    cases = []
    for dim in (1, 2, 3, 4):
        cases.append(rng.integers(0, 5, size=(n, dim)).astype(float))
        cases.append(rng.integers(-3, 2, size=(n, dim)) * 0.5)  # negative coordinates
        cases.append(rng.choice([0.0, -0.0, 1.0], size=(n, dim)))  # 0.0 and -0.0 are equal
        cases.append(np.full((n, dim), -0.25))  # all rows equal: only the first is kept
    front = sphere_front(n, n)
    cases.append(np.vstack([front, front[rng.permutation(n)[: n // 2 + 1]]])[rng.permutation(n + n // 2 + 1)])
    if n >= _PARETO_BLOCK:
        # the mask compares blocks in descending lexicographic order, so two
        # copies of the row ranked last in the first block straddle its end
        ranked = front[np.lexsort(-front.T[::-1])]
        straddle = np.insert(ranked, _PARETO_BLOCK, ranked[_PARETO_BLOCK - 1], axis=0)
        cases += [straddle, straddle[rng.permutation(n + 1)]]
    for pts in cases:
        mask = nondominated_mask(pts)
        assert np.array_equal(_nondominated_mask(pts), mask)
        assert np.array_equal(pareto_filter(pts), pts[mask])  # kept rows in input order


def test_pareto_mask_memory_is_bounded():
    # the unblocked mask peaked at 49 MB on this front (n x n x 4 booleans)
    assert _PARETO_BLOCK >= 200  # frontier-sized fronts stay one block
    pts = sphere_front(3, 2925)
    tracemalloc.start()
    try:
        kept = pareto_filter(pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(kept) == 2925
    assert peak < 8 * 2**20


# -- exact hypervolume ---------------------------------------------------------


def test_hvi_two_point_hand_case_is_exact():
    assert hvi_exact([(1.0, 2.0), (2.0, 1.0)], (0.0, 0.0)) == 3.0


def test_hvi_single_point_is_box_volume():
    point = (841.718, 973.687, 312.121, 424.551)
    expected = math.prod(point)
    assert hvi_exact([point], (0.0, 0.0, 0.0, 0.0)) == pytest.approx(expected, rel=1e-12)


def test_hvi_empty_set_is_zero():
    assert hvi_exact([], (0.0, 0.0)) == 0.0


def test_hvi_rejects_points_below_reference():
    message = r"^point \(2\.0, -0\.5\) does not weakly dominate the reference \(0\.0, 0\.0\)$"
    with pytest.raises(ReferencePointError, match=message):
        hvi_exact([(1.0, 2.0), (2.0, -0.5)], (0.0, 0.0))
    with pytest.raises(ReferencePointError, match=message):
        hvi_monte_carlo([(1.0, 2.0), (2.0, -0.5)], np.zeros(2), samples=10, seed=1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_hvi_rejects_non_finite_reference(bad):
    for points in ([(1.0, 2.0, 3.0)], []):
        with pytest.raises(ConfigError, match="finite"):
            hvi_exact(points, (0.0, 0.0, bad))
        with pytest.raises(ConfigError, match="finite"):
            hvi_monte_carlo(points, (bad, 0.0, 0.0), samples=10, seed=1)


def test_hvi_rejects_dimension_mismatch_and_too_many_dims():
    with pytest.raises(ConfigError):
        hvi_exact([(1.0, 2.0)], (0.0, 0.0, 0.0))
    with pytest.raises(ConfigError):
        hvi_exact([(1.0, 1.0, 1.0, 1.0, 1.0)], (0.0,) * 5)


def test_hvi_duplicates_and_dominated_points_contribute_nothing():
    base = [(2.0, 3.0, 1.5), (3.0, 1.0, 2.0)]
    padded = base + [(2.0, 3.0, 1.5), (1.0, 0.5, 1.0)]
    ref = (0.0, 0.0, 0.0)
    assert hvi_exact(padded, ref) == hvi_exact(base, ref)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_hvi_matches_inclusion_exclusion_oracle(dim):
    rng = np.random.Generator(np.random.PCG64(2718))
    for _ in range(100):
        n = int(rng.integers(1, 7))
        pts = rng.uniform(0.5, 10.0, size=(n, dim))
        ref = np.zeros(dim)
        want = union_volume_by_inclusion_exclusion(pts, ref)
        got = hvi_exact(pts, ref)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


@given(st.integers(1, 4).flatmap(lambda dim: st.lists(
    st.tuples(*[st.integers(0, 4)] * dim), min_size=1, max_size=9)))
@settings(max_examples=200, deadline=None)
def test_hvi_integer_grid_fronts_are_exact(raw):
    # small integers tie often; a duplicate and a dominated copy ride along,
    # and every volume is an integer the oracles also compute without rounding
    pts = np.array(raw, dtype=float)
    pts = np.vstack([pts, pts[:1], np.maximum(pts[-1:] - 1.0, 0.0)])
    ref = np.zeros(pts.shape[1])
    want = union_volume_by_inclusion_exclusion(pts, ref)
    assert hvi_exact(pts, ref) == want
    assert recursive_sweep_volume(pts, ref) == want


@pytest.mark.parametrize("n", [84, 200])
def test_hvi_agrees_with_recursive_sweep_on_sphere_fronts(n):
    pts = sphere_front(n, n)
    ref = np.full(4, 50.0)
    want = recursive_sweep_volume(pts, ref)
    assert abs(hvi_exact(pts, ref) - want) <= 1e-12 * want


def test_hvi_monotone_under_point_addition():
    rng = np.random.Generator(np.random.PCG64(31415))
    for _ in range(50):
        pts = rng.uniform(1.0, 9.0, size=(6, 3))
        ref = np.zeros(3)
        base = hvi_exact(pts, ref)
        extra = rng.uniform(1.0, 9.0, size=3)
        assert hvi_exact(np.vstack([pts, extra]), ref) >= base - 1e-12
        # a strictly dominating point strictly increases the volume
        dominator = pts.max(axis=0) + 1.0
        assert hvi_exact(np.vstack([pts, dominator]), ref) > base


def test_hvi_dominating_set_never_scores_lower():
    rng = np.random.Generator(np.random.PCG64(977))
    for _ in range(50):
        a = rng.uniform(1.0, 9.0, size=(8, 3))
        shrink = rng.uniform(0.2, 1.0, size=(8, 3))
        b = a * shrink  # every b-point is weakly dominated by an a-point
        ref = np.zeros(3)
        assert hvi_exact(a, ref) >= hvi_exact(b, ref) - 1e-12


def test_hvi_translation_consistency():
    rng = np.random.Generator(np.random.PCG64(5))
    pts = rng.uniform(1.0, 9.0, size=(10, 4))
    shift = np.array([3.0, -2.0, 11.0, 0.5])
    ref = np.zeros(4)
    base = hvi_exact(pts, ref)
    moved = hvi_exact(pts + shift, ref + shift)
    assert moved == pytest.approx(base, rel=1e-9)


# -- monte carlo hypervolume ----------------------------------------------------


def test_monte_carlo_two_point_hand_case():
    got = hvi_monte_carlo([(1.0, 2.0), (2.0, 1.0)], (0.0, 0.0), samples=1_000_000, seed=13)
    assert got == pytest.approx(3.0, abs=0.01)


def test_monte_carlo_single_point_is_exact_for_any_sample_count():
    point = (2.0, 3.0, 4.0)
    box = 24.0
    assert hvi_monte_carlo([point], (0.0, 0.0, 0.0), samples=10, seed=1) == box


def test_monte_carlo_is_deterministic_per_seed():
    pts = [(1.0, 2.0, 1.0), (2.0, 1.0, 1.5)]
    ref = (0.0, 0.0, 0.0)
    a = hvi_monte_carlo(pts, ref, samples=50_000, seed=99)
    b = hvi_monte_carlo(pts, ref, samples=50_000, seed=99)
    assert a == b
    assert hvi_monte_carlo(pts, ref, samples=50_000, seed=100) != a


def test_monte_carlo_agrees_with_exact_on_random_sets():
    rng = np.random.Generator(np.random.PCG64(123))
    for trial in range(5):
        n = int(rng.integers(3, 54))
        pts = rng.uniform(1.0, 1100.0, size=(n, 4))
        ref = np.zeros(4)
        exact = hvi_exact(pts, ref)
        estimate = hvi_monte_carlo(pts, ref, samples=200_000, seed=trial)
        assert estimate == pytest.approx(exact, rel=0.02)


def test_monte_carlo_validates_inputs():
    for samples in (0, -3, 2.5, 10.0, True, "10"):
        with pytest.raises(ConfigError, match="samples"):
            hvi_monte_carlo([(1.0, 1.0)], (0.0, 0.0), samples=samples, seed=1)
    for seed in (-1, 1.5, 1.0, True, None, "1"):
        with pytest.raises(ConfigError, match="seed"):
            hvi_monte_carlo([(1.0, 1.0)], (0.0, 0.0), samples=10, seed=seed)
    with pytest.raises(ReferencePointError):
        hvi_monte_carlo([(-1.0, 1.0)], (0.0, 0.0), samples=10, seed=1)
    # numpy integers are integers
    assert hvi_monte_carlo([(1.0, 1.0)], (0.0, 0.0), samples=np.int64(10), seed=np.uint64(1)) == 1.0


@pytest.mark.parametrize("samples", [1, _MC_CHUNK - 1, _MC_CHUNK, _MC_CHUNK + 1, 2 * _MC_CHUNK - 1,
                                     2 * _MC_CHUNK, 2 * _MC_CHUNK + 1, 6 * _MC_CHUNK + 7, 1_000_000])
def test_monte_carlo_chunks_match_unchunked_reference(samples):
    assert _MC_CHUNK == 2**15
    assert _MC_CHECKPOINTS == (2, 8, 32)
    # fronts of 1 to 40 points end their sampling before, at and after each
    # checkpoint, in 1 to 4 dimensions; the CLI default of 10^6 samples runs
    # on one 84-point front
    if samples == 1_000_000:
        fronts = [(4, 84)]
    else:
        fronts = itertools.product(range(1, 5), (1, 2, 3, 8, 9, 32, 40))
    for dim, n in fronts:
        seed = samples + 100 * dim + n
        pts = sphere_front(seed, n, dim)
        ref = np.full(dim, 50.0)
        estimate = hvi_monte_carlo(pts, ref, samples, seed)
        assert estimate == unchunked_monte_carlo(pts, ref, samples, seed), (dim, n)


def test_monte_carlo_memory_is_bounded():
    pts = sphere_front(7, 84)
    tracemalloc.start()
    try:
        hvi_monte_carlo(pts, np.zeros(4), samples=1_000_000, seed=7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


# -- average explorative rate ----------------------------------------------------


def test_aer_hand_case():
    trace = (100.0, 102.0, 102.5, 112.75, 112.75)
    assert aer(trace, 0.01) == 0.5


def test_aer_constant_trace_is_zero():
    assert aer([7.0] * 10, 0.01) == 0.0


def test_aer_threshold_zero_counts_everything():
    assert aer([3.0, 3.5, 3.5, 9.0], 0.0) == 1.0


def test_aer_error_cases():
    with pytest.raises(DegenerateTraceError):
        aer([5.0], 0.01)
    with pytest.raises(DegenerateTraceError):
        aer([5.0, 0.0, 6.0], 0.01)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DegenerateTraceError):
            aer([1.0, bad, 2.0], 0.01)
    with pytest.raises(ConfigError):
        aer([1.0, 2.0], -0.1)
    with pytest.raises(ConfigError):
        aer([1.0, 2.0], math.nan)


@given(st.lists(st.floats(0.001, 1e5), min_size=1, max_size=40),
       st.floats(0.0, 0.5))
@settings(max_examples=300, deadline=None)
def test_aer_range_and_threshold_monotonicity(increments, threshold):
    trace = [1.0]
    for inc in increments:
        trace.append(trace[-1] + inc)
    value = aer(trace, threshold)
    assert 0.0 <= value <= 1.0
    assert aer(trace, threshold + 0.01) <= value
    assert value <= aer(trace, max(threshold - 0.01, 0.0))


@given(st.lists(st.floats(0.001, 1e5), min_size=1, max_size=40),
       st.integers(-8, 8))
@settings(max_examples=300, deadline=None)
def test_aer_scale_invariance_exact_for_binary_scales(increments, exponent):
    trace = [1.0]
    for inc in increments:
        trace.append(trace[-1] + inc)
    scale = 2.0 ** exponent  # power of two: rescaling is exact in binary
    scaled = [scale * v for v in trace]
    assert aer(scaled, 0.01) == aer(trace, 0.01)
