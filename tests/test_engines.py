import math
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bforage
from bforage.bfa import _directions
from bforage.engines import (
    EngineConfig,
    EngineKind,
    StochasticEngine,
    gamma_cdf,
    gaussian_cdf,
    weibull_cdf,
    weibull_inverse_cdf,
)
from bforage.errors import ConfigError, DomainError

ALL_KINDS = list(EngineKind)


def engine(kind, seed=42, **kwargs):
    return StochasticEngine(EngineConfig(kind=kind, seed=seed, **kwargs))


# -- construction and validation --------------------------------------------


def test_defaults_match_documented_values():
    cfg = EngineConfig(kind=EngineKind.GAUSSIAN, seed=0)
    assert (cfg.mu, cfg.sigma) == (0.0, 1.0)
    assert (cfg.lam, cfg.k) == (1.0, 1.0)
    assert (cfg.alpha, cfg.beta) == (2, 1.0)
    assert cfg.dr == 0.01
    assert cfg.warmup == 10


def test_chaotic_construction_echoes_config():
    e = engine(EngineKind.CHAOTIC, psi0=0.3, r0=3.9, warmup=0)
    assert (e._psi, e._rate) == (0.3, 3.9)


@pytest.mark.parametrize("bad", [
    dict(alpha=0),
    dict(alpha=2.0),  # must be an int, not a float
    dict(sigma=0.0),
    dict(sigma=-1.0),
    dict(lam=0.0),
    dict(k=-2.0),
    dict(beta=0.0),
    dict(psi0=0.0),
    dict(psi0=1.0),
    dict(r0=-0.1),
    dict(r0=5.1),
    dict(warmup=-1),
    dict(seed=-1),
    dict(seed=2**64),
    dict(mu=math.nan),
    dict(sigma=math.inf),
    dict(dr=math.nan),
    dict(dr=-math.inf),
])
def test_invalid_config_rejected(bad):
    with pytest.raises(ConfigError):
        EngineConfig(**{"kind": EngineKind.GAMMA, "seed": 1, **bad})


@pytest.mark.parametrize("kind,bad", [
    (EngineKind.WEIBULL, dict(k=0.001)),
    (EngineKind.WEIBULL, dict(k=0.005)),  # lam * (53 ln 2)**200 is past the largest float
    (EngineKind.WEIBULL, dict(lam=1e307)),
    (EngineKind.GAMMA, dict(beta=1e-320)),
    (EngineKind.GAMMA, dict(beta=1e-307)),  # 2 * 53 ln 2 / beta is past the largest float
    (EngineKind.GAMMA, dict(alpha=10**400)),
])
def test_config_whose_largest_variate_overflows_is_rejected(kind, bad):
    with pytest.raises(ConfigError, match="overflows"):
        EngineConfig(kind=kind, seed=1, **bad)
    for other in ALL_KINDS:  # the fields are inert for the other kinds
        if other is not kind:
            EngineConfig(kind=other, seed=1, **bad)


# the polar transform's largest |deviate|: 2u - 1 = 2**-52 and v = 0 give s = 2**-104
Z_MAX = math.sqrt(208.0 * math.log(2.0))
LARGEST_SIGMA = sys.float_info.max / Z_MAX


class ScriptedUniform:
    """A uniform source that returns the given values in order."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


def test_gaussian_config_is_rejected_just_past_the_largest_finite_deviate():
    accepted = engine(EngineKind.GAUSSIAN, sigma=LARGEST_SIGMA)
    accepted._uniform = ScriptedUniform([0.5 + 2.0**-53, 0.5])
    assert accepted.sample_raw() == sys.float_info.max
    scalar, block = (engine(EngineKind.GAUSSIAN, sigma=LARGEST_SIGMA) for _ in range(2))
    for e in (scalar, block):
        e._uniform = ScriptedUniform([0.5 + 2.0**-53, 0.5])
    assert block.sample_units(2) == [scalar.sample_unit(), scalar.sample_unit()] == [1.0, 0.5]
    with pytest.raises(ConfigError, match="sigma="):
        EngineConfig(kind=EngineKind.GAUSSIAN, seed=1, sigma=math.nextafter(LARGEST_SIGMA, math.inf))
    with pytest.raises(ConfigError, match="mu="):
        EngineConfig(kind=EngineKind.GAUSSIAN, seed=1, mu=-1e308, sigma=1e307)
    EngineConfig(kind=EngineKind.GAUSSIAN, seed=1, mu=-1e308, sigma=1e306)
    EngineConfig(kind=EngineKind.WEIBULL, seed=1, sigma=1e308)  # inert for the other kinds


def test_gamma_config_is_rejected_where_its_cdf_stops_being_finite():
    # beta * x at the largest variate is alpha * 53 ln 2, so the limit is on alpha alone
    for beta in (1e-3, 1.0, 7.3):
        accepted = engine(EngineKind.GAMMA, alpha=155, beta=beta)
        accepted._uniform = LargestUniform()
        assert accepted.sample_unit() == 1.0
        assert accepted.sample_units(3) == [1.0] * 3
        for alpha in (156, 800):
            with pytest.raises(ConfigError, match=f"alpha={alpha}"):
                EngineConfig(kind=EngineKind.GAMMA, seed=1, alpha=alpha, beta=beta)
    bforage.run_bfa(bforage.WeightVector(0.25, 0.25, 0.25, 0.25), bforage.BfaParams(n_total=3, pop_size=4),
                    EngineConfig(kind=EngineKind.GAMMA, seed=1, alpha=155))


class LargestUniform:
    """A uniform source stuck at the largest value ``random.random()`` returns."""

    def random(self):
        return 1.0 - 2.0**-53


@pytest.mark.parametrize("kind,params", [
    (EngineKind.WEIBULL, dict(k=0.01)),
    (EngineKind.WEIBULL, dict(k=0.0051)),
    (EngineKind.GAMMA, dict(beta=1e-306)),
])
def test_accepted_bounds_keep_the_largest_variate_finite(kind, params):
    e = engine(kind, **params)
    e._uniform = LargestUniform()
    assert math.isfinite(e.sample_raw())
    assert 0.0 <= e.sample_unit() <= 1.0
    assert e.sample_units(3) == [e.sample_unit()] * 3


def test_kind_from_string():
    assert EngineKind.from_string(" Weibull ") is EngineKind.WEIBULL
    with pytest.raises(ConfigError):
        EngineKind.from_string("cauchy")


# -- determinism -------------------------------------------------------------


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_identical_configs_give_identical_sequences(kind):
    a, b = engine(kind), engine(kind)
    assert [a.sample_raw() for _ in range(1000)] == [b.sample_raw() for _ in range(1000)]
    assert a.draws == b.draws == 1000


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_sequences_are_stable_across_processes(kind):
    local = engine(kind, seed=7)
    here = [local.sample_unit() for _ in range(200)]
    code = (
        "from bforage.engines import EngineConfig, StochasticEngine;"
        f"e = StochasticEngine(EngineConfig(kind={kind.value!r}, seed=7));"
        "print(repr([e.sample_unit() for _ in range(200)]))"
    )
    # the child imports this same package, whether or not it is installed
    env = {**os.environ, "PYTHONPATH": str(Path(bforage.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=env)
    assert eval(out.stdout) == here


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_pickled_engine_continues_the_stream(kind):
    e = engine(kind, seed=13)
    for _ in range(7):  # odd, so the gaussian engine holds a spare deviate
        e.sample_unit()
    restored = pickle.loads(pickle.dumps(e))
    assert restored.draws == e.draws == 7
    assert [restored.sample_raw() for _ in range(100)] == [e.sample_raw() for _ in range(100)]
    assert [restored.sample_unit() for _ in range(100)] == [e.sample_unit() for _ in range(100)]


# odd sizes and interleaved single draws carry the gaussian spare across blocks
BLOCK_SIZES = (0, 1, 3, 0, 1, 8, 5, 2, 17, 1, 40, 7)


@pytest.mark.parametrize("kind,params", [
    *((kind, {}) for kind in ALL_KINDS),
    (EngineKind.GAUSSIAN, dict(sigma=2.0, mu=0.5)),
    (EngineKind.WEIBULL, dict(lam=2.5, k=0.7)),
    (EngineKind.GAMMA, dict(alpha=5, beta=0.7)),
    (EngineKind.CHAOTIC, dict(r0=4.5)),  # every step re-seeds from the uniform stream
], ids=lambda v: (",".join(f"{k}={x}" for k, x in v.items()) or "defaults")
   if isinstance(v, dict) else v.value)
def test_block_draws_equal_single_draws(kind, params):
    blocks, singles, raws = (engine(kind, seed=17, **params) for _ in range(3))
    values = []
    for n, size in enumerate(BLOCK_SIZES * 3):
        values += blocks.sample_units(size)
        if n % 2:
            values.append(blocks.sample_unit())
        if n == len(BLOCK_SIZES):
            blocks = pickle.loads(pickle.dumps(blocks))
    assert values == [singles.sample_unit() for _ in values]
    assert blocks.draws == singles.draws == len(values)
    # each unit value is the kind's CDF at the raw variate of the same draw
    cdf = {EngineKind.GAUSSIAN: gaussian_cdf, EngineKind.WEIBULL: weibull_cdf,
           EngineKind.GAMMA: gamma_cdf, EngineKind.CHAOTIC: lambda x: x}[kind]
    fields = {EngineKind.GAUSSIAN: ("mu", "sigma"), EngineKind.WEIBULL: ("lam", "k"),
              EngineKind.GAMMA: ("alpha", "beta"), EngineKind.CHAOTIC: ()}[kind]
    cdf_params = [getattr(raws.config, name) for name in fields]
    assert values == [cdf(raws.sample_raw(), *cdf_params) for _ in values]
    assert raws.draws == len(values)


def test_signed_is_affine_image_of_unit():
    # a tumble direction is four unit draws mapped by 2u - 1, then normalized
    for kind in ALL_KINDS:
        a, b = engine(kind, seed=3), engine(kind, seed=3)
        for _ in range(50):
            signed = np.array([2.0 * b.sample_unit() - 1.0 for _ in range(4)])
            assert np.array_equal(_directions(a, 1)[0], signed / np.linalg.norm(signed))
        assert a.draws == b.draws == 200


# -- chaotic map semantics ----------------------------------------------------


def test_chaotic_first_iterate_is_hand_value():
    e = engine(EngineKind.CHAOTIC, psi0=0.3, r0=3.9, warmup=0)
    value = e.sample_raw()
    assert value == 0.819  # 3.9 * 0.3 * 0.7, exact in binary as it happens
    assert e._psi == 0.819
    assert e._rate == 3.9 + 0.01


def test_chaotic_recurrence_matches_independent_replica():
    # mirror the generator: same uniform stream, same update and reset rule
    cfg = EngineConfig(kind=EngineKind.CHAOTIC, seed=123, psi0=0.7, r0=3.5, warmup=10)
    e = StochasticEngine(cfg)
    mirror = random.Random(cfg.seed)
    psi, rate = cfg.psi0, cfg.r0

    def step():
        nonlocal psi, rate
        nxt = rate * psi * (1.0 - psi)
        rate = rate + cfg.dr
        if not 0.0 < nxt < 1.0 or rate > 4.0:
            nxt = mirror.random()
            while nxt == 0.0:
                nxt = mirror.random()
            rate = cfg.r0
        psi = nxt
        return nxt

    for _ in range(cfg.warmup):
        step()
    emitted = [e.sample_raw() for _ in range(5000)]
    expected = [step() for _ in range(5000)]
    assert emitted == expected


def test_chaotic_stays_in_open_interval_even_past_rate_four():
    e = engine(EngineKind.CHAOTIC, seed=5, psi0=0.5, r0=3.99, warmup=0)
    values = [e.sample_raw() for _ in range(10_000)]
    assert all(0.0 < v < 1.0 for v in values)


@pytest.mark.parametrize("r0", [0.0, 4.5, 5.0])
def test_chaotic_rate_extremes_keep_emitting(r0):
    # rate 0 collapses the map, any rate in (4, 5] exceeds the stable region:
    # all fall back to uniform re-seeds every step and stay inside (0, 1)
    e = engine(EngineKind.CHAOTIC, seed=9, psi0=0.5, r0=r0, warmup=0)
    values = [e.sample_raw() for _ in range(2_000)]
    assert all(0.0 < v < 1.0 for v in values)
    assert len(set(values)) > 1_900  # re-seeded draws, not a stuck state
    uniforms = random.Random(9)
    assert values == [uniforms.random() for _ in range(2_000)]  # i.i.d. uniforms


def test_config_accepts_kind_as_string():
    cfg = EngineConfig(kind="weibull", seed=3)
    assert cfg.kind is EngineKind.WEIBULL
    assert StochasticEngine(cfg).sample_unit() == engine(EngineKind.WEIBULL, seed=3).sample_unit()


# -- range invariants ---------------------------------------------------------


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_unit_and_signed_ranges_over_a_million_draws(kind):
    e = engine(kind, seed=11)
    low, high = math.inf, -math.inf
    for _ in range(1_000_000):
        u = e.sample_unit()
        low = min(low, u)
        high = max(high, u)
    assert 0.0 <= low and high <= 1.0


# -- distribution functions ---------------------------------------------------


def test_cdf_hand_values():
    assert gaussian_cdf(0.0) == 0.5
    assert weibull_cdf(0.0) == 0.0
    assert weibull_cdf(1.0) == 1.0 - math.exp(-1.0)
    assert gamma_cdf(1.0, 1, 1.0) == 1.0 - math.exp(-1.0)
    assert gamma_cdf(1.0, 2, 1.0) == pytest.approx(1.0 - 2.0 * math.exp(-1.0), abs=1e-15)


def test_cdf_domain_errors():
    with pytest.raises(DomainError):
        weibull_cdf(-0.5)
    with pytest.raises(DomainError):
        gamma_cdf(-0.5, 2, 1.0)
    with pytest.raises(DomainError):
        weibull_inverse_cdf(1.0)


@given(
    x1=st.floats(min_value=0.0, max_value=50.0),
    x2=st.floats(min_value=0.0, max_value=50.0),
    kind=st.sampled_from([EngineKind.GAUSSIAN, EngineKind.WEIBULL, EngineKind.GAMMA]),
)
@settings(max_examples=200, deadline=None)
def test_cdf_monotone_with_proper_limits(x1, x2, kind):
    cdf = {
        EngineKind.GAUSSIAN: lambda x: gaussian_cdf(x, 0.0, 1.0),
        EngineKind.WEIBULL: lambda x: weibull_cdf(x, 1.4, 2.0),
        EngineKind.GAMMA: lambda x: gamma_cdf(x, 3, 0.8),
    }[kind]
    lo, hi = sorted((x1, x2))
    assert cdf(lo) <= cdf(hi)
    assert cdf(0.0) <= 1e-12 or kind is EngineKind.GAUSSIAN
    assert cdf(1e6) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("u", [0.01, 0.5, 0.99])
def test_weibull_inverse_round_trip(u):
    for lam, k in [(1.0, 1.0), (2.5, 0.7), (0.4, 3.0)]:
        assert weibull_cdf(weibull_inverse_cdf(u, lam, k), lam, k) == pytest.approx(u, abs=1e-12)


def test_unit_mapping_examples():
    assert gaussian_cdf(0.0) == 0.5                      # raw 0 -> unit 0.5
    u = weibull_cdf(1.0, 1.0, 1.0)                       # raw 1 -> 1 - 1/e
    assert u == pytest.approx(0.63212, abs=5e-6)
    assert 2.0 * u - 1.0 == pytest.approx(0.26424, abs=1e-5)


# -- sampler statistics -------------------------------------------------------


def test_gaussian_moments_at_fixed_seed():
    e = engine(EngineKind.GAUSSIAN, seed=2024)
    xs = [e.sample_raw() for _ in range(100_000)]
    mean = sum(xs) / len(xs)
    var = sum((x - mean) ** 2 for x in xs) / (len(xs) - 1)
    assert abs(mean) <= 0.01
    assert abs(var - 1.0) <= 0.02


def test_weibull_unit_scale_mean_is_one():
    e = engine(EngineKind.WEIBULL, seed=2024)
    xs = [e.sample_raw() for _ in range(100_000)]
    assert abs(sum(xs) / len(xs) - 1.0) <= 0.02


def test_gamma_erlang_moments():
    e = engine(EngineKind.GAMMA, seed=2024, alpha=2, beta=1.0)
    xs = [e.sample_raw() for _ in range(100_000)]
    mean = sum(xs) / len(xs)
    var = sum((x - mean) ** 2 for x in xs) / (len(xs) - 1)
    assert abs(mean - 2.0) <= 0.03
    assert abs(var - 2.0) <= 0.1


@pytest.mark.parametrize("alpha", [1, 2, 5])
@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
def test_gamma_sampler_matches_distribution_function(alpha, beta):
    import numpy as np

    e = engine(EngineKind.GAMMA, seed=99, alpha=alpha, beta=beta)
    xs = np.sort(np.array([e.sample_raw() for _ in range(100_000)]))
    cdf = np.array([gamma_cdf(float(x), alpha, beta) for x in xs])
    n = len(xs)
    ks = max(
        float((np.arange(1, n + 1) / n - cdf).max()),
        float((cdf - np.arange(0, n) / n).max()),
    )
    assert ks <= 0.01
