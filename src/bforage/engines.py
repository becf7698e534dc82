"""Seeded random-variate engines behind one uniform sampling interface.

Four interchangeable kinds: ``gaussian``, ``weibull``, ``gamma`` and
``chaotic`` (a logistic map whose growth rate drifts upward). Every engine
owns an isolated seeded uniform stream, so the emitted variate sequence is
a pure function of its :class:`EngineConfig` -- bit-identical across
processes and replays.

Each kind is one row of the table ``_SAMPLERS``, looked up once at
construction: a raw sampler, which returns the next ``count`` variates as
a list, and a map of such a list into [0, 1] -- the kind's own CDF at the
config's parameters, or for the chaotic state, which already lies in
(0, 1), the identity. A single draw is a block of one through the same
two functions, so blocks and single draws give the same values bit for
bit, and each transform and CDF is written once. Raw samplers:

* gaussian -- Marsaglia polar transform of the uniform stream (the spare
  deviate is cached, so draws alternate between computing a pair and
  emitting the cached half).
* weibull  -- inverse-CDF transform ``scale * (-ln(1-u))**(1/shape)``.
* gamma    -- integer shape only; sum of ``alpha`` exponential variates,
  each by inverse CDF, divided by the rate.
* chaotic  -- ``psi <- rate * psi * (1 - psi)`` followed by
  ``rate <- rate + dr``. Whenever the updated state would leave the map's
  stable region (``psi`` outside (0,1) or ``rate`` above 4) the state is
  re-seeded from the uniform stream and the rate wraps back to ``r0``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum

from .errors import ConfigError, DomainError

__all__ = [
    "EngineKind",
    "EngineConfig",
    "StochasticEngine",
    "gaussian_cdf",
    "weibull_cdf",
    "weibull_inverse_cdf",
    "gamma_cdf",
]

_SQRT2 = math.sqrt(2.0)
# random.random() is at most 1 - 2**-53, where -log1p(-u) peaks at 53 ln 2
_LARGEST_UNIFORM = 1.0 - 2.0**-53
_LARGEST_EXPONENTIAL = -math.log1p(-_LARGEST_UNIFORM)
# the polar transform's largest |deviate|, sqrt(-2 ln s) at the smallest s:
# 2u - 1 lies on a 2**-52 grid, so a nonzero s is at least 2**-104
_Z_MAX = math.sqrt(208.0 * math.log(2.0))


class EngineKind(str, Enum):
    """The four supported random-source regimes."""

    GAUSSIAN = "gaussian"
    WEIBULL = "weibull"
    GAMMA = "gamma"
    CHAOTIC = "chaotic"

    @classmethod
    def from_string(cls, name: str) -> "EngineKind":
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(k.value for k in cls)
            raise ConfigError(f"unknown engine kind {name!r} (expected one of: {valid})") from None


@dataclass(frozen=True)
class EngineConfig:
    """Full description of an engine; equal configs give equal streams.

    Only the parameters of the configured ``kind`` matter; the rest are
    inert. ``warmup`` applies to the chaotic kind only and counts map
    iterates discarded at construction time so emitted values do not echo
    ``psi0``. A config whose largest variate overflows a float is
    rejected: ``abs(mu) + sigma * sqrt(208 ln 2)`` for gaussian,
    ``lam * (53 ln 2)**(1/k)`` for weibull and ``alpha * 53 ln 2 / beta``
    for gamma. So is a gamma config whose CDF there is not finite: its
    finite sum overflows once ``alpha`` exceeds 155, whatever ``beta``.
    """

    kind: EngineKind
    seed: int
    mu: float = 0.0          # gaussian mean
    sigma: float = 1.0       # gaussian standard deviation
    lam: float = 1.0         # weibull scale
    k: float = 1.0           # weibull shape
    alpha: int = 2           # gamma shape, integral
    beta: float = 1.0        # gamma rate
    psi0: float = 0.3        # chaotic initial state, strictly inside (0,1)
    r0: float = 3.9          # chaotic initial growth rate, in [0,5]; above 4 (with dr >= 0)
                             # every step re-seeds, so the engine emits i.i.d. uniforms
    dr: float = 0.01         # chaotic per-step rate increment
    warmup: int = 10         # chaotic iterates discarded at construction

    def __post_init__(self):
        if not isinstance(self.kind, EngineKind):
            object.__setattr__(self, "kind", EngineKind.from_string(str(self.kind)))
        if not (isinstance(self.seed, int) and 0 <= self.seed < 2**64):
            raise ConfigError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")
        for name in ("mu", "sigma", "lam", "k", "beta", "dr"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.sigma > 0:
            raise ConfigError(f"sigma must be positive, got {self.sigma}")
        if not self.lam > 0:
            raise ConfigError(f"lambda must be positive, got {self.lam}")
        if not self.k > 0:
            raise ConfigError(f"k must be positive, got {self.k}")
        if not (isinstance(self.alpha, int) and self.alpha >= 1):
            raise ConfigError(f"alpha must be an integer >= 1, got {self.alpha!r}")
        if not self.beta > 0:
            raise ConfigError(f"beta must be positive, got {self.beta}")
        if not 0.0 < self.psi0 < 1.0:
            raise ConfigError(f"psi0 must lie strictly inside (0, 1), got {self.psi0}")
        if not 0.0 <= self.r0 <= 5.0:
            raise ConfigError(f"r0 must lie in [0, 5], got {self.r0}")
        if not (isinstance(self.warmup, int) and self.warmup >= 0):
            raise ConfigError(f"warmup must be a non-negative integer, got {self.warmup!r}")
        if self.kind is EngineKind.GAUSSIAN and not _finite(
                lambda: abs(self.mu) + self.sigma * _Z_MAX):
            raise ConfigError(f"the largest gaussian variate overflows at mu={self.mu}, sigma={self.sigma}")
        if self.kind is EngineKind.WEIBULL and not _finite(
                lambda: weibull_inverse_cdf(_LARGEST_UNIFORM, self.lam, self.k)):
            raise ConfigError(f"the largest weibull variate overflows at lambda={self.lam}, k={self.k}")
        if self.kind is EngineKind.GAMMA and not _finite(
                lambda: self.alpha * _LARGEST_EXPONENTIAL / self.beta):
            raise ConfigError(f"the largest gamma variate overflows at alpha={self.alpha}, beta={self.beta}")
        if self.kind is EngineKind.GAMMA and not _finite(
                lambda: gamma_cdf(self.alpha * _LARGEST_EXPONENTIAL / self.beta, self.alpha, self.beta)):
            raise ConfigError(f"the gamma CDF is not finite at the largest variate for alpha={self.alpha} "
                              f"(alpha must be at most 155)")


def _finite(compute) -> bool:
    """Whether ``compute()`` returns a finite float rather than overflowing."""
    try:
        return math.isfinite(compute())
    except OverflowError:
        return False


class StochasticEngine:
    """Stateful, single-threaded variate source for one :class:`EngineConfig`.

    One logical step per emitted variate: each call to :meth:`sample_raw`
    or :meth:`sample_unit` advances the state exactly once and increments
    :attr:`draws`, and ``sample_units(n)`` advances it ``n`` times and adds
    ``n``. All three run the same raw sampler and CDF, at count 1 or
    ``n``, so blocks and single draws mix freely in one stream. Instances
    must not be shared between threads; parallel work takes independent
    engines with distinct seeds.
    """

    def __init__(self, config: EngineConfig):
        self.config = config
        self.draws = 0
        self._uniform = random.Random(config.seed)
        self._spare: float | None = None  # cached second polar deviate
        self._raws, self._cdfs, fields = _SAMPLERS[config.kind]
        self._cdf_params = tuple(getattr(config, name) for name in fields)
        if config.kind is EngineKind.CHAOTIC:
            self._psi = config.psi0
            self._rate = config.r0
            self._chaotic_raws(config.warmup)

    def sample_raw(self) -> float:
        """Draw one variate from the configured distribution."""
        value = self._raws(self, 1)[0]
        self.draws += 1
        return value

    def sample_unit(self) -> float:
        """Draw one variate mapped into [0, 1]."""
        value = self._cdfs(self._raws(self, 1), *self._cdf_params)[0]
        self.draws += 1
        return value

    def sample_units(self, count: int) -> list[float]:
        """The next ``count`` values :meth:`sample_unit` would give, as one list."""
        values = self._cdfs(self._raws(self, count), *self._cdf_params)
        self.draws += count
        return values

    # -- raw samplers: the next ``count`` variates of the kind, as one list

    def _gaussian_raws(self, count: int) -> list[float]:
        random, log, sqrt = self._uniform.random, math.log, math.sqrt
        mu, sigma = self.config.mu, self.config.sigma
        spare = self._spare
        values = []
        for _ in range(count):
            if spare is not None:
                z, spare = spare, None
            else:
                while True:
                    u = 2.0 * random() - 1.0
                    v = 2.0 * random() - 1.0
                    s = u * u + v * v
                    if 0.0 < s < 1.0:
                        break
                factor = sqrt(-2.0 * log(s) / s)
                z = u * factor
                spare = v * factor
            values.append(mu + sigma * z)
        self._spare = spare
        return values

    def _weibull_raws(self, count: int) -> list[float]:
        # weibull_inverse_cdf without its DomainError check: random() lies in [0, 1)
        random, log1p = self._uniform.random, math.log1p
        lam, inverse_k = self.config.lam, 1.0 / self.config.k
        return [lam * (-log1p(-random())) ** inverse_k for _ in range(count)]

    def _gamma_raws(self, count: int) -> list[float]:
        random, log1p = self._uniform.random, math.log1p
        shape, beta = range(self.config.alpha), self.config.beta
        values = []
        for _ in range(count):
            total = 0.0
            for _ in shape:
                total += -log1p(-random())
            values.append(total / beta)
        return values

    def _chaotic_raws(self, count: int) -> list[float]:
        random, r0, dr = self._uniform.random, self.config.r0, self.config.dr
        psi, rate = self._psi, self._rate
        values = []
        for _ in range(count):
            psi, rate = rate * psi * (1.0 - psi), rate + dr
            if not 0.0 < psi < 1.0 or rate > 4.0:
                # re-seed inside the open interval and wrap the rate back
                psi = random()
                while psi == 0.0:
                    psi = random()
                rate = r0
            values.append(psi)
        self._psi, self._rate = psi, rate
        return values


# -- distribution functions ------------------------------------------------
# The block CDFs below are the samplers' maps into [0, 1]. They skip the
# DomainError checks of the public functions: the config was validated at
# construction, so the checks cannot fire on a variate the engine draws.


def _gaussian_cdfs(xs: list[float], mu: float, sigma: float) -> list[float]:
    erf, width = math.erf, sigma * _SQRT2
    return [0.5 * (1.0 + erf((x - mu) / width)) for x in xs]


def _weibull_cdfs(xs: list[float], lam: float, k: float) -> list[float]:
    exp = math.exp
    return [1.0 - exp(-((x / lam) ** k)) for x in xs]


def _gamma_cdfs(xs: list[float], alpha: int, beta: float) -> list[float]:
    exp, orders = math.exp, range(1, alpha)
    values = []
    for x in xs:
        bx = beta * x
        term = total = 1.0
        for i in orders:
            term *= bx / i
            total += term
        values.append(1.0 - total * exp(-bx))
    return values


def _identity(xs: list[float]) -> list[float]:
    return xs


def gaussian_cdf(x: float, mu: float = 0.0, sigma: float = 1.0) -> float:
    """Normal cumulative distribution function."""
    return _gaussian_cdfs([x], mu, sigma)[0]


def weibull_cdf(x: float, lam: float = 1.0, k: float = 1.0) -> float:
    """Weibull cumulative distribution function ``1 - exp(-(x/lam)**k)``."""
    if x < 0.0:
        raise DomainError(f"weibull support is x >= 0, got {x}")
    return _weibull_cdfs([x], lam, k)[0]


def weibull_inverse_cdf(u: float, lam: float = 1.0, k: float = 1.0) -> float:
    """Weibull quantile function; ``u`` must lie in [0, 1)."""
    if not 0.0 <= u < 1.0:
        raise DomainError(f"quantile argument must lie in [0, 1), got {u}")
    return lam * (-math.log1p(-u)) ** (1.0 / k)


def gamma_cdf(x: float, alpha: int, beta: float) -> float:
    """Gamma cumulative distribution for integer shape ``alpha``.

    Uses the closed-form finite sum available when the shape is integral:
    ``1 - sum_{i<alpha} (beta*x)^i / i! * exp(-beta*x)``.
    """
    if not (isinstance(alpha, int) and alpha >= 1):
        raise DomainError(f"alpha must be an integer >= 1, got {alpha!r}")
    if x < 0.0:
        raise DomainError(f"gamma support is x >= 0, got {x}")
    return _gamma_cdfs([x], alpha, beta)[0]


# kind -> (raw block sampler, block map into [0, 1], config fields the map takes);
# named functions pickle
_SAMPLERS = {
    EngineKind.GAUSSIAN: (StochasticEngine._gaussian_raws, _gaussian_cdfs, ("mu", "sigma")),
    EngineKind.WEIBULL: (StochasticEngine._weibull_raws, _weibull_cdfs, ("lam", "k")),
    EngineKind.GAMMA: (StochasticEngine._gamma_raws, _gamma_cdfs, ("alpha", "beta")),
    EngineKind.CHAOTIC: (StochasticEngine._chaotic_raws, _identity, ()),
}
