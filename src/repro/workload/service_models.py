"""Service-time (CPU demand) models.

The paper uses two workloads:

* a synthetic CPU-intensive PHP script "whose duration follows an
  exponential distribution of mean 100 ms" (§V-A), and
* MediaWiki page rendering, where wiki pages hit memcached or MySQL and
  are CPU-intensive while static pages cost "of the order of a
  millisecond" (§VI-C).

The classes here generate per-request CPU demands for those workloads
(and a few extra distributions useful for sensitivity studies).  Each
model draws from the RNG it is given, so workload generation stays
reproducible and independent of the rest of the simulation.
"""

from __future__ import annotations

import abc
import math

import numpy as np

from repro.errors import WorkloadError


class ServiceTimeModel(abc.ABC):
    """Draws per-request CPU demands (in seconds)."""

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator) -> float:
        """One CPU demand draw."""

    @abc.abstractmethod
    def mean(self) -> float:
        """Expected CPU demand, used by load calibration."""


class ExponentialServiceTime(ServiceTimeModel):
    """Exponential demand — the paper's Poisson-workload PHP script."""

    def __init__(self, mean_seconds: float = 0.1) -> None:
        if mean_seconds <= 0:
            raise WorkloadError(f"mean must be positive, got {mean_seconds!r}")
        self._mean = mean_seconds

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.exponential(self._mean))

    def mean(self) -> float:
        return self._mean


class DeterministicServiceTime(ServiceTimeModel):
    """Constant demand — used by tests and as a variance ablation."""

    def __init__(self, value_seconds: float) -> None:
        if value_seconds <= 0:
            raise WorkloadError(f"value must be positive, got {value_seconds!r}")
        self._value = value_seconds

    def sample(self, rng: np.random.Generator) -> float:
        return self._value

    def mean(self) -> float:
        return self._value


class LognormalServiceTime(ServiceTimeModel):
    """Lognormal demand, parameterised by its median and shape."""

    def __init__(self, median_seconds: float, sigma: float = 0.5) -> None:
        if median_seconds <= 0:
            raise WorkloadError(f"median must be positive, got {median_seconds!r}")
        if sigma <= 0:
            raise WorkloadError(f"sigma must be positive, got {sigma!r}")
        self._mu = math.log(median_seconds)
        self._sigma = sigma

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.lognormal(self._mu, self._sigma))

    def mean(self) -> float:
        return math.exp(self._mu + self._sigma ** 2 / 2)


class BoundedParetoServiceTime(ServiceTimeModel):
    """Heavy-tailed demand (bounded Pareto), for tail-sensitivity ablations."""

    def __init__(
        self,
        alpha: float = 1.5,
        lower_seconds: float = 0.01,
        upper_seconds: float = 2.0,
    ) -> None:
        if alpha <= 0:
            raise WorkloadError(f"alpha must be positive, got {alpha!r}")
        if not 0 < lower_seconds < upper_seconds:
            raise WorkloadError(
                f"bounds must satisfy 0 < lower < upper, got "
                f"{lower_seconds!r}, {upper_seconds!r}"
            )
        self._alpha = alpha
        self._lower = lower_seconds
        self._upper = upper_seconds

    def sample(self, rng: np.random.Generator) -> float:
        # Inverse-CDF sampling of the bounded Pareto distribution.
        u = float(rng.uniform())
        alpha, low, high = self._alpha, self._lower, self._upper
        ratio = (high / low) ** alpha
        value = low / (1 - u * (1 - 1 / ratio)) ** (1 / alpha)
        return float(value)

    def mean(self) -> float:
        alpha, low, high = self._alpha, self._lower, self._upper
        if alpha == 1.0:
            return low * math.log(high / low) / (1 - low / high)
        numerator = alpha * low ** alpha * (high ** (1 - alpha) - low ** (1 - alpha))
        denominator = (1 - (low / high) ** alpha) * (1 - alpha)
        return numerator / denominator


class WikiPageServiceTime(ServiceTimeModel):
    """Wiki-page rendering cost: cache-hit body with a database-miss tail.

    MediaWiki serves most page views from memcached (cheap) but a
    fraction miss the cache and hit MySQL plus the PHP parser
    (expensive).  The default parameters are the calibration recorded in
    DESIGN.md §6: a lognormal memcached-hit body with a 280 ms median and
    a 15 % MySQL-miss tail with a 700 ms median, chosen so that the peak
    of the replayed diurnal curve drives the 24-core testbed to ~90 %
    utilization — the regime the paper's testbed operates in when it
    replays 50 % of the trace.
    """

    def __init__(
        self,
        hit_median_seconds: float = 0.280,
        hit_sigma: float = 0.35,
        miss_median_seconds: float = 0.700,
        miss_sigma: float = 0.45,
        miss_probability: float = 0.15,
    ) -> None:
        if not 0 <= miss_probability <= 1:
            raise WorkloadError(
                f"miss probability must be in [0, 1], got {miss_probability!r}"
            )
        self._hit = LognormalServiceTime(hit_median_seconds, hit_sigma)
        self._miss = LognormalServiceTime(miss_median_seconds, miss_sigma)
        self._miss_probability = miss_probability

    def sample(self, rng: np.random.Generator) -> float:
        if float(rng.uniform()) < self._miss_probability:
            return self._miss.sample(rng)
        return self._hit.sample(rng)

    def mean(self) -> float:
        return (
            (1 - self._miss_probability) * self._hit.mean()
            + self._miss_probability * self._miss.mean()
        )


class StaticPageServiceTime(DeterministicServiceTime):
    """Static-page cost: about a millisecond, as measured in the paper."""

    def __init__(self, value_seconds: float = 0.001) -> None:
        super().__init__(value_seconds)

