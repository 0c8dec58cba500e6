"""Closed forms: the saturation rate and one birth–death chain per server.

* **calibration** — the saturation rate λ₀ of the testbed is estimated
  analytically (total core capacity over mean service demand) before
  the empirical search refines it;
* **the mean-field model** — :func:`sr_mean_field` gives the mean
  response time of a fleet of c-core servers under SRc with d
  candidates, or under RR (one uniform draw, d = 1: M/M/c/K);
  ``tests/test_analysis_oracle.py`` compares the simulator against it.
"""

from __future__ import annotations

import math

from repro.errors import ReproError

#: Bisection steps of the fixed point; 2⁻⁶⁰ is below a double's spacing at 1.
_BISECTIONS = 60


def _require_positive(name: str, value: float) -> None:
    """Finite and above zero, or one error naming the value.

    A NaN passes any ``x <= 0`` test and would come back as NaN metrics;
    an infinity turns a rate into 0 or NaN.
    """
    if not (math.isfinite(value) and value > 0):
        raise ReproError(f"{name} must be positive, got {value!r}")


def _stationary(births: list[float], deaths: list[float]) -> list[float]:
    """Stationary law of the birth–death chain on ``0..len(births)``.

    ``births[k]`` leaves state k upwards, ``deaths[k]`` leaves state
    k + 1 downwards; the weights are rescaled as they grow, so a long
    chain in overload cannot overflow.
    """
    weights = [1.0]
    for birth, death in zip(births, deaths):
        weights.append(weights[-1] * birth / death)
        if weights[-1] > 1e100:
            weights = [weight * 1e-100 for weight in weights]
    total = sum(weights)
    return [weight / total for weight in weights]


def sr_mean_field(
    arrival_rate: float,
    service_rate: float,
    cores: int,
    capacity: int,
    threshold: int,
    choices: int,
) -> float:
    """Mean response time of SRc with ``choices`` candidates as the fleet grows.

    Each server holds k ∈ [0, ``capacity``] queries (workers plus
    backlog) and serves them at μ·min(k, cores).  A query visits
    ``choices`` uniform candidates: each accepts below ``threshold``
    busy (k, while the threshold is at most the workers), the last is
    forced.  With S = P(k ≥ c) the fraction that refuses, a server at k
    sees births λ·(1{k < c}·Σ_{i<d−1} Sⁱ + S^(d−1)); S is the fixed
    point of the chain's own tail, found by bisection.  A full server
    drops the query; Little's law over the accepted rate gives the
    response time.  ``arrival_rate`` is λ per server.
    """
    _require_positive("arrival rate", arrival_rate)
    _require_positive("service rate", service_rate)
    _require_positive("cores", cores)
    _require_positive("capacity", capacity)
    _require_positive("choices", choices)
    if threshold < 0:
        raise ReproError(f"threshold must be >= 0, got {threshold!r}")
    deaths = [service_rate * min(k, cores) for k in range(1, capacity + 1)]

    def births(refused: float) -> list[float]:
        forced = arrival_rate * refused ** (choices - 1)
        optional = arrival_rate * sum(refused**i for i in range(choices - 1))
        return [forced + optional * (k < threshold) for k in range(capacity)]

    low, high = 0.0, 1.0
    for _ in range(_BISECTIONS):
        refused = (low + high) / 2
        if sum(_stationary(births(refused), deaths)[threshold:]) > refused:
            low = refused
        else:
            high = refused
    rates = births((low + high) / 2)
    probabilities = _stationary(rates, deaths)
    accepted = sum(p * rate for p, rate in zip(probabilities, rates))
    return sum(k * p for k, p in enumerate(probabilities)) / accepted


def saturation_rate(
    total_cores: int, mean_service_demand: float, safety_margin: float = 1.0
) -> float:
    """Analytic estimate of the cluster saturation rate λ₀.

    The cluster can serve at most ``total_cores / mean_service_demand``
    CPU-bound requests per second; ``safety_margin`` scales the estimate
    (values below 1 make it conservative).
    """
    _require_positive("total_cores", total_cores)
    _require_positive("mean service demand", mean_service_demand)
    _require_positive("safety margin", safety_margin)
    return safety_margin * total_cores / mean_service_demand
