"""Analytic queueing models (M/M/c and M/M/c/K).

These closed-form models serve two purposes in the reproduction:

* **calibration** — the saturation rate λ₀ of the testbed can be
  estimated analytically (total core capacity over mean service demand,
  corrected for the finite backlog) before the empirical search refines
  it, which keeps the calibration procedure cheap;
* **validation** — tests compare simulated single-server response times
  against the M/M/c predictions to make sure the server substrate's
  queueing behaviour is sound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ReproError


def _require_positive(name: str, value: float) -> None:
    """Finite and above zero, or one error naming the value.

    A NaN passes any ``x <= 0`` test and would come back as NaN metrics;
    an infinity turns a rate into 0 or NaN.
    """
    if not (math.isfinite(value) and value > 0):
        raise ReproError(f"{name} must be positive, got {value!r}")


def _validate_inputs(arrival_rate: float, service_rate: float, servers: int) -> None:
    _require_positive("arrival rate", arrival_rate)
    _require_positive("service rate", service_rate)
    _require_positive("server count", servers)


def erlang_c(arrival_rate: float, service_rate: float, servers: int) -> float:
    """Erlang C formula: probability that an arrival has to wait.

    Requires a stable system (offered load strictly less than the number
    of servers).
    """
    _validate_inputs(arrival_rate, service_rate, servers)
    offered = arrival_rate / service_rate
    if offered >= servers:
        raise ReproError(
            f"system is unstable: offered load {offered:.3f} >= servers {servers}"
        )
    # P0: normalisation constant of the M/M/c state distribution.
    summation = sum(offered ** k / math.factorial(k) for k in range(servers))
    last_term = offered ** servers / (
        math.factorial(servers) * (1 - offered / servers)
    )
    p_wait = last_term / (summation + last_term)
    return p_wait


@dataclass
class MMcMetrics:
    """Steady-state metrics of an M/M/c queue."""

    arrival_rate: float
    service_rate: float
    servers: int
    utilization: float
    probability_of_wait: float
    mean_wait: float
    mean_response_time: float
    mean_queue_length: float
    mean_jobs_in_system: float


def mmc_metrics(arrival_rate: float, service_rate: float, servers: int) -> MMcMetrics:
    """All the standard steady-state metrics of an M/M/c queue."""
    _validate_inputs(arrival_rate, service_rate, servers)
    offered = arrival_rate / service_rate
    utilization = offered / servers
    if utilization >= 1:
        raise ReproError(
            f"system is unstable: utilization {utilization:.3f} >= 1"
        )
    p_wait = erlang_c(arrival_rate, service_rate, servers)
    mean_wait = p_wait / (servers * service_rate - arrival_rate)
    mean_response = mean_wait + 1.0 / service_rate
    return MMcMetrics(
        arrival_rate=arrival_rate,
        service_rate=service_rate,
        servers=servers,
        utilization=utilization,
        probability_of_wait=p_wait,
        mean_wait=mean_wait,
        mean_response_time=mean_response,
        mean_queue_length=arrival_rate * mean_wait,
        mean_jobs_in_system=arrival_rate * mean_response,
    )


def mmck_blocking_probability(
    arrival_rate: float, service_rate: float, servers: int, capacity: int
) -> float:
    """Blocking probability of an M/M/c/K queue (K = total places).

    Used to estimate the connection-drop probability of one application
    server: ``servers`` worker slots in service and ``capacity`` total
    places (workers plus listen backlog).
    """
    _validate_inputs(arrival_rate, service_rate, servers)
    if capacity < servers:
        raise ReproError(
            f"capacity {capacity} must be at least the number of servers {servers}"
        )
    offered = arrival_rate / service_rate
    # Unnormalised state probabilities p_n for n = 0..K.
    probabilities = []
    for n in range(capacity + 1):
        if n <= servers:
            value = offered ** n / math.factorial(n)
        else:
            value = (
                offered ** n
                / (math.factorial(servers) * servers ** (n - servers))
            )
        probabilities.append(value)
    normalisation = sum(probabilities)
    return probabilities[capacity] / normalisation


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
