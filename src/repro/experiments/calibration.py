"""Saturation-rate (λ₀) calibration.

The paper's bootstrap step identifies "λ₀, the max rate sustainable by
the 12-servers swarm, i.e. the smallest value of λ for which some TCP
connections were dropped" (§V-A), and then sweeps the normalized rate
ρ = λ/λ₀.

Two estimators are provided:

* :func:`analytic_saturation_rate` — the CPU-capacity bound
  ``total cores / mean service demand``, which is what the fleet can
  sustain in steady state; it is cheap and is the default normalisation
  used by the experiments.
* :func:`find_empirical_saturation_rate` — the paper's procedure: run
  short experiments at increasing rates and binary-search the smallest
  rate at which connections get reset, using the RR baseline (as the
  paper does).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional

from repro.analysis.queueing import saturation_rate as _analytic_rate
from repro.errors import ExperimentError
from repro.experiments.config import TestbedConfig, rr_policy
from repro.experiments.platform import build_testbed
from repro.experiments.scenario import trace_rng
from repro.workload.poisson import PoissonWorkload, poisson_trace
from repro.workload.service_models import ExponentialServiceTime
from repro.workload.trace import Trace

import numpy as np


def analytic_saturation_rate(
    config: TestbedConfig, service_mean: float = 0.1
) -> float:
    """CPU-capacity estimate of λ₀ (queries per second).

    Uses the speed-weighted core capacity, so heterogeneous fleets
    (``server_speed_factors``) normalise against what the mixed fleet
    can actually sustain; for homogeneous fleets this is exactly the
    core count.
    """
    return _analytic_rate(config.total_capacity, service_mean)


def legitimate_poisson_trace(config: Any) -> Trace:
    """The legitimate workload the chaos and adversarial families replay.

    ``config.num_queries`` Poisson queries of mean demand
    ``config.service_mean`` at ``config.load_factor`` of the testbed's
    analytic λ₀, salted with the query count; every cell of the family
    replays this one trace.
    """
    return poisson_trace(
        config.load_factor,
        analytic_saturation_rate(config.testbed, config.service_mean),
        config.num_queries,
        config.service_mean,
        trace_rng(config, config.num_queries),
    )


@dataclass
class CalibrationProbe:
    """Result of one probe run at a candidate rate."""

    rate: float
    queries: int
    drops: int

    @property
    def dropped(self) -> bool:
        """Whether any connection was reset at this rate."""
        return self.drops > 0


@dataclass
class CalibrationResult:
    """Outcome of the empirical λ₀ search."""

    saturation_rate: float
    analytic_rate: float
    probes: List[CalibrationProbe]

    @property
    def ratio_to_analytic(self) -> float:
        """Empirical λ₀ relative to the analytic capacity bound."""
        return self.saturation_rate / self.analytic_rate


#: Seed of every probe's trace (mixed with the probe's rate).
_PROBE_SEED = 7


def _probe_drops(
    config: TestbedConfig, rate: float, num_queries: int, service_mean: float
) -> CalibrationProbe:
    """Run one short RR experiment and count reset connections."""
    workload = PoissonWorkload(
        rate=rate,
        num_queries=num_queries,
        service_model=ExponentialServiceTime(service_mean),
    )
    trace = workload.generate(np.random.default_rng([_PROBE_SEED, int(rate * 1000)]))
    with build_testbed(config, rr_policy()) as testbed:
        testbed.run_trace(trace)
    drops = testbed.collector.totals.failed
    return CalibrationProbe(rate=rate, queries=num_queries, drops=drops)


def find_empirical_saturation_rate(
    config: Optional[TestbedConfig] = None,
    service_mean: float = 0.1,
    num_queries: int = 4_000,
    num_iterations: int = 6,
) -> CalibrationResult:
    """Binary-search the smallest rate at which connections are dropped.

    The search brackets the analytic capacity estimate (from 0.7× to
    1.6×); if no drops occur even at the upper bound the bound itself is
    returned, which keeps the procedure total.  ``num_iterations`` is
    the number of bisection steps after the bracket; 0 probes the
    bracket only.
    """
    if num_iterations < 0:
        raise ExperimentError(
            f"num_iterations must be non-negative, got {num_iterations!r}"
        )
    config = config or TestbedConfig()
    analytic = analytic_saturation_rate(config, service_mean)
    low, high = 0.7 * analytic, 1.6 * analytic
    probes: List[CalibrationProbe] = []

    high_probe = _probe_drops(config, high, num_queries, service_mean)
    probes.append(high_probe)
    if not high_probe.dropped:
        return CalibrationResult(
            saturation_rate=high, analytic_rate=analytic, probes=probes
        )

    low_probe = _probe_drops(config, low, num_queries, service_mean)
    probes.append(low_probe)
    if low_probe.dropped:
        # Even the conservative bracket drops: report it rather than
        # searching below; the caller can lower the bracket explicitly.
        return CalibrationResult(
            saturation_rate=low, analytic_rate=analytic, probes=probes
        )

    for _ in range(num_iterations):
        mid = (low + high) / 2.0
        probe = _probe_drops(config, mid, num_queries, service_mean)
        probes.append(probe)
        if probe.dropped:
            high = mid
        else:
            low = mid

    return CalibrationResult(
        saturation_rate=high, analytic_rate=analytic, probes=probes
    )
