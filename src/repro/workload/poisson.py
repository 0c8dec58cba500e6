"""Poisson workload generator (paper §V).

The paper's synthetic workload is an open-loop Poisson stream of HTTP
queries with rate λ, each query running a CPU-bound PHP script whose
duration is exponentially distributed with mean 100 ms.  A bootstrap step
identifies λ₀, the maximum rate the 12-server swarm can sustain; the
experiments then sweep the normalized request rate ρ = λ/λ₀ across
(0, 1).

:class:`PoissonWorkload` generates such traces.  The rate can be given
either directly (``rate``) or as a normalized load factor (``rho``
together with ``saturation_rate``), matching how the experiments are
parameterised, and :func:`poisson_trace` is the one recipe every
Poisson-driven scenario family draws its trace from.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import WorkloadError
from repro.workload.requests import KIND_PHP
from repro.workload.service_models import ExponentialServiceTime, ServiceTimeModel
from repro.workload.trace import Trace


class PoissonWorkload:
    """Open-loop Poisson stream of CPU-bound queries.

    Parameters
    ----------
    rate:
        Arrival rate λ in queries per second.
    num_queries:
        Number of queries to generate (the paper uses batches of 20 000).
    service_model:
        Per-query CPU demand model; defaults to the paper's
        exponential(100 ms).
    start_time:
        Arrival time of the first inter-arrival interval's origin.
    """

    def __init__(
        self,
        rate: float,
        num_queries: int = 20_000,
        service_model: Optional[ServiceTimeModel] = None,
        start_time: float = 0.0,
    ) -> None:
        if rate <= 0:
            raise WorkloadError(f"arrival rate must be positive, got {rate!r}")
        if num_queries <= 0:
            raise WorkloadError(f"num_queries must be positive, got {num_queries!r}")
        self.rate = rate
        self.num_queries = num_queries
        self.service_model = service_model or ExponentialServiceTime(0.1)
        self.start_time = start_time

    @classmethod
    def from_load_factor(
        cls,
        rho: float,
        saturation_rate: float,
        num_queries: int = 20_000,
        service_model: Optional[ServiceTimeModel] = None,
    ) -> "PoissonWorkload":
        """Build a workload from a normalized load factor ρ = λ/λ₀."""
        if rho <= 0:
            raise WorkloadError(f"load factor must be positive, got {rho!r}")
        if saturation_rate <= 0:
            raise WorkloadError(
                f"saturation rate must be positive, got {saturation_rate!r}"
            )
        return cls(
            rate=rho * saturation_rate,
            num_queries=num_queries,
            service_model=service_model,
        )

    def generate(self, rng: np.random.Generator) -> Trace:
        """Generate the trace of arrivals and CPU demands.

        Request ids are local to the trace (``1..num_queries``), so the
        trace — ids included — is fully determined by the generator's
        parameters and ``rng`` seed.  The ``jobs`` fan-out relies
        on this to regenerate identical traces inside worker processes.
        """
        inter_arrivals = rng.exponential(1.0 / self.rate, size=self.num_queries)
        arrival_times = self.start_time + np.cumsum(inter_arrivals)
        demands = [self.service_model.sample(rng) for _ in range(self.num_queries)]
        return Trace.from_columns(
            np.arange(1, self.num_queries + 1),
            arrival_times,
            demands,
            np.zeros(self.num_queries, dtype=np.uint8),
            (KIND_PHP,),
            name=f"poisson-{self.rate:g}qps",
        )


def poisson_trace(
    load_factor: float,
    saturation_rate: float,
    num_queries: int,
    service_mean: float,
    rng: np.random.Generator,
) -> Trace:
    """The §V trace: arrivals at ρ·λ₀, exponential demands of ``service_mean``.

    Drawn from ``rng`` alone, so a family that seeds it from the
    workload (not the testbed or the policy) replays one trace under
    every cell of a comparison.
    """
    workload = PoissonWorkload.from_load_factor(
        rho=load_factor,
        saturation_rate=saturation_rate,
        num_queries=num_queries,
        service_model=ExponentialServiceTime(service_mean),
    )
    return workload.generate(rng)
