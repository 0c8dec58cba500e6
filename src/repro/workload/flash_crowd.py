"""Stepped-rate Poisson workload: flash crowds and load steps.

The flash-crowd scenario needs an arrival process whose rate *jumps*:
a steady baseline, a sudden overload spike (the crowd arriving), and a
recovery phase.  A Poisson process with piecewise-constant rate is
exactly that, and — because the exponential inter-arrival distribution
is memoryless — it can be generated exactly by running an independent
Poisson stream inside each phase: arrivals within ``[start, end)`` at
rate λ are the truncated cumulative sums of exponential(1/λ) draws.

:class:`SteppedPoissonWorkload` generalises
:class:`~repro.workload.poisson.PoissonWorkload` to any such schedule of
:class:`RatePhase` steps.  Like every generator in this package it is a
pure function of its parameters and the RNG seed, and numbers requests
``1..N`` trace-locally, so worker processes can regenerate identical traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import WorkloadError
from repro.workload.requests import KIND_PHP
from repro.workload.service_models import ExponentialServiceTime, ServiceTimeModel
from repro.workload.trace import Trace


@dataclass(frozen=True)
class RatePhase:
    """One constant-rate step of a stepped arrival schedule."""

    duration: float
    rate: float

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise WorkloadError(
                f"phase duration must be positive, got {self.duration!r}"
            )
        if self.rate <= 0:
            raise WorkloadError(f"phase rate must be positive, got {self.rate!r}")


class SteppedPoissonWorkload:
    """Open-loop Poisson stream with a piecewise-constant rate schedule.

    Parameters
    ----------
    phases:
        The rate schedule, replayed in order from ``start_time``.
    service_model:
        Per-query CPU demand model; defaults to the paper's
        exponential(100 ms).
    start_time:
        Trace time at which the first phase begins.
    """

    def __init__(
        self,
        phases: Sequence[RatePhase],
        service_model: Optional[ServiceTimeModel] = None,
        start_time: float = 0.0,
    ) -> None:
        if not phases:
            raise WorkloadError("a stepped workload needs at least one phase")
        self.phases: Tuple[RatePhase, ...] = tuple(phases)
        self.service_model = service_model or ExponentialServiceTime(0.1)
        self.start_time = start_time

    @property
    def total_duration(self) -> float:
        """Length of the whole schedule, in seconds."""
        return sum(phase.duration for phase in self.phases)

    def generate(self, rng: np.random.Generator) -> Trace:
        """Generate the trace of arrivals and CPU demands.

        Each phase contributes the arrivals of an independent Poisson
        stream truncated to the phase window, which is exact for a
        piecewise-constant-rate Poisson process.  Request ids are local
        to the trace (``1..N``).
        """
        arrival_times: List[float] = []
        phase_start = self.start_time
        for phase in self.phases:
            phase_end = phase_start + phase.duration
            time = phase_start
            while True:
                time += float(rng.exponential(1.0 / phase.rate))
                if time >= phase_end:
                    break
                arrival_times.append(time)
            phase_start = phase_end
        demands = [self.service_model.sample(rng) for _ in arrival_times]
        rates = "/".join(f"{phase.rate:g}" for phase in self.phases)
        return Trace.from_columns(
            np.arange(1, len(arrival_times) + 1),
            arrival_times,
            demands,
            np.zeros(len(arrival_times), dtype=np.uint8),
            (KIND_PHP,),
            name=f"stepped-poisson-{rates}qps",
        )

    def __repr__(self) -> str:
        steps = ", ".join(
            f"{phase.rate:g}qps x {phase.duration:g}s" for phase in self.phases
        )
        return f"SteppedPoissonWorkload([{steps}], service={self.service_model.describe()})"
