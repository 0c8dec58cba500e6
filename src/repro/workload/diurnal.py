"""Diurnal workload: sinusoid-plus-noise arrival-rate modulation.

The autoscale scenario needs the load pattern real fleets scale against:
a smooth daily cycle — quiet trough, climbing morning ramp, afternoon
peak, evening decline — with per-interval noise on top.  This module
models one (time-compressed) day as a sinusoid,

    rate(t) = mean_rate − amplitude · cos(2π · t / period),

which starts at the trough (the elastic fleet starts small, "overnight")
and peaks mid-period.  The continuous curve is discretised into
``num_steps`` piecewise-constant :class:`~repro.workload.flash_crowd.RatePhase`
steps — each optionally perturbed by lognormal-ish multiplicative noise —
and handed to :class:`~repro.workload.flash_crowd.SteppedPoissonWorkload`,
whose memoryless per-phase generation is exact for piecewise-constant
Poisson processes.

Like every generator in this package, :meth:`DiurnalWorkload.generate`
is a pure function of its parameters and the RNG, so worker processes can
regenerate identical traces.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from repro.errors import WorkloadError
from repro.workload.flash_crowd import RatePhase, SteppedPoissonWorkload
from repro.workload.service_models import ExponentialServiceTime, ServiceTimeModel
from repro.workload.trace import Trace


class DiurnalWorkload:
    """Open-loop Poisson stream whose rate follows a noisy sinusoid.

    Parameters
    ----------
    mean_rate:
        The day's average arrival rate, in queries per second.
    amplitude:
        Peak-to-mean rate swing (``0 <= amplitude <= mean_rate``): the
        rate oscillates in ``[mean_rate − amplitude, mean_rate + amplitude]``
        before noise.
    period:
        Length of one (compressed) day, in seconds.
    duration:
        Total schedule length; may cover several periods.
    num_steps:
        Piecewise-constant steps the sinusoid is discretised into.
    noise:
        Relative standard deviation of the per-step multiplicative
        noise; 0 keeps the pure sinusoid.
    min_rate:
        Floor on each step's rate after noise (defaults to 5% of
        ``mean_rate``), keeping every phase a valid Poisson stream.
    service_model:
        Per-query CPU demand model; defaults to the paper's
        exponential(100 ms).
    """

    def __init__(
        self,
        mean_rate: float,
        amplitude: float,
        period: float,
        duration: float,
        num_steps: int = 48,
        noise: float = 0.0,
        min_rate: Optional[float] = None,
        service_model: Optional[ServiceTimeModel] = None,
        start_time: float = 0.0,
    ) -> None:
        # Finiteness guards matter here: an infinite duration or rate
        # would make the per-phase arrival loop draw forever.
        if not math.isfinite(mean_rate) or mean_rate <= 0:
            raise WorkloadError(
                f"mean_rate must be positive and finite, got {mean_rate!r}"
            )
        if not 0 <= amplitude <= mean_rate:
            raise WorkloadError(
                f"amplitude must be in [0, mean_rate], got {amplitude!r} "
                f"(mean_rate {mean_rate!r})"
            )
        if not math.isfinite(period) or period <= 0:
            raise WorkloadError(
                f"period must be positive and finite, got {period!r}"
            )
        if not math.isfinite(duration) or duration <= 0:
            raise WorkloadError(
                f"duration must be positive and finite, got {duration!r}"
            )
        if num_steps <= 0:
            raise WorkloadError(f"num_steps must be positive, got {num_steps!r}")
        if noise < 0:
            raise WorkloadError(f"noise must be non-negative, got {noise!r}")
        if min_rate is not None and min_rate <= 0:
            raise WorkloadError(f"min_rate must be positive, got {min_rate!r}")
        self.mean_rate = mean_rate
        self.amplitude = amplitude
        self.period = period
        self.duration = duration
        self.num_steps = num_steps
        self.noise = noise
        self.min_rate = min_rate if min_rate is not None else 0.05 * mean_rate
        self.service_model = service_model or ExponentialServiceTime(0.1)
        self.start_time = start_time

    def rate_at(self, time: float) -> float:
        """The noiseless sinusoid's rate at schedule time ``time``."""
        return self.mean_rate - self.amplitude * math.cos(
            2.0 * math.pi * time / self.period
        )

    def phases(self, rng: Optional[np.random.Generator] = None) -> List[RatePhase]:
        """The discretised (optionally noise-perturbed) rate schedule.

        Each step's rate is the sinusoid sampled at the step midpoint;
        with ``rng`` given and ``noise > 0`` it is multiplied by
        ``exp(noise · N(0, 1))`` — multiplicative, so bursts scale with
        the prevailing rate and the trough cannot go negative.
        """
        step = self.duration / self.num_steps
        phases: List[RatePhase] = []
        for index in range(self.num_steps):
            midpoint = (index + 0.5) * step
            rate = self.rate_at(midpoint)
            if self.noise > 0 and rng is not None:
                rate *= math.exp(self.noise * float(rng.standard_normal()))
            phases.append(RatePhase(duration=step, rate=max(rate, self.min_rate)))
        return phases

    def generate(self, rng: np.random.Generator) -> Trace:
        """Generate the trace: noise draws first, then per-phase arrivals.

        The draw order is fixed (one normal per step, then the stepped
        generator's exponentials), so the trace is a deterministic
        function of the parameters and the RNG state — the scenario
        runner's requirement for worker-side regeneration.
        """
        stepped = SteppedPoissonWorkload(
            phases=self.phases(rng),
            service_model=self.service_model,
            start_time=self.start_time,
        )
        trace = stepped.generate(rng)
        trace.name = (
            f"diurnal-{self.mean_rate:g}±{self.amplitude:g}qps-"
            f"{self.period:g}s-period"
        )
        return trace

    def __repr__(self) -> str:
        return (
            f"DiurnalWorkload(mean={self.mean_rate:g}qps, "
            f"amplitude={self.amplitude:g}, period={self.period:g}s, "
            f"duration={self.duration:g}s, steps={self.num_steps}, "
            f"noise={self.noise:g})"
        )
