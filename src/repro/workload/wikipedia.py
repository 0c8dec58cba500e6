"""Synthetic Wikipedia replay workload (paper §VI).

The paper replays 24 hours of real Wikipedia access traces (a 10 %
sample, filtered to the English wiki) against 12 MediaWiki replicas.
Those traces and a MediaWiki installation are not redistributable /
installable offline, so — per the substitution rule recorded in
DESIGN.md — this module generates a *synthetic* trace that preserves the
two properties the experiment depends on:

* a **diurnal arrival-rate curve** for wiki-page requests, with a trough
  around 08:00 UTC (~55 pages/s) and an evening peak (~115 pages/s),
  matching the query-rate panel of the paper's Figure 6;
* a **bimodal request mix**: CPU-intensive wiki pages (memcached hit or
  MySQL miss) and cheap static assets.

The arrival process is a non-homogeneous Poisson process generated by
thinning, so replaying a fraction of the trace (the paper replays 50 %)
or compressing the day for faster benchmark runs keeps the statistical
structure intact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.errors import WorkloadError
from repro.workload.requests import KIND_STATIC, KIND_WIKI
from repro.workload.service_models import (
    ServiceTimeModel,
    StaticPageServiceTime,
    WikiPageServiceTime,
)
from repro.workload.trace import Trace

#: Seconds in a day — the nominal duration of the replayed trace.
SECONDS_PER_DAY = 86_400.0


@dataclass
class DiurnalRateCurve:
    """Smooth diurnal arrival-rate curve (requests per second).

    The default parameters reproduce the shape of the paper's Figure 6:
    a minimum of about 55 wiki pages/s at ``trough_hour`` (08:00 UTC) and
    a maximum of about 115 pages/s twelve hours later, with a small
    second harmonic to make the evening peak slightly broader than the
    morning trough.
    """

    mean_rate: float = 85.0
    amplitude: float = 30.0
    trough_hour: float = 8.0
    second_harmonic: float = 6.0

    def __post_init__(self) -> None:
        if self.mean_rate <= 0:
            raise WorkloadError(f"mean rate must be positive, got {self.mean_rate!r}")
        if self.amplitude < 0 or self.amplitude >= self.mean_rate:
            raise WorkloadError(
                "amplitude must be non-negative and smaller than the mean rate"
            )

    def rate_at(self, time_of_day: float) -> float:
        """Arrival rate at ``time_of_day`` seconds past midnight UTC."""
        phase = 2.0 * math.pi * (time_of_day - self.trough_hour * 3600.0) / SECONDS_PER_DAY
        rate = (
            self.mean_rate
            - self.amplitude * math.cos(phase)
            + self.second_harmonic * math.sin(2.0 * phase)
        )
        return max(rate, 1e-6)

    def peak_rate(self) -> float:
        """Upper bound of the curve (used by the thinning sampler)."""
        return self.mean_rate + self.amplitude + abs(self.second_harmonic)


class SyntheticWikipediaWorkload:
    """Generator of the synthetic 24-hour Wikipedia replay trace.

    Wiki-page requests follow :class:`DiurnalRateCurve` (pages/s *at
    full trace scale*).

    Parameters
    ----------
    replay_fraction:
        Fraction of the trace replayed; the paper replays 50 % of the
        24-hour trace ("the testbed could sustain 50 % of the peak
        load").  Thinning by this fraction scales the arrival rate.
    static_per_wiki:
        Number of static-asset requests per wiki-page request.  Static
        requests are cheap and mostly serve to exercise the request mix.
    duration:
        Simulated duration of the replay in seconds.  When smaller than
        24 h the diurnal curve is traversed faster (time-lapse replay):
        instantaneous rates — and therefore load levels — are preserved,
        only the wall-clock length changes.  The benchmark suite uses
        this to keep run times reasonable.
    wiki_service_model, static_service_model:
        Per-request CPU demand models.
    """

    def __init__(
        self,
        replay_fraction: float = 1.0,
        static_per_wiki: float = 1.0,
        duration: float = SECONDS_PER_DAY,
        wiki_service_model: Optional[ServiceTimeModel] = None,
        static_service_model: Optional[ServiceTimeModel] = None,
    ) -> None:
        if not 0 < replay_fraction <= 1:
            raise WorkloadError(
                f"replay fraction must be in (0, 1], got {replay_fraction!r}"
            )
        if static_per_wiki < 0:
            raise WorkloadError(
                f"static_per_wiki must be non-negative, got {static_per_wiki!r}"
            )
        if duration <= 0:
            raise WorkloadError(f"duration must be positive, got {duration!r}")
        self.curve = DiurnalRateCurve()
        self.replay_fraction = replay_fraction
        self.static_per_wiki = static_per_wiki
        self.duration = duration
        self.wiki_service_model = wiki_service_model or WikiPageServiceTime()
        self.static_service_model = static_service_model or StaticPageServiceTime()

    # ------------------------------------------------------------------
    # rate helpers
    # ------------------------------------------------------------------
    def time_of_day(self, trace_time: float) -> float:
        """Map a trace timestamp to the equivalent time of day (seconds)."""
        return (trace_time / self.duration) * SECONDS_PER_DAY

    def wiki_rate_at(self, trace_time: float) -> float:
        """Replayed wiki-page arrival rate at a trace timestamp."""
        return self.curve.rate_at(self.time_of_day(trace_time)) * self.replay_fraction

    def static_rate_at(self, trace_time: float) -> float:
        """Replayed static-asset arrival rate at a trace timestamp."""
        return self.wiki_rate_at(trace_time) * self.static_per_wiki

    def peak_wiki_rate(self) -> float:
        """Peak replayed wiki-page rate over the trace."""
        return self.curve.peak_rate() * self.replay_fraction

    # ------------------------------------------------------------------
    # generation
    # ------------------------------------------------------------------
    def _thinned_arrivals(
        self, rng: np.random.Generator, rate_function, peak_rate: float
    ) -> List[float]:
        """Non-homogeneous Poisson arrivals by thinning a homogeneous process."""
        arrivals: List[float] = []
        time = 0.0
        while True:
            time += float(rng.exponential(1.0 / peak_rate))
            if time >= self.duration:
                break
            if float(rng.uniform()) * peak_rate <= rate_function(time):
                arrivals.append(time)
        return arrivals

    def generate(self, rng: np.random.Generator) -> Trace:
        """Generate the full trace (wiki pages + static assets).

        Request ids are local to the trace (wiki pages first, then
        static assets), so the trace — ids included — is fully
        determined by the generator's parameters and ``rng`` seed.  The
        ``jobs`` fan-out relies on this to regenerate identical
        traces inside worker processes.
        """
        wiki_arrivals = self._thinned_arrivals(
            rng, self.wiki_rate_at, self.peak_wiki_rate()
        )
        demands = [self.wiki_service_model.sample(rng) for _ in wiki_arrivals]
        static_arrivals: List[float] = []
        if self.static_per_wiki > 0:
            static_arrivals = self._thinned_arrivals(
                rng,
                self.static_rate_at,
                self.peak_wiki_rate() * self.static_per_wiki,
            )
            demands.extend(self.static_service_model.sample(rng) for _ in static_arrivals)

        count = len(wiki_arrivals) + len(static_arrivals)
        kind_codes = np.zeros(count, dtype=np.uint8)
        kind_codes[len(wiki_arrivals):] = 1
        return Trace.from_columns(
            np.arange(1, count + 1),
            wiki_arrivals + static_arrivals,
            demands,
            kind_codes,
            (KIND_WIKI, KIND_STATIC),
            name=f"wikipedia-{self.replay_fraction:g}x",
        )

    def __repr__(self) -> str:
        return (
            f"SyntheticWikipediaWorkload(replay={self.replay_fraction:g}, "
            f"duration={self.duration:g}s, peak={self.peak_wiki_rate():.1f} pages/s)"
        )
