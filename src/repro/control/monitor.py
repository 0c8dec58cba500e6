"""Fleet monitoring: the sensing half of the elastic control plane.

The monitor reads exactly the signals the paper's Service Hunting agent
exposes locally — the Apache scoreboard's busy-worker count and the TCP
listen-backlog depth — but aggregated fleet-wide, and smooths the busy
fraction through the paper's EWMA filter (α = 1 − exp(−δt/τ)) so the
scaling policies act on a stable signal instead of per-tick noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.metrics.ewma import EWMAFilter
from repro.server.virtual_router import ServerNode, fleet_load


@dataclass(frozen=True)
class FleetSample:
    """One fleet-wide observation taken by the monitor."""

    time: float
    #: Servers in rotation (warming or active) when the sample was taken.
    serving_servers: int
    #: Busy Apache workers across the serving servers.
    busy_threads: int
    #: Worker-pool capacity across the serving servers.
    total_workers: int
    #: Connections queued in listen backlogs across the serving servers.
    backlog_depth: int
    #: Instantaneous ``busy_threads / total_workers`` (0 with no servers).
    busy_fraction: float
    #: EWMA-smoothed busy fraction — what the scaling policies read.
    smoothed_busy_fraction: float


class FleetMonitor:
    """Periodic sampler of fleet busy-fraction and backlog depth.

    The autoscaler calls :meth:`observe` once per control tick with the
    servers currently in rotation; the monitor keeps the full sample
    series so the scenario figures can plot what the control loop saw.

    Parameters
    ----------
    time_constant:
        τ of the EWMA smoothing, in seconds.  The paper's Figure 4 uses
        τ = 1 s; a control loop wants a slower filter (seconds to tens
        of seconds) so a single bursty tick cannot trigger a scale-up.
    """

    def __init__(self, time_constant: float = 5.0) -> None:
        self.time_constant = time_constant
        self._filter = EWMAFilter(time_constant)
        self._samples: List[FleetSample] = []

    def observe(self, time: float, servers: Sequence[ServerNode]) -> FleetSample:
        """Sample the serving ``servers`` at ``time`` and return the result."""
        busy, workers, backlog = fleet_load(servers)
        fraction = busy / workers if workers else 0.0
        smoothed = self._filter.update(time, fraction)
        sample = FleetSample(
            time=time,
            serving_servers=len(servers),
            busy_threads=busy,
            total_workers=workers,
            backlog_depth=backlog,
            busy_fraction=fraction,
            smoothed_busy_fraction=smoothed,
        )
        self._samples.append(sample)
        return sample

    def samples(self) -> List[FleetSample]:
        """Every sample taken so far (copy)."""
        return list(self._samples)

    def __len__(self) -> int:
        return len(self._samples)

    def __repr__(self) -> str:
        return (
            f"FleetMonitor(samples={len(self._samples)}, "
            f"tau={self.time_constant:g}s)"
        )
