"""Capacity accounting for the elastic control plane.

An autoscaled fleet is judged on two axes: whether it met its SLO, and
what it *paid* to do so.  This module provides the cost side:

* :class:`CapacityTracker` — a step-function integral of provisioned
  fleet capacity (speed-weighted cores) over simulated time, yielding
  **capacity-seconds**, the simulation's stand-in for an instance bill;
* :class:`ScalingEvent` — one record per control-plane action
  (scale-up, scale-down), with the monitor signal that triggered it;
* drain-duration bookkeeping — how long graceful drains took from the
  moment a server stopped taking new flows to its final detach.

Everything here is plain scalars and lists, so a tracker pickles as it
is and crosses the ``multiprocessing`` boundary of the scenario runner
inside the run result that holds it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.errors import ReproError


@dataclass(frozen=True)
class ScalingEvent:
    """One applied control-plane action."""

    time: float
    #: ``"scale-up"`` or ``"scale-down"``.
    action: str
    #: The (smoothed) monitor signal that triggered the action.
    signal: float
    #: Provisioned server count before and after the action.
    servers_before: int
    servers_after: int


class CapacityTracker:
    """Integrates provisioned capacity over time (capacity-seconds).

    ``record(time, capacity)`` appends one step of the capacity
    step-function; the capacity in force between two records is the
    earlier record's value.  The server lifecycle records every
    provisioning/detach transition here, so the integral covers the full
    window a server is paid for — provisioning delay and warm-up
    included, exactly like a cloud bill.
    """

    def __init__(self, start_time: float = 0.0, capacity: float = 0.0) -> None:
        if capacity < 0:
            raise ReproError(f"capacity must be non-negative, got {capacity!r}")
        self._steps: List[Tuple[float, float]] = [(start_time, capacity)]
        #: Latest timestamp seen by :meth:`record` — including records
        #: deduplicated away because the capacity was unchanged, so the
        #: time-ordering contract holds across no-op records too.
        self._last_seen = start_time
        self.events: List[ScalingEvent] = []
        self.drain_durations: List[float] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record(self, time: float, capacity: float) -> None:
        """Set the provisioned capacity from ``time`` onwards."""
        last_time, last_capacity = self._steps[-1]
        if time < self._last_seen:
            raise ReproError(
                f"capacity records must be time-ordered "
                f"({time!r} < {self._last_seen!r})"
            )
        self._last_seen = time
        if capacity < 0:
            raise ReproError(f"capacity must be non-negative, got {capacity!r}")
        if capacity == last_capacity:
            return
        if time == last_time:
            # Same-instant correction (e.g. several lifecycle transitions
            # in one control tick): overwrite instead of stacking.
            self._steps[-1] = (time, capacity)
        else:
            self._steps.append((time, capacity))

    def record_event(self, event: ScalingEvent) -> None:
        """Append one applied scaling action."""
        self.events.append(event)

    def record_drain(self, duration: float) -> None:
        """Append one completed graceful drain's duration, in seconds."""
        if duration < 0:
            raise ReproError(f"drain duration must be non-negative, got {duration!r}")
        self.drain_durations.append(duration)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    @property
    def current_capacity(self) -> float:
        """The capacity in force after the latest record."""
        return self._steps[-1][1]

    def series(self) -> List[Tuple[float, float]]:
        """The ``(time, capacity)`` step function (copy)."""
        return list(self._steps)

    def capacity_seconds(self, through: float) -> float:
        """Integral of provisioned capacity from the first record to ``through``."""
        first_time = self._steps[0][0]
        if through < first_time:
            raise ReproError(
                f"integration horizon {through!r} precedes the first record "
                f"at {first_time!r}"
            )
        total = 0.0
        for index, (time, capacity) in enumerate(self._steps):
            if time >= through:
                break
            next_time = (
                self._steps[index + 1][0]
                if index + 1 < len(self._steps)
                else through
            )
            total += capacity * (min(next_time, through) - time)
        return total

    def mean_capacity(self, through: float) -> float:
        """Time-averaged provisioned capacity over the window."""
        horizon = through - self._steps[0][0]
        if horizon <= 0:
            return self.current_capacity
        return self.capacity_seconds(through) / horizon

    def scale_ups(self) -> int:
        """Number of applied scale-up actions."""
        return sum(1 for event in self.events if event.action == "scale-up")

    def scale_downs(self) -> int:
        """Number of applied scale-down actions."""
        return sum(1 for event in self.events if event.action == "scale-down")

    def __repr__(self) -> str:
        return (
            f"CapacityTracker(capacity={self.current_capacity:g}, "
            f"steps={len(self._steps)}, events={len(self.events)})"
        )
