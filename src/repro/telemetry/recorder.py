"""Flight recorder: a bounded ring of recent in-sim events.

Only cold paths feed the recorder: the client's SYN retransmissions,
retries and failures, and the probe's anomalies.  When something
*trips* — a watchdog quarantine — the recorder freezes the last N
simulated seconds into a JSON-serialisable :class:`FlightDump` (the
black-box readout of what the data plane was doing just before the
incident).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Tuple

from repro.errors import TelemetryError

#: Default ring size: enough for the densest smoke runs' full history.
DEFAULT_SLOTS = 4096

#: Default dump window, in simulated seconds before the trip.
DEFAULT_WINDOW = 5.0


@dataclass(frozen=True)
class FlightEvent:
    """One recorder entry."""

    time: float
    kind: str
    label: str
    value: float


@dataclass(frozen=True)
class FlightDump:
    """The frozen readout taken when a trip fires."""

    reason: str
    tripped_at: float
    window: float
    events: Tuple[FlightEvent, ...]

    def to_json_dict(self) -> Dict[str, Any]:
        """A JSON-serialisable form of the dump."""
        return {
            "reason": self.reason,
            "tripped_at": self.tripped_at,
            "window": self.window,
            "events": [
                {
                    "time": event.time,
                    "kind": event.kind,
                    "label": event.label,
                    "value": event.value,
                }
                for event in self.events
            ],
        }


class FlightRecorder:
    """Bounded event ring: the newest ``slots`` events, oldest first."""

    def __init__(self, slots: int = DEFAULT_SLOTS) -> None:
        if slots < 1:
            raise TelemetryError(
                f"recorder slots must be positive, got {slots!r}"
            )
        self.slots = slots
        self._events: Deque[FlightEvent] = deque(maxlen=slots)
        self.dumps: List[FlightDump] = []
        self.events_recorded = 0

    def record(self, time: float, kind: str, label: str, value: float = 0.0) -> None:
        """Append one event (drops the oldest once full)."""
        self._events.append(FlightEvent(float(time), kind, label, float(value)))
        self.events_recorded += 1

    def __len__(self) -> int:
        return len(self._events)

    def events(self) -> List[FlightEvent]:
        """Every retained event, oldest first."""
        return list(self._events)

    def trip(
        self, reason: str, now: float, window: float = DEFAULT_WINDOW
    ) -> FlightDump:
        """Freeze the last ``window`` simulated seconds into a dump."""
        if window <= 0:
            raise TelemetryError(
                f"dump window must be positive, got {window!r}"
            )
        cutoff = now - window
        dump = FlightDump(
            reason=reason,
            tripped_at=now,
            window=window,
            events=tuple(
                event for event in self._events if event.time >= cutoff
            ),
        )
        self.dumps.append(dump)
        return dump

    def __repr__(self) -> str:
        return (
            f"FlightRecorder(slots={self.slots}, retained={len(self)}, "
            f"recorded={self.events_recorded}, dumps={len(self.dumps)})"
        )
