"""Flight recorder: a bounded ring of recent in-sim events.

Components feed the recorder from cold paths (client retransmissions,
watchdog strikes, fault-plane drops, control-plane actions) and pay two
array writes per event: labels are interned to small integer codes and
events live in preallocated array-backed slots, so a recorder attached
to a hot run costs no per-event allocation.  When something *trips* —
a watchdog quarantine — the recorder freezes the last N simulated seconds into a
JSON-serialisable :class:`FlightDump` (the black-box readout of what
the data plane was doing just before the incident).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Tuple

from repro.errors import TelemetryError

#: Default ring size: enough for the densest smoke runs' full history.
DEFAULT_SLOTS = 4096

#: Default dump window, in simulated seconds before the trip.
DEFAULT_WINDOW = 5.0


@dataclass(frozen=True)
class FlightEvent:
    """One decoded recorder entry."""

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

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "FlightDump":
        """Rebuild a dump from :meth:`to_json_dict` output."""
        try:
            events = tuple(
                FlightEvent(
                    time=float(entry["time"]),
                    kind=entry["kind"],
                    label=entry["label"],
                    value=float(entry["value"]),
                )
                for entry in data["events"]
            )
            return cls(
                reason=data["reason"],
                tripped_at=float(data["tripped_at"]),
                window=float(data["window"]),
                events=events,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TelemetryError(f"malformed flight dump JSON: {exc}") from exc


class FlightRecorder:
    """Bounded event ring with interned labels and array-backed slots.

    ``record`` is the only call on the fast path and performs no
    allocation once a ``(kind, label)`` pair has been seen: the pair is
    interned to an integer code and each event occupies one slot of two
    preallocated arrays.
    """

    def __init__(self, slots: int = DEFAULT_SLOTS) -> None:
        if slots < 1:
            raise TelemetryError(
                f"recorder slots must be positive, got {slots!r}"
            )
        self.slots = slots
        self._times = array("d", bytes(8 * slots))
        self._values = array("d", bytes(8 * slots))
        self._codes = array("i", bytes(4 * slots))
        self._head = 0
        self._count = 0
        #: ``(kind, label) -> code`` intern table, and its inverse.
        self._intern: Dict[Tuple[str, str], int] = {}
        self._labels: List[Tuple[str, str]] = []
        self.dumps: List[FlightDump] = []
        self.events_recorded = 0

    def code_of(self, kind: str, label: str) -> int:
        """Intern a ``(kind, label)`` pair; components may cache this."""
        key = (kind, label)
        code = self._intern.get(key)
        if code is None:
            code = len(self._labels)
            self._intern[key] = code
            self._labels.append(key)
        return code

    def record(self, time: float, kind: str, label: str, value: float = 0.0) -> None:
        """Append one event (overwrites the oldest once full)."""
        self.record_coded(time, self.code_of(kind, label), value)

    def record_coded(self, time: float, code: int, value: float = 0.0) -> None:
        """Append one event by pre-interned code (the cheapest feed)."""
        head = self._head
        self._times[head] = time
        self._codes[head] = code
        self._values[head] = value
        self._head = (head + 1) % self.slots
        if self._count < self.slots:
            self._count += 1
        self.events_recorded += 1

    def __len__(self) -> int:
        return self._count

    def events(self) -> List[FlightEvent]:
        """Every retained event, oldest first (decoded)."""
        if self._count < self.slots:
            order = range(self._count)
        else:
            order = [
                (self._head + offset) % self.slots for offset in range(self.slots)
            ]
        return [
            FlightEvent(
                time=self._times[index],
                kind=self._labels[self._codes[index]][0],
                label=self._labels[self._codes[index]][1],
                value=self._values[index],
            )
            for index in order
        ]

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
                event for event in self.events() if event.time >= cutoff
            ),
        )
        self.dumps.append(dump)
        return dump

    def __repr__(self) -> str:
        return (
            f"FlightRecorder(slots={self.slots}, retained={self._count}, "
            f"recorded={self.events_recorded}, dumps={len(self.dumps)})"
        )
