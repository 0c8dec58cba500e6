"""The telemetry bus: named streaming series sampled *during* a run.

Every other metric in the reproduction is scraped after the fact — the
collector, the load sampler and the per-node stats records are all read
once the event heap has drained.  The bus is the in-sim counterpart: a
registry of named series (counters and gauges) that a periodic
sampling task appends to while the simulation runs, each backed by a
bounded numeric ring buffer so a million-event run costs no more
memory than its capacity (and a smoke test only what it sampled).

Determinism contract
--------------------
The bus is passive storage: recording a sample draws no randomness and
touches no simulation state, so runs with telemetry attached stay
bit-identical to runs without it (the goldens are re-checked with
telemetry enabled in CI).  The picklable :class:`TelemetryPayload`
export crosses process boundaries verbatim, and
:meth:`TelemetryPayload.merge` folds the payloads of ``scale``'s pods or
swept runs with a deterministic (time, payload order) rule.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.errors import TelemetryError
from repro.telemetry.anomaly import AnomalyEvent

#: Series kinds the bus distinguishes.  A *counter* carries cumulative
#: monotone totals (the sampler records the running value each tick); a
#: *gauge* carries instantaneous levels.
SERIES_KINDS = ("counter", "gauge")

#: Default ring capacity: enough for a 500-simulated-second run at the
#: default 0.25 s sampling interval, at 16 bytes per slot.
DEFAULT_CAPACITY = 2048


class RingBuffer:
    """Bounded (time, value) ring — the storage behind one series.

    Backed by two ``array('d')`` blocks that start empty and grow by
    appending until they hold ``capacity`` samples; from then on the
    oldest sample is overwritten in place.  A series costs what was
    sampled, never more than ``16 * capacity`` bytes, and appending
    stays a couple of slot writes.
    """

    __slots__ = ("capacity", "_times", "_values", "_head")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise TelemetryError(
                f"ring capacity must be positive, got {capacity!r}"
            )
        self.capacity = capacity
        self._times = array("d")
        self._values = array("d")
        #: Slot of the oldest sample once the ring is full (0 before).
        self._head = 0

    def append(self, time: float, value: float) -> None:
        """Record one sample (overwrites the oldest once full)."""
        times = self._times
        if len(times) < self.capacity:
            times.append(time)
            self._values.append(value)
            return
        head = self._head
        times[head] = time
        self._values[head] = value
        self._head = (head + 1) % self.capacity

    def __len__(self) -> int:
        return len(self._times)

    @property
    def latest(self) -> float:
        """The most recently appended value (loud when empty)."""
        if not self._values:
            raise TelemetryError("ring buffer is empty")
        return self._values[self._head - 1]

    def export(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(times, values)`` in chronological order, as float64 arrays.

        The arrays own their memory and hold only the filled part.
        """
        times = np.array(self._times, dtype=np.float64)
        values = np.array(self._values, dtype=np.float64)
        if self._head:
            return np.roll(times, -self._head), np.roll(values, -self._head)
        return times, values


class TelemetrySeries:
    """One named stream on the bus: a kind and a ring.

    The name is ``<tier>.<counter>``: a series' tier is its prefix.
    """

    __slots__ = ("name", "kind", "ring")

    def __init__(self, name: str, kind: str, capacity: int) -> None:
        if kind not in SERIES_KINDS:
            raise TelemetryError(
                f"series kind must be one of {SERIES_KINDS}, got {kind!r}"
            )
        self.name = name
        self.kind = kind
        self.ring = RingBuffer(capacity)

    def record(self, time: float, value: float) -> None:
        """Append one sample."""
        self.ring.append(time, value)

    @property
    def latest(self) -> float:
        """The most recent sample value (loud when empty)."""
        return self.ring.latest

    def __len__(self) -> int:
        return len(self.ring)

    def __repr__(self) -> str:
        return (
            f"TelemetrySeries(name={self.name!r}, kind={self.kind!r}, "
            f"samples={len(self.ring)})"
        )


class TelemetryBus:
    """Registry of named streaming series, one ring buffer each.

    Series are created lazily on first :meth:`record`, in a stable
    insertion order that the payload export preserves.  Recording is
    read-only with respect to the simulation: no RNG, no scheduled
    events, no node state.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise TelemetryError(
                f"bus capacity must be positive, got {capacity!r}"
            )
        self.capacity = capacity
        self._series: Dict[str, TelemetrySeries] = {}

    def record(
        self, name: str, time: float, value: float, kind: str = "gauge"
    ) -> None:
        """Append one sample, creating the series on first use."""
        series = self._series.get(name)
        if series is None:
            series = TelemetrySeries(name, kind, self.capacity)
            self._series[name] = series
        elif series.kind != kind:
            raise TelemetryError(
                f"series {name!r} is a {series.kind}, not a {kind}"
            )
        series.record(time, value)

    def series(self, name: str) -> TelemetrySeries:
        """The series registered under ``name`` (loud when missing)."""
        try:
            return self._series[name]
        except KeyError as exc:
            raise TelemetryError(
                f"no telemetry series named {name!r} (have "
                f"{sorted(self._series)})"
            ) from exc

    def __contains__(self, name: str) -> bool:
        return name in self._series

    def __len__(self) -> int:
        return len(self._series)

    def export_payload(
        self,
        anomalies: Sequence[AnomalyEvent] = (),
        meta: Mapping[str, Any] | None = None,
    ) -> "TelemetryPayload":
        """Snapshot every series into a picklable payload."""
        names: List[str] = []
        kinds: List[str] = []
        times: List[np.ndarray] = []
        values: List[np.ndarray] = []
        for series in self._series.values():
            series_times, series_values = series.ring.export()
            names.append(series.name)
            kinds.append(series.kind)
            times.append(series_times)
            values.append(series_values)
        return TelemetryPayload(
            capacity=self.capacity,
            names=tuple(names),
            kinds=tuple(kinds),
            times=tuple(times),
            values=tuple(values),
            anomalies=tuple(anomalies),
            meta=dict(meta or {}),
        )

    def __repr__(self) -> str:
        return f"TelemetryBus(series={len(self._series)}, capacity={self.capacity})"


@dataclass
class TelemetryPayload:
    """Picklable export of a bus: parallel tuples of series arrays.

    The same compact-arrays idiom as
    :class:`~repro.metrics.collector.CollectorPayload`: string tables
    plus float64 arrays, so the payload crosses the ``jobs`` worker
    process boundary verbatim and every derived figure is bit-identical
    to the in-process path.
    """

    capacity: int
    names: Tuple[str, ...]
    kinds: Tuple[str, ...]
    times: Tuple[np.ndarray, ...]
    values: Tuple[np.ndarray, ...]
    anomalies: Tuple[AnomalyEvent, ...] = ()
    meta: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def merge(cls, payloads: Sequence["TelemetryPayload"]) -> "TelemetryPayload":
        """Fold several payloads into one, deterministically.

        Series are united in first-seen order across the payload
        sequence; per series, samples are concatenated in payload order
        and stable-sorted by time (ties keep payload order), then
        truncated to the newest ``capacity`` samples — the same window
        rule a single ring would have applied.  Anomalies merge under
        the identical rule.  The payload *sequence* order is the
        caller's determinism obligation (cell order, pod index order).
        """
        payloads = list(payloads)
        if not payloads:
            raise TelemetryError("cannot merge zero telemetry payloads")
        if len(payloads) == 1:
            return payloads[0]
        capacity = max(payload.capacity for payload in payloads)
        names: List[str] = []
        kinds: Dict[str, str] = {}
        chunks: Dict[str, List[Tuple[np.ndarray, np.ndarray]]] = {}
        for payload in payloads:
            for index, name in enumerate(payload.names):
                kind = payload.kinds[index]
                if name not in chunks:
                    names.append(name)
                    kinds[name] = kind
                    chunks[name] = []
                elif kinds[name] != kind:
                    raise TelemetryError(
                        f"cannot merge series {name!r}: kind {kinds[name]!r} "
                        f"vs {kind!r}"
                    )
                chunks[name].append((payload.times[index], payload.values[index]))
        merged_times: List[np.ndarray] = []
        merged_values: List[np.ndarray] = []
        for name in names:
            times = np.concatenate([chunk[0] for chunk in chunks[name]])
            values = np.concatenate([chunk[1] for chunk in chunks[name]])
            order = np.argsort(times, kind="stable")
            times, values = times[order], values[order]
            if times.size > capacity:
                times, values = times[-capacity:], values[-capacity:]
            merged_times.append(times)
            merged_values.append(values)
        anomalies = tuple(
            sorted(
                (event for payload in payloads for event in payload.anomalies),
                key=lambda event: event.time,
            )
        )
        return cls(
            capacity=capacity,
            names=tuple(names),
            kinds=tuple(kinds[name] for name in names),
            times=tuple(merged_times),
            values=tuple(merged_values),
            anomalies=anomalies,
            meta={"merged_from": len(payloads), **payloads[0].meta},
        )

    # ------------------------------------------------------------------
    # JSON round-trip (the dashboard's on-disk format)
    # ------------------------------------------------------------------
    def to_json_dict(self) -> Dict[str, Any]:
        """A JSON-serialisable form (float lists instead of arrays)."""
        return {
            "capacity": self.capacity,
            "series": [
                {
                    "name": self.names[index],
                    "kind": self.kinds[index],
                    "times": [float(t) for t in self.times[index]],
                    "values": [float(v) for v in self.values[index]],
                }
                for index in range(len(self.names))
            ],
            "anomalies": [
                {
                    "time": event.time,
                    "series": event.series,
                    "kind": event.kind,
                    "value": event.value,
                    "expected": event.expected,
                    "residual": event.residual,
                    "threshold": event.threshold,
                }
                for event in self.anomalies
            ],
            "meta": dict(self.meta),
        }

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "TelemetryPayload":
        """Rebuild a payload from :meth:`to_json_dict` output.

        A ``tier`` key on a series (written by earlier versions, before
        a series' tier became its name's prefix) is ignored.
        """
        try:
            series = data["series"]
            capacity = int(data["capacity"])
        except (KeyError, TypeError, ValueError) as exc:
            raise TelemetryError(
                f"malformed telemetry payload JSON: {exc}"
            ) from exc
        return cls(
            capacity=capacity,
            names=tuple(entry["name"] for entry in series),
            kinds=tuple(entry["kind"] for entry in series),
            times=tuple(
                np.asarray(entry["times"], dtype=np.float64) for entry in series
            ),
            values=tuple(
                np.asarray(entry["values"], dtype=np.float64) for entry in series
            ),
            anomalies=tuple(
                AnomalyEvent(
                    time=float(entry["time"]),
                    series=entry["series"],
                    kind=entry["kind"],
                    value=float(entry["value"]),
                    expected=float(entry["expected"]),
                    residual=float(entry["residual"]),
                    threshold=float(entry["threshold"]),
                )
                for entry in data.get("anomalies", ())
            ),
            meta=dict(data.get("meta", {})),
        )
