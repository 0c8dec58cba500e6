"""Unit tests for the flight recorder: events, ring, trips, JSON."""

from __future__ import annotations

import json

import pytest

from repro.errors import TelemetryError
from repro.telemetry.recorder import (
    DEFAULT_WINDOW,
    FlightDump,
    FlightEvent,
    FlightRecorder,
)


class TestRecord:
    def test_record_decodes_back_to_labels(self):
        recorder = FlightRecorder(slots=8)
        recorder.record(1.0, "retransmit", "client-3", 2.0)
        (event,) = recorder.events()
        assert event == FlightEvent(1.0, "retransmit", "client-3", 2.0)

    def test_an_integer_value_is_stored_and_dumped_as_a_float(self):
        # The client records request ids, which are ints.
        recorder = FlightRecorder(slots=8)
        recorder.record(2, "client", "retry", 17)
        (event,) = recorder.events()
        assert type(event.time) is float and type(event.value) is float
        dump = recorder.trip("manual", now=2.0)
        (entry,) = json.loads(json.dumps(dump.to_json_dict()))["events"]
        assert type(entry["time"]) is float and type(entry["value"]) is float
        assert entry["value"] == 17.0


class TestRing:
    def test_events_oldest_first(self):
        recorder = FlightRecorder(slots=8)
        for step in range(5):
            recorder.record(float(step), "tick", "t")
        assert [e.time for e in recorder.events()] == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_overwrite_keeps_newest(self):
        recorder = FlightRecorder(slots=4)
        for step in range(10):
            recorder.record(float(step), "tick", "t", float(step))
        events = recorder.events()
        assert [e.time for e in events] == [6.0, 7.0, 8.0, 9.0]
        assert len(recorder) == 4
        assert recorder.events_recorded == 10

    def test_invalid_slots_is_loud(self):
        with pytest.raises(TelemetryError):
            FlightRecorder(slots=0)


class TestTrip:
    def test_trip_filters_to_window(self):
        recorder = FlightRecorder(slots=64)
        for step in range(20):
            recorder.record(float(step), "tick", "t")
        dump = recorder.trip("slo:latency", now=19.0, window=5.0)
        assert dump.reason == "slo:latency"
        assert dump.tripped_at == 19.0
        # Cutoff is now - window = 14.0, inclusive.
        assert [e.time for e in dump.events] == [14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
        assert recorder.dumps == [dump]

    def test_trip_default_window(self):
        recorder = FlightRecorder(slots=8)
        dump = recorder.trip("quarantine:server-1", now=10.0)
        assert dump.window == DEFAULT_WINDOW
        assert dump.events == ()

    def test_trip_invalid_window_is_loud(self):
        with pytest.raises(TelemetryError):
            FlightRecorder(slots=8).trip("x", now=1.0, window=0.0)


class TestDumpJson:
    def test_round_trip_through_json_text(self):
        recorder = FlightRecorder(slots=16)
        recorder.record(1.0, "drop", "loss", 1.0)
        recorder.record(2.0, "retransmit", "client-0", 3.0)
        dump = recorder.trip("slo:busy", now=2.5, window=5.0)
        clone = FlightDump.from_json_dict(
            json.loads(json.dumps(dump.to_json_dict()))
        )
        assert clone == dump

    def test_malformed_json_is_loud(self):
        with pytest.raises(TelemetryError):
            FlightDump.from_json_dict({"reason": "x"})
