"""Unit tests for the telemetry bus: rings, series, payload merge/JSON."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.errors import TelemetryError
from repro.telemetry.anomaly import AnomalyEvent
from repro.telemetry.bus import (
    DEFAULT_CAPACITY,
    RingBuffer,
    TelemetryBus,
    TelemetryPayload,
    TelemetrySeries,
)


class TestRingBuffer:
    def test_append_and_export_in_order(self):
        ring = RingBuffer(8)
        for step in range(5):
            ring.append(float(step), float(step * 10))
        times, values = ring.export()
        assert times.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert values.tolist() == [0.0, 10.0, 20.0, 30.0, 40.0]
        assert len(ring) == 5

    def test_wraparound_keeps_newest_in_chronological_order(self):
        ring = RingBuffer(4)
        for step in range(10):
            ring.append(float(step), float(step))
        times, values = ring.export()
        assert times.tolist() == [6.0, 7.0, 8.0, 9.0]
        assert values.tolist() == [6.0, 7.0, 8.0, 9.0]
        assert len(ring) == 4

    def test_latest(self):
        ring = RingBuffer(3)
        ring.append(0.0, 1.0)
        ring.append(1.0, 2.5)
        assert ring.latest == 2.5

    @pytest.mark.parametrize("capacity", [1, 3])
    def test_every_append_count_keeps_the_newest_capacity_samples(self, capacity):
        # Covers under-full, exactly-full (no wrap yet), and several laps.
        ring = RingBuffer(capacity)
        for count in range(1, 3 * capacity + 2):
            ring.append(float(count), float(-count))
            newest = list(range(max(1, count - capacity + 1), count + 1))
            times, values = ring.export()
            assert times.tolist() == [float(step) for step in newest]
            assert values.tolist() == [float(-step) for step in newest]
            assert len(ring) == len(newest)
            assert ring.latest == float(-count)

    def test_an_unwritten_ring_owns_no_capacity_sized_buffer(self):
        # 2**40 slots would be 16 TiB preallocated; an empty ring is free.
        ring = RingBuffer(1 << 40)
        assert len(ring) == 0
        times, values = ring.export()
        assert times.size == 0 and values.size == 0

    def test_export_owns_only_the_filled_part(self):
        ring = RingBuffer(2048)
        for step in range(5):
            ring.append(float(step), 1.0)
        for column in ring.export():
            assert column.base is None  # no view pinning a bigger buffer
            assert column.nbytes == 5 * 8
        # Exports are snapshots: later appends do not reach into them.
        times, _ = ring.export()
        ring.append(5.0, 1.0)
        assert times.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_empty_latest_is_loud(self):
        with pytest.raises(TelemetryError):
            RingBuffer(3).latest

    def test_invalid_capacity_is_loud(self):
        with pytest.raises(TelemetryError):
            RingBuffer(0)


class TestTelemetryBus:
    def test_series_created_lazily_in_insertion_order(self):
        bus = TelemetryBus(capacity=16)
        bus.record("b.second", 0.0, 1.0)
        bus.record("a.first", 0.0, 2.0, kind="counter")
        assert list(bus.export_payload().names) == ["b.second", "a.first"]
        assert "a.first" in bus and "missing" not in bus
        assert bus.series("a.first").kind == "counter"

    def test_kind_conflict_is_loud(self):
        bus = TelemetryBus(capacity=16)
        bus.record("x", 0.0, 1.0, kind="counter")
        with pytest.raises(TelemetryError):
            bus.record("x", 1.0, 2.0, kind="gauge")

    def test_unknown_series_is_loud(self):
        with pytest.raises(TelemetryError):
            TelemetryBus().series("nope")

    def test_invalid_series_kind_is_loud(self):
        with pytest.raises(TelemetryError):
            TelemetrySeries("x", "histogram", 8)

    def test_default_capacity(self):
        assert TelemetryBus().capacity == DEFAULT_CAPACITY

    def test_export_payload_is_picklable(self, series_of):
        bus = TelemetryBus(capacity=8)
        bus.record("s", 1.0, 2.0)
        payload = bus.export_payload(meta={"run": "t"})
        clone = pickle.loads(pickle.dumps(payload))
        times, values = series_of(clone, "s")
        assert times.tolist() == [1.0] and values.tolist() == [2.0]
        assert clone.meta["run"] == "t"


def _payload(name="s", times=(0.0, 1.0), values=(1.0, 2.0), kind="gauge",
             capacity=8, anomalies=()):
    return TelemetryPayload(
        capacity=capacity,
        names=(name,),
        kinds=(kind,),
        times=(np.asarray(times, dtype=np.float64),),
        values=(np.asarray(values, dtype=np.float64),),
        anomalies=tuple(anomalies),
    )


class TestPayloadMerge:
    def test_merge_zero_payloads_is_loud(self):
        with pytest.raises(TelemetryError):
            TelemetryPayload.merge([])

    def test_merge_single_payload_is_identity(self):
        payload = _payload()
        assert TelemetryPayload.merge([payload]) is payload

    def test_merge_concatenates_and_sorts_by_time(self, series_of):
        merged = TelemetryPayload.merge(
            [_payload(times=(0.0, 2.0), values=(1.0, 3.0)),
             _payload(times=(1.0, 3.0), values=(2.0, 4.0))]
        )
        times, values = series_of(merged, "s")
        assert times.tolist() == [0.0, 1.0, 2.0, 3.0]
        assert values.tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_merge_tie_keeps_payload_order(self, series_of):
        merged = TelemetryPayload.merge(
            [_payload(times=(1.0,), values=(10.0,)),
             _payload(times=(1.0,), values=(20.0,))]
        )
        _, values = series_of(merged, "s")
        assert values.tolist() == [10.0, 20.0]

    def test_merge_unites_names_in_first_seen_order(self):
        merged = TelemetryPayload.merge(
            [_payload(name="a"), _payload(name="b"), _payload(name="a")]
        )
        assert merged.names == ("a", "b")

    def test_merge_truncates_to_newest_capacity(self, series_of):
        merged = TelemetryPayload.merge(
            [_payload(times=(0.0, 1.0, 2.0), values=(0.0, 1.0, 2.0), capacity=4),
             _payload(times=(3.0, 4.0, 5.0), values=(3.0, 4.0, 5.0), capacity=4)]
        )
        times, _ = series_of(merged, "s")
        assert times.tolist() == [2.0, 3.0, 4.0, 5.0]

    def test_merge_kind_mismatch_is_loud(self):
        with pytest.raises(TelemetryError):
            TelemetryPayload.merge(
                [_payload(kind="gauge"), _payload(kind="counter")]
            )

    def test_merge_sorts_anomalies_and_records_provenance(self):
        late = AnomalyEvent(2.0, "s", "spike", 9.0, 1.0, 8.0, 4.0)
        early = AnomalyEvent(1.0, "s", "drop", 0.0, 1.0, -1.0, 0.5)
        merged = TelemetryPayload.merge(
            [_payload(anomalies=(late,)), _payload(anomalies=(early,))]
        )
        assert merged.anomalies == (early, late)
        assert merged.meta["merged_from"] == 2


class TestPayloadJson:
    def test_round_trip(self):
        event = AnomalyEvent(1.5, "s", "spike", 9.0, 1.0, 8.0, 4.0)
        payload = _payload(anomalies=(event,))
        payload.meta["run"] = "cell"
        clone = TelemetryPayload.from_json_dict(payload.to_json_dict())
        assert clone.names == payload.names
        assert clone.kinds == payload.kinds
        np.testing.assert_array_equal(clone.times[0], payload.times[0])
        np.testing.assert_array_equal(clone.values[0], payload.values[0])
        assert clone.anomalies == payload.anomalies
        assert clone.meta == payload.meta

    def test_malformed_json_is_loud(self):
        with pytest.raises(TelemetryError):
            TelemetryPayload.from_json_dict({"not": "a payload"})
