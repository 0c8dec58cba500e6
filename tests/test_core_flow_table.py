"""Unit tests for the load balancer's flow table."""

import pytest

from repro.core.flow_table import FlowTable
from repro.errors import FlowTableError
from repro.net.addressing import IPv6Address
from repro.net.packet import FlowKey


def _flow(port):
    return FlowKey(
        IPv6Address.parse("fd00:200::1"), port, IPv6Address.parse("fd00:300::1"), 80
    )


def _entry(table, flow):
    """The table's entry for ``flow``, read without refreshing it."""
    return table._entries[flow]


def _server(index):
    return IPv6Address.parse(f"fd00:100::{index:x}")


class TestLearningAndSteering:
    def test_learn_then_steer(self):
        table = FlowTable()
        table.learn(_flow(1), _server(1), now=0.0)
        assert table.steer(_flow(1), now=1.0) == _server(1)
        assert _entry(table, _flow(1)).last_seen == 1.0

    def test_steer_unknown_flow_returns_none(self):
        table = FlowTable()
        assert table.steer(_flow(1), now=0.0) is None
        assert len(table) == 0

    def test_relearning_updates_server(self):
        table = FlowTable()
        table.learn(_flow(1), _server(1), now=0.0)
        table.learn(_flow(1), _server(2), now=1.0)
        assert table.steer(_flow(1), now=2.0) == _server(2)
        assert table.stats.entries_created == 1

    def test_snapshot_names_every_counter_and_the_live_count(self):
        table = FlowTable(capacity=1)
        table.learn(_flow(1), _server(1), now=0.0)
        table.learn(_flow(2), _server(2), now=1.0)
        table.steer(_flow(2), now=2.0)
        assert table.snapshot() == {
            "entries_created": 2,
            "entries_expired": 0,
            "entries_evicted": 1,
            "entries_live": 1,
        }

    def test_contains_and_len(self):
        table = FlowTable()
        table.learn(_flow(1), _server(1), now=0.0)
        assert _flow(1) in table
        assert len(table) == 1


class TestExpiry:
    def test_idle_entries_expire(self):
        table = FlowTable(idle_timeout=10.0)
        table.learn(_flow(1), _server(1), now=0.0)
        table.learn(_flow(2), _server(2), now=8.0)
        expired = table.expire_idle(now=15.0)
        assert expired == 1
        assert _flow(1) not in table
        assert _flow(2) in table

    def test_steering_refreshes_idle_timer(self):
        table = FlowTable(idle_timeout=10.0)
        table.learn(_flow(1), _server(1), now=0.0)
        table.steer(_flow(1), now=9.0)
        assert table.expire_idle(now=15.0) == 0

    def test_invalid_timeout_rejected(self):
        with pytest.raises(FlowTableError):
            FlowTable(idle_timeout=0.0)


class TestCapacity:
    def test_lru_eviction_when_full(self):
        table = FlowTable(capacity=2)
        table.learn(_flow(1), _server(1), now=0.0)
        table.learn(_flow(2), _server(2), now=1.0)
        table.steer(_flow(1), now=2.0)  # flow 2 is now the least recently used
        table.learn(_flow(3), _server(3), now=3.0)
        assert _flow(2) not in table
        assert _flow(1) in table
        assert table.stats.entries_evicted == 1

    def test_invalid_capacity_rejected(self):
        with pytest.raises(FlowTableError):
            FlowTable(capacity=0)


class TestDistribution:
    def test_learn_returns_the_entry_it_files(self):
        table = FlowTable()
        entry = table.learn(_flow(1), _server(1), now=0.0)
        assert entry.server == _server(1)
        assert _entry(table, _flow(1)) is entry
        assert len(table) == 1
