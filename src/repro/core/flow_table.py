"""Load-balancer flow table (flow steering state).

Once a server has accepted a connection, "the role of the load balancer
... simply becomes to monitor TCP flows, to ensure that data packets
belonging to the same flow are delivered to the same application
instance as the one which accepted the first packet of the flow"
(paper §I-A).  The flow table is that per-flow steering state: it maps a
flow key to the accepting server, is populated when the SYN-ACK's SR
header announces the accepting server, and is consulted for every
subsequent packet of the flow.

Entries are garbage-collected by an idle timeout (real deployments do
the same since the return path may bypass the load balancer, so it never
reliably sees connection teardown), and the table can optionally enforce
a capacity with oldest-idle eviction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import FlowTableError
from repro.net.addressing import IPv6Address
from repro.net.packet import FlowKey


@dataclass(slots=True)
class FlowEntry:
    """Steering state for one flow (slotted: one per tracked flow)."""

    flow_key: FlowKey
    server: IPv6Address
    created_at: float
    last_seen: float


@dataclass
class FlowTableStats:
    """Aggregate flow-table counters."""

    entries_created: int = 0
    entries_expired: int = 0
    entries_evicted: int = 0


class FlowTable:
    """Per-flow steering table with idle-timeout expiry.

    Parameters
    ----------
    idle_timeout:
        Seconds of inactivity after which an entry may be reclaimed.
    capacity:
        Optional maximum number of entries; when full, the least
        recently used entry is evicted to make room.
    """

    def __init__(
        self,
        idle_timeout: float = 60.0,
        capacity: Optional[int] = None,
    ) -> None:
        if idle_timeout <= 0:
            raise FlowTableError(f"idle timeout must be positive, got {idle_timeout!r}")
        if capacity is not None and capacity <= 0:
            raise FlowTableError(f"capacity must be positive, got {capacity!r}")
        self.idle_timeout = idle_timeout
        self.capacity = capacity
        self._entries: Dict[FlowKey, FlowEntry] = {}
        # Time-bucketed expiry index: keys are filed under the bucket of
        # the last_seen they had when filed, and re-filed lazily — a
        # steer refreshes last_seen without moving the key, and the
        # periodic sweep re-files still-fresh keys it encounters.  The
        # sweep therefore only visits buckets old enough to *possibly*
        # hold expired entries instead of the whole table (the per-entry
        # staleness predicate is unchanged, so expiry results are
        # identical to the full-dict scan this replaced).
        self._bucket_width = idle_timeout / 8.0
        self._buckets: Dict[int, List[FlowKey]] = {}
        self.stats = FlowTableStats()

    def _file_key(self, flow_key: FlowKey, time: float) -> None:
        """File ``flow_key`` under the expiry bucket covering ``time``."""
        index = int(time / self._bucket_width)
        bucket = self._buckets.get(index)
        if bucket is None:
            bucket = self._buckets[index] = []
        bucket.append(flow_key)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def learn(self, flow_key: FlowKey, server: IPv6Address, now: float) -> FlowEntry:
        """Record that ``server`` accepted ``flow_key``.

        Re-learning an existing flow updates the server (the latest
        acceptance wins, which covers SYN retransmissions that may land
        on a different server).
        """
        entry = self._entries.get(flow_key)
        if entry is None:
            if self.capacity is not None and len(self._entries) >= self.capacity:
                self._evict_lru()
            entry = FlowEntry(flow_key, server, now, now)  # positional: no kwargs dict
            self._entries[flow_key] = entry
            self._file_key(flow_key, now)
            self.stats.entries_created += 1
        else:
            entry.server = server
            entry.last_seen = now
        return entry

    def _evict_lru(self) -> None:
        lru_key = min(self._entries, key=lambda key: self._entries[key].last_seen)
        del self._entries[lru_key]
        self.stats.entries_evicted += 1

    def expire_idle(self, now: float) -> int:
        """Drop entries idle for longer than the timeout; returns the count.

        Scans only the expiry buckets whose time range lies at or before
        ``now - idle_timeout`` — any entry filed later was seen too
        recently to have expired.  Keys found fresh (their ``last_seen``
        was refreshed since filing) are re-filed under their current
        bucket; keys whose entry is gone (removed or evicted) are simply
        dropped from the index.
        """
        limit = now - self.idle_timeout
        buckets = self._buckets
        width = self._bucket_width
        ripe = [index for index in buckets if index * width <= limit]
        expired = 0
        entries = self._entries
        idle_timeout = self.idle_timeout
        for index in ripe:
            for key in buckets.pop(index):
                entry = entries.get(key)
                if entry is None:
                    continue
                if now - entry.last_seen > idle_timeout:
                    del entries[key]
                    expired += 1
                else:
                    self._file_key(key, entry.last_seen)
        self.stats.entries_expired += expired
        return expired

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def steer(self, flow_key: FlowKey, now: float) -> Optional[IPv6Address]:
        """The server this flow is pinned to, refreshing its idle timer."""
        entry = self._entries.get(flow_key)
        if entry is None:
            return None
        entry.last_seen = now
        return entry.server

    def snapshot(self) -> Dict[str, int]:
        """The table's counters plus its live entry count, by name."""
        stats = self.stats
        return {
            "entries_created": stats.entries_created,
            "entries_expired": stats.entries_expired,
            "entries_evicted": stats.entries_evicted,
            "entries_live": len(self._entries),
        }

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, flow_key: FlowKey) -> bool:
        return flow_key in self._entries

    def __repr__(self) -> str:
        return (
            f"FlowTable(entries={len(self._entries)}, "
            f"created={self.stats.entries_created})"
        )
