"""ECMP edge router: per-packet 5-tuple hashing over equal-cost next hops.

The paper's resiliency argument (§II-B) assumes the SRLB tier sits
*behind* an ECMP edge: the data-center border router advertises the VIPs
once and spreads flows over N identical load-balancer instances by
hashing each packet's 5-tuple, exactly like the Maglev and Ananta
deployments discussed in the related work.  :class:`EcmpEdgeRouter`
models that router faithfully — and therefore *imperfectly*:

* it hashes **each packet independently** on its own 5-tuple, so both
  directions of a flow are hashed on different tuples and the SYN-ACK of
  a connection generally reaches a *different* instance than the SYN did
  (the load-balancer tier must cope, which SRLB does because the SYN-ACK
  carries the accepting server in its SR header — see
  :mod:`repro.core.lb_tier`);
* it has no flow state: when the next-hop set changes, flows are
  remapped purely by the hash scheme.

Two hash schemes are provided so experiments can quantify the difference
membership churn makes:

* ``rendezvous`` — highest-random-weight (HRW) hashing; removing one of
  N next hops remaps exactly the flows the removed hop owned (~1/N);
* ``modulo`` — the naive ``hash % N`` over the hop list; removing a hop
  renumbers the list and remaps ~(N-1)/N of all flows.  This is the
  strawman that motivates consistent hashing in the first place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from hashlib import sha256 as _sha256
from heapq import heappush as _heappush
from typing import Dict, List, Sequence, Tuple

from repro.errors import RoutingError, SchedulingError
from repro.net.addressing import _TEXT_FORMS, IPv6Address
from repro.net.channel import DeliveryChannel, InProcessChannel
from repro.net.packet import FlowKey, Packet
from repro.net.router import NetworkNode
from repro.sim.engine import Simulator

#: Recognised flow-to-next-hop mapping schemes.
HASH_SCHEMES = ("rendezvous", "modulo")

_INFINITY = float("inf")


def five_tuple_key(flow_key: FlowKey) -> bytes:
    """Canonical 5-tuple an ECMP router hashes a TCP packet on, as UTF-8 bytes.

    ``tcp|src|sport|dst|dport``.  An address's text is read from
    :class:`IPv6Address`'s text memo; one not formatted yet (or a plain
    string) goes through ``str``, which fills the memo.
    """
    src, src_port, dst, dst_port = flow_key
    texts = _TEXT_FORMS
    return (
        f"tcp|{texts.get(src) or str(src)}|{src_port}|"
        f"{texts.get(dst) or str(dst)}|{dst_port}"
    ).encode()


class HopScorer:
    """The flow-to-next-hop hash over one fixed, name-sorted ECMP group.

    The single implementation of both hash schemes, shared by the live
    router, :func:`select_next_hop_name` and the ``scale`` family's
    offline pod table.  A hop's score for a key is the first 64 bits of
    ``sha256(f"{salt}:{key}")`` as a big-endian integer (stable and
    process-independent, like the Maglev table's hash).  The salted
    prefixes are encoded once per group, so scoring a key costs one
    ``sha256(prefix + key)`` per hop; the eight digest bytes are
    compared as bytes, which orders them as those integers.
    """

    __slots__ = ("names", "_modulo", "_prefixes")

    def __init__(self, hop_names: Sequence[str], hash_scheme: str) -> None:
        if hash_scheme not in HASH_SCHEMES:
            raise RoutingError(
                f"unknown ECMP hash scheme {hash_scheme!r}: expected one of "
                f"{HASH_SCHEMES}"
            )
        #: The group's hop names, sorted: ``index_for`` indexes this.
        self.names = tuple(sorted(hop_names))
        self._modulo = hash_scheme == "modulo"
        salts = (
            ["ecmp-modulo"]
            if self._modulo
            else [f"ecmp-hrw:{name}" for name in self.names]
        )
        self._prefixes = tuple(f"{salt}:".encode("utf-8") for salt in salts)

    def index_for(self, key: bytes) -> int:
        """Position in :attr:`names` of the hop the :func:`five_tuple_key` ``key`` hashes to."""
        names = self.names
        if not names:
            raise RoutingError("the ECMP group has no next hops")
        if self._modulo:
            # One score, not salted by hop, reduced over the group size.
            score = _sha256(self._prefixes[0] + key).digest()[:8]
            return int.from_bytes(score, "big") % len(names)
        # Rendezvous (HRW): every hop scores the key; the highest wins,
        # the first in name order on a tie (any score beats b"").
        best = 0
        best_score = b""
        for index, prefix in enumerate(self._prefixes):
            score = _sha256(prefix + key).digest()[:8]
            if score > best_score:
                best, best_score = index, score
        return best


@lru_cache(maxsize=32)
def _scorer_for(hop_names: Tuple[str, ...], hash_scheme: str) -> HopScorer:
    return HopScorer(hop_names, hash_scheme)


def select_next_hop_name(
    hop_names: Sequence[str],
    flow_key: FlowKey,
    hash_scheme: str = "rendezvous",
) -> str:
    """Pure form of the router's hashing decision, over hop *names*.

    This is the exact computation :meth:`EcmpEdgeRouter.next_hop_for`
    applies to its (name-sorted) ECMP group — both go through
    :class:`HopScorer`.  It is exposed as a free function so offline
    tooling — notably the hash-collision search in
    :mod:`repro.workload.hostile` — targets the very hash the data plane
    runs rather than a reimplementation that could silently drift.
    """
    scorer = _scorer_for(tuple(hop_names), hash_scheme)
    return scorer.names[scorer.index_for(five_tuple_key(flow_key))]


@dataclass
class EcmpEdgeStats:
    """Aggregate counters kept by the ECMP edge router."""

    #: Client-to-VIP packets spread over the next hops.
    forward_packets: int = 0
    #: Return-path packets (steering SYN-ACKs to the shared address).
    return_packets: int = 0
    #: Packets whose destination matched neither a VIP nor the steering
    #: address, or that arrived while the next-hop set was empty.
    packets_dropped: int = 0
    #: Next-hop set changes (adds + removals) since construction.
    membership_changes: int = 0
    #: Packets handed to each next hop, by name.
    per_next_hop: Dict[str, int] = field(default_factory=dict)

    def snapshot(self) -> Dict[str, int]:
        """Flat numeric counters (the uniform telemetry-sampler API)."""
        return {
            "forward_packets": self.forward_packets,
            "return_packets": self.return_packets,
            "packets_dropped": self.packets_dropped,
            "membership_changes": self.membership_changes,
            "next_hops": len(self.per_next_hop),
        }


class EcmpEdgeRouter(NetworkNode):
    """Data-center edge router spreading packets over equal-cost next hops.

    Parameters
    ----------
    simulator:
        Shared simulation engine.
    name:
        Node name (diagnostics).
    steering_address:
        Shared address of the tier behind the router.  Servers send
        their steering SYN-ACKs here; the router hashes them like any
        other packet (it cannot know which instance dispatched the SYN).
    hash_scheme:
        ``"rendezvous"`` (consistent, the default) or ``"modulo"``
        (naive, maximal disruption on membership change).
    """

    def __init__(
        self,
        simulator: Simulator,
        name: str,
        steering_address: IPv6Address,
        hash_scheme: str = "rendezvous",
    ) -> None:
        super().__init__(simulator, name)
        #: Hash of the current group (rebuilt on membership change, and
        #: the one place the scheme name is validated); ``_next_hops``
        #: is kept name-sorted, so its positions line up with the
        #: scorer's.
        self._scorer = HopScorer((), hash_scheme)
        self.add_address(steering_address)
        self.steering_address = steering_address
        self.hash_scheme = hash_scheme
        self._next_hops: List[NetworkNode] = []
        self._vips: List[IPv6Address] = []
        #: Memoized flow-to-hop decisions.  Both schemes are pure
        #: functions of (flow key, next-hop set), so the cache is
        #: behaviour-neutral; it is dropped wholesale on membership
        #: change, exactly like a real router reprogramming its ECMP
        #: group.  Bounded by the number of distinct 5-tuples seen
        #: between membership changes.
        self._hop_cache: Dict[FlowKey, NetworkNode] = {}
        #: Interned per-hop event labels (one f-string per hop, not per
        #: packet).
        self._spread_labels: Dict[str, str] = {}
        #: The delivery channel of the spread hop.  While it is the
        #: router's own in-process channel, :meth:`handle_packet` pushes
        #: the hop's heap entry itself, as the fabric does (the entry and
        #: sequence draw ``Simulator._schedule_raw`` would make).
        self.channel: DeliveryChannel = InProcessChannel(simulator)
        self._in_process = self.channel
        self.stats = EcmpEdgeStats()

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def add_next_hop(self, node: NetworkNode) -> None:
        """Add an equal-cost next hop to the group."""
        if any(existing.name == node.name for existing in self._next_hops):
            raise RoutingError(f"next hop {node.name!r} is already in the ECMP group")
        self._next_hops.append(node)
        self._next_hops.sort(key=lambda hop: hop.name)
        self._group_changed()

    def remove_next_hop(self, name: str) -> bool:
        """Remove a next hop (failure or drain); flows remap by the hash."""
        before = len(self._next_hops)
        self._next_hops = [hop for hop in self._next_hops if hop.name != name]
        if len(self._next_hops) != before:
            self._group_changed()
            return True
        return False

    def _group_changed(self) -> None:
        self._scorer = HopScorer(
            [hop.name for hop in self._next_hops], self.hash_scheme
        )
        self._hop_cache.clear()
        self.stats.membership_changes += 1

    def invalidate_next_hop_cache(self) -> int:
        """Drop every memoized flow-to-hop decision; returns the count.

        Membership changes do this implicitly.  The elastic control
        plane calls it on *server*-pool changes too, modelling the edge
        reprogramming its forwarding state when the topology behind it
        moves — behaviour-neutral (both hash schemes are pure functions
        of the flow key and the unchanged next-hop set), but it keeps
        the cache from carrying entries for flows that will never
        return.
        """
        dropped = len(self._hop_cache)
        self._hop_cache.clear()
        return dropped

    def register_vip(self, vip: IPv6Address) -> None:
        """Advertise a VIP at the edge (exact binding on this router)."""
        if vip not in self._vips:
            self._vips.append(vip)
            if self.fabric is not None:
                self.fabric.bind_address(vip, self)

    def attach(self, fabric) -> None:
        """Attach to the fabric, claiming the registered VIPs."""
        super().attach(fabric)
        for vip in self._vips:
            fabric.bind_address(vip, self)

    # ------------------------------------------------------------------
    # hashing
    # ------------------------------------------------------------------
    def next_hop_for(self, flow_key: FlowKey) -> NetworkNode:
        """The ECMP group member the given 5-tuple hashes to."""
        if not self._next_hops:
            raise RoutingError("the ECMP group has no next hops")
        hop = self._hop_cache.get(flow_key)
        if hop is not None:
            return hop
        # The same scorer class the pure selector uses, so the data
        # plane and offline tooling (the hostile-workload collision
        # search, the scale pod table) share one implementation.
        hop = self._next_hops[self._scorer.index_for(five_tuple_key(flow_key))]
        self._hop_cache[flow_key] = hop
        return hop

    # ------------------------------------------------------------------
    # forwarding
    # ------------------------------------------------------------------
    def handle_packet(self, packet: Packet) -> None:
        # Per-packet hashing: the packet's own 5-tuple, whichever
        # direction it travels.  A SYN-ACK therefore hashes on the
        # (VIP, client) tuple and may reach a different hop than the
        # (client, VIP) SYN did.  The memo hit and the miss
        # (next_hop_for) are inlined: this runs once per spread packet.
        stats = self.stats
        dst = packet._dst
        if dst in self._vips:
            is_return = False
        elif dst == self.steering_address:
            is_return = True
        else:
            stats.packets_dropped += 1
            return
        key = packet._flow_key
        hop = self._hop_cache.get(key)
        if hop is None:
            hops = self._next_hops
            if not hops:
                stats.packets_dropped += 1
                return
            hop = self._hop_cache[key] = hops[self._scorer.index_for(five_tuple_key(key))]
        if is_return:
            stats.return_packets += 1
        else:
            stats.forward_packets += 1
        name = hop.name
        per_hop = stats.per_next_hop
        per_hop[name] = per_hop.get(name, 0) + 1
        label = self._spread_labels.get(name)
        if label is None:
            label = self._spread_labels[name] = f"ecmp->{name}"
        fabric = self._fabric
        latency = fabric.latency if fabric is not None else 0.0
        channel = self.channel
        if channel is self._in_process:
            # Simulator._schedule_raw, inlined: same check, same entry.
            simulator = self.simulator
            time = simulator.clock._now + latency
            if not (latency >= 0.0 and time < _INFINITY):
                raise SchedulingError(
                    f"cannot schedule event {label!r} with delay {latency!r}"
                )
            _heappush(
                simulator._heap,
                [time, next(simulator._sequence), hop.handle_packet, packet, label],
            )
        else:
            channel.send(hop.handle_packet, packet, latency, label)

    def __repr__(self) -> str:
        return (
            f"EcmpEdgeRouter(name={self.name!r}, scheme={self.hash_scheme!r}, "
            f"next_hops={len(self._next_hops)}, vips={len(self._vips)})"
        )
