"""Point-to-point link model.

The experimental platform of the paper bridged all VPP instances on a
single link, so the default testbed uses the shared
:class:`~repro.net.fabric.LANFabric`.  Point-to-point links are still
provided as a substrate: they are useful for building multi-hop
topologies in examples, and for the ablation that adds network latency
between racks.

A link adds a fixed propagation latency plus a serialization delay
derived from the configured bandwidth, and models a finite FIFO output
queue (tail-drop) per direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Protocol

from repro.errors import NetworkError
from repro.net.channel import DeliveryChannel, InProcessChannel
from repro.net.packet import Packet
from repro.sim.engine import Simulator


class PacketSink(Protocol):
    """Anything that can receive a packet from the network."""

    def receive(self, packet: Packet) -> None:
        """Handle an incoming packet."""


@dataclass
class LinkStats:
    """Per-direction link counters.

    ``packets_dropped`` is the unified drop total; every drop is also
    counted in exactly one of the reason counters (the same accounting
    scheme as :class:`~repro.net.fabric.FabricStats`, documented in
    docs/architecture.md):

    * ``packets_dropped_queue_full`` — tail-drop at send time because
      the per-direction output queue was full;
    * ``packets_dropped_sink_detached`` — the receiving endpoint was
      detached, either at send time or while the packet was in flight.
      Mid-flight drops are also counted in ``packets_sent`` (the link
      carried the packet; the sink was gone on arrival).

    The remaining reason counters are incremented only by the fault
    pipelines of :mod:`repro.net.faults`, which reuse this stats record
    so fault drops live in the same unified taxonomy:

    * ``packets_dropped_loss`` — independent (i.i.d.) packet loss;
    * ``packets_dropped_burst`` — Gilbert–Elliott bursty loss;
    * ``packets_dropped_corrupted`` — corruption-as-drop (the frame
      fails its checksum at the receiver);
    * ``packets_dropped_link_down`` — offered during a scheduled flap
      window.

    ``packets_delayed_jitter`` and ``packets_reordered`` count delay
    shaping, not drops — they do not contribute to ``packets_dropped``.
    """

    packets_sent: int = 0
    packets_dropped: int = 0
    bytes_sent: int = 0
    packets_dropped_queue_full: int = 0
    packets_dropped_sink_detached: int = 0
    packets_dropped_loss: int = 0
    packets_dropped_burst: int = 0
    packets_dropped_corrupted: int = 0
    packets_dropped_link_down: int = 0
    packets_delayed_jitter: int = 0
    packets_reordered: int = 0

    def snapshot(self) -> Dict[str, int]:
        """Flat numeric counters (the uniform telemetry-sampler API).

        One entry per counter, drop reasons included — this is how the
        telemetry probe streams fault-plane accounting as time series
        and how the chaos scenario exposes per-reason totals in its
        payload without naming each field.
        """
        return {
            "packets_sent": self.packets_sent,
            "packets_dropped": self.packets_dropped,
            "bytes_sent": self.bytes_sent,
            "packets_dropped_queue_full": self.packets_dropped_queue_full,
            "packets_dropped_sink_detached": self.packets_dropped_sink_detached,
            "packets_dropped_loss": self.packets_dropped_loss,
            "packets_dropped_burst": self.packets_dropped_burst,
            "packets_dropped_corrupted": self.packets_dropped_corrupted,
            "packets_dropped_link_down": self.packets_dropped_link_down,
            "packets_delayed_jitter": self.packets_delayed_jitter,
            "packets_reordered": self.packets_reordered,
        }


class Link:
    """Bidirectional point-to-point link between two packet sinks.

    Parameters
    ----------
    simulator:
        The simulation engine used to schedule deliveries.
    endpoint_a, endpoint_b:
        The two attached nodes.
    latency:
        One-way propagation delay in seconds.
    bandwidth_bps:
        Link speed in bits per second; ``None`` means infinitely fast
        (no serialization delay and no queueing).
    queue_capacity:
        Maximum number of packets that may be in flight per direction
        before tail-drop kicks in.  Only enforced when a bandwidth is
        configured.
    """

    def __init__(
        self,
        simulator: Simulator,
        endpoint_a: PacketSink,
        endpoint_b: PacketSink,
        latency: float = 50e-6,
        bandwidth_bps: Optional[float] = None,
        queue_capacity: int = 1024,
        channel: Optional[DeliveryChannel] = None,
    ) -> None:
        if latency < 0:
            raise NetworkError(f"link latency must be non-negative, got {latency!r}")
        if bandwidth_bps is not None and bandwidth_bps <= 0:
            raise NetworkError(f"link bandwidth must be positive, got {bandwidth_bps!r}")
        if queue_capacity <= 0:
            raise NetworkError(f"queue capacity must be positive, got {queue_capacity!r}")
        self._simulator = simulator
        self._endpoints = (endpoint_a, endpoint_b)
        self.latency = latency
        self.bandwidth_bps = bandwidth_bps
        self.queue_capacity = queue_capacity
        self.channel: DeliveryChannel = (
            channel if channel is not None else InProcessChannel(simulator)
        )
        # Per-direction state, keyed by the *receiving* endpoint index.
        self._busy_until: Dict[int, float] = {0: 0.0, 1: 0.0}
        self._in_flight: Dict[int, int] = {0: 0, 1: 0}
        self._detached: Dict[int, bool] = {0: False, 1: False}
        self.stats: Dict[int, LinkStats] = {0: LinkStats(), 1: LinkStats()}
        # One arrival per direction, built at construction instead of
        # one closure per transmitted packet.  The arrivals read mutable
        # link state (in-flight counts, detach flags) through `self`,
        # so sharing them across packets is safe.
        self._arrivals = {
            0: self._make_arrival(0),
            1: self._make_arrival(1),
        }

    def _make_arrival(self, direction: int):
        stats = self.stats[direction]
        receiver = self._endpoints[direction]

        def arrive(packet: Packet) -> None:
            if self.bandwidth_bps is not None:
                self._in_flight[direction] -= 1
            if self._detached[direction]:
                # Detached while the packet was in flight: same counter
                # as the send-time case in transmit().
                stats.packets_dropped += 1
                stats.packets_dropped_sink_detached += 1
                return
            receiver.receive(packet)

        return arrive

    def detach(self, endpoint: PacketSink) -> None:
        """Detach ``endpoint``: packets toward it are dropped from now on.

        Drops — whether the detach happened before the send or while the
        packet was in flight — are counted uniformly as
        ``packets_dropped_sink_detached`` (plus the ``packets_dropped``
        total) on the sending direction's stats.
        """
        if endpoint is self._endpoints[0]:
            self._detached[0] = True
        elif endpoint is self._endpoints[1]:
            self._detached[1] = True
        else:
            raise NetworkError("node is not attached to this link")

    def transmit(self, sender: PacketSink, packet: Packet) -> bool:
        """Send ``packet`` from ``sender`` to the opposite endpoint.

        Returns ``True`` if the packet was accepted, ``False`` if it was
        tail-dropped because the output queue is full.
        """
        if sender is self._endpoints[0]:
            direction = 1
        elif sender is self._endpoints[1]:
            direction = 0
        else:
            raise NetworkError("sender is not attached to this link")
        stats = self.stats[direction]

        if self._detached[direction]:
            stats.packets_dropped += 1
            stats.packets_dropped_sink_detached += 1
            return False

        if self.bandwidth_bps is None:
            delivery_delay = self.latency
        else:
            if self._in_flight[direction] >= self.queue_capacity:
                stats.packets_dropped += 1
                stats.packets_dropped_queue_full += 1
                return False
            serialization = packet.size_bytes() * 8 / self.bandwidth_bps
            start = max(self._simulator.now, self._busy_until[direction])
            finish = start + serialization
            self._busy_until[direction] = finish
            delivery_delay = (finish - self._simulator.now) + self.latency
            self._in_flight[direction] += 1

        stats.packets_sent += 1
        stats.bytes_sent += packet.size_bytes()

        self.channel.send(
            self._arrivals[direction], packet, delivery_delay, "link-delivery"
        )
        return True
