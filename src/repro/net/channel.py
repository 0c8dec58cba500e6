"""Delivery channels: the seam that decides how a packet hop is scheduled.

Historically each forwarding component (:class:`~repro.net.fabric.LANFabric`,
the ECMP spreaders) scheduled delivery by
closing over the destination object and calling ``destination.receive``
directly.  That works only while sender and receiver share one
:class:`~repro.sim.engine.Simulator` in one process.

This module makes the hop explicit.  A *delivery channel* has one
primitive, :meth:`DeliveryChannel.send`: **call** ``arrive(packet)``
**after** ``delay``.  ``arrive`` is the receiving end of the hop — the
destination node's ``handle_packet`` for the fabric and the ECMP
spreader — so a delivery is one engine event carrying the packet as its
argument: no closure is allocated per packet, and the event fires
straight into the node.

* :class:`InProcessChannel` is the default — one scheduling call per
  packet with the given delay and (interned) label, so event ordering is
  bit-identical to direct ``receive()`` scheduling.  The LAN fabric and
  the ECMP edge push that same heap entry in line while their channel
  is their own in-process one, so such a hop never calls ``send`` (see
  :class:`~repro.net.fabric.LANFabric`).
* :class:`~repro.net.faults.FaultInjectionChannel` runs the hop through
  a fault pipeline before handing it to an inner channel.  When it wraps
  the fabric's own in-process channel (every fault pipeline a run
  installs), the fabric runs its injectors and pushes the entry in line
  too; its ``send`` serves any other inner channel.

Nothing here crosses a process: the pods of a ``scale`` run never
exchange a packet (each pod is an independent cell whose result goes
home as columns), so every channel lives
inside one simulator.

``deliver(sink, packet, delay, label, guard=None)`` is the convenience
form of the primitive for callers holding a sink object rather than an
arrival (tests, microbenchmarks, one-off senders): it wraps
``sink.receive`` — behind the optional zero-argument *guard*, which
returns ``False`` to drop the packet at arrival time — and calls
:meth:`~DeliveryChannel.send`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Protocol, Tuple

from repro.sim.engine import Simulator


class PacketSink(Protocol):
    """Anything that can receive a packet from the network."""

    def receive(self, packet: Any) -> None:
        """Handle an incoming packet."""


#: The receiving end of one hop: called with the packet when it arrives.
Arrival = Callable[[Any], None]

#: Delivery-time hook: return ``False`` to drop instead of delivering.
DeliveryGuard = Callable[[], bool]


class DeliveryChannel(Protocol):
    """One network hop: call ``arrive(packet)`` after ``delay``."""

    def send(self, arrive: Arrival, packet: Any, delay: float, label: str) -> None:
        """Schedule the arrival."""

    def deliver(
        self,
        sink: PacketSink,
        packet: Any,
        delay: float,
        label: str,
        guard: Optional[DeliveryGuard] = None,
    ) -> None:
        """:meth:`send` to ``sink.receive`` (behind ``guard``, if given)."""


class SinkDelivery:
    """The ``deliver(sink, ...)`` form, shared by every channel class."""

    __slots__ = ()

    def deliver(
        self,
        sink: PacketSink,
        packet: Any,
        delay: float,
        label: str,
        guard: Optional[DeliveryGuard] = None,
    ) -> None:
        if guard is None:
            arrive = sink.receive
        else:

            def arrive(packet: Any) -> None:
                if guard():
                    sink.receive(packet)

        self.send(arrive, packet, delay, label)


class InProcessChannel(SinkDelivery):
    """Channel between components sharing one simulator.

    ``send`` performs exactly one scheduling call with the given delay
    and label, so runs through this channel are bit-identical to direct
    ``receive`` scheduling (same event times, same FIFO sequence
    numbers, same labels).
    """

    __slots__ = ("_simulator", "send")

    def __init__(self, simulator: Simulator) -> None:
        self._simulator = simulator
        #: ``send(arrive, packet, delay, label)`` *is* the simulator's
        #: handle-free delivery scheduling (deliveries are fire-and-
        #: forget, never cancelled; validation and event ordering are
        #: identical to ``schedule_in``).  Binding the method here
        #: instead of wrapping it saves a frame on every packet hop.
        self.send = simulator._schedule_raw


# ----------------------------------------------------------------------
# Leftover of the cross-partition frame protocol
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BatchFrame:
    """A window of timestamped ``(time, payload)`` items from one partition.

    Nothing in ``src/`` builds or ships one any more — pods return
    column arrays.  It stays importable, constructible and picklable
    because the repository benchmark's ``net.frame_roundtrip_ns_per_item``
    microbenchmark (``benchmarks/perf/micro.py``, frozen) still pickles
    it; the benchmark change that retires that metric deletes this class.
    """

    partition: int
    window_end: float
    items: Tuple[Tuple[float, Any], ...] = ()
