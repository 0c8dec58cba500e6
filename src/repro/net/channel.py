"""Delivery channels: the one seam every packet hop goes through.

Historically each forwarding component (:class:`~repro.net.fabric.LANFabric`,
:class:`~repro.net.link.Link`, the ECMP spreaders) scheduled delivery by
closing over the destination object and calling ``destination.receive``
directly.  That works only while sender and receiver share one
:class:`~repro.sim.engine.Simulator` in one process.

This module makes the hop explicit.  A *delivery channel* has one
primitive, :meth:`DeliveryChannel.send`: **call** ``arrive(packet)``
**after** ``delay``.  ``arrive`` is the receiving end of the hop — a
callable the forwarding component builds once per destination (the
fabric's per-address arrival with the detached-sink check folded in, a
link direction's arrival, an ECMP next hop's ``receive``) — so a
delivery is one engine event carrying the packet as its argument: no
closure is allocated per packet, and the event fires straight into the
arrival.

* :class:`InProcessChannel` is the default — one scheduling call per
  packet with the given delay and (interned) label, so event ordering is
  bit-identical to direct ``receive()`` scheduling.
* :class:`PooledInProcessChannel` additionally recycles packets whose
  life ended at the arrival.
* :class:`~repro.net.faults.FaultInjectionChannel` runs the hop through
  a fault pipeline before handing it to an inner channel.
* :class:`PipeChannelSender` / :class:`PipeChannelReceiver` carry
  timestamped items between *partitions* (separate simulator processes)
  as pickled :class:`BatchFrame` messages over ``multiprocessing`` pipes.
  They implement the conservative-lookahead frame protocol used by
  :mod:`repro.sim.partition`: a frame's ``window_end`` is a watermark —
  the sending partition guarantees it will never emit an item with a
  timestamp at or below it again.  An empty frame is a null message (pure
  watermark advance); ``window_end = inf`` is the closing sentinel.

``deliver(sink, packet, delay, label, guard=None)`` is the convenience
form of the primitive for callers holding a sink object rather than an
arrival (tests, microbenchmarks, one-off senders): it wraps
``sink.receive`` — behind the optional zero-argument *guard*, which
returns ``False`` to drop the packet at arrival time — and calls
:meth:`~DeliveryChannel.send`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Protocol, Sequence, Tuple

from repro.errors import NetworkError
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
        self.send = simulator._schedule_delivery


class PooledInProcessChannel(SinkDelivery):
    """:class:`InProcessChannel` that recycles delivered packets.

    Scheduling behaviour (delay, label, event sequence) is identical to
    the unpooled channel, so pooled runs stay bit-identical; the only
    addition is lifecycle tracking via :attr:`Packet.in_flight`:

    * ``send`` marks the packet in flight;
    * when the delivery fires, the mark is cleared *before* the arrival
      runs;
    * if the mark is still clear afterwards, nothing re-sent the packet
      during the arrival — its life ended there (consumed, or dropped
      because the sink was gone) — and it is released to the pool.

    A re-send during the arrival (an LB steering the packet onward, the
    ECMP router spreading it) goes through the same channel instance,
    re-marks the packet, and defers the release decision to the final
    hop.  For that to hold, *every* channel of a pooled testbed must be
    this one instance — ``build_testbed`` wires the fabric and the ECMP
    edge router accordingly.
    """

    __slots__ = ("_simulator", "pool", "_schedule")

    def __init__(self, simulator: Simulator, pool: Any) -> None:
        self._simulator = simulator
        self.pool = pool
        self._schedule = simulator._schedule_delivery

    def send(self, arrive: Arrival, packet: Any, delay: float, label: str) -> None:
        packet.in_flight = True
        self._schedule(self._arrive, (arrive, packet), delay, label)

    def _arrive(self, hop: Tuple[Arrival, Any]) -> None:
        arrive, packet = hop
        packet.in_flight = False
        arrive(packet)
        if not packet.in_flight:
            self.pool.release(packet)


# ----------------------------------------------------------------------
# Cross-partition batch frames
# ----------------------------------------------------------------------

#: A timestamped item inside a frame: ``(time, payload)``.  The payload
#: is an arbitrary picklable object — a packet, a request outcome, a
#: metric record — interpreted by the receiving end.
FrameItem = Tuple[float, Any]


@dataclass(frozen=True)
class BatchFrame:
    """One pickled message on a cross-partition channel.

    Attributes
    ----------
    partition:
        Index of the sending partition.
    window_end:
        Watermark: the sender guarantees every future item from this
        partition has ``time > window_end``.  ``math.inf`` marks the
        partition's closing frame (no further frames will follow).
    items:
        Timestamped items, in the partition's emission order.  Within a
        partition this order is authoritative: the merge preserves it
        for equal timestamps.
    summary:
        Optional partition summary, carried on the closing frame only
        (e.g. events executed and wall-clock time of the worker).
    """

    partition: int
    window_end: float
    items: Tuple[FrameItem, ...] = ()
    summary: Optional[Dict[str, Any]] = None

    @property
    def final(self) -> bool:
        """Whether this is the partition's closing sentinel frame."""
        return math.isinf(self.window_end)


class FrameSender(Protocol):
    """Sending half of a cross-partition channel."""

    def stage(self, time: float, payload: Any) -> None:
        """Buffer a timestamped item for the current window."""

    def flush(self, window_end: float) -> None:
        """Emit the buffered items as a frame with watermark ``window_end``."""

    def close(self, summary: Optional[Dict[str, Any]] = None) -> None:
        """Emit the closing sentinel frame."""


class PipeChannelSender:
    """Sending half speaking pickled :class:`BatchFrame` over a pipe.

    The connection is a ``multiprocessing.Pipe`` end (or anything with a
    compatible ``send``).  Frames are sent as they are flushed, so the
    coordinator can drain pipes concurrently and no partition's buffer
    grows with the run length.
    """

    __slots__ = ("_connection", "partition", "_buffer", "_watermark", "_closed")

    def __init__(self, connection: Any, partition: int) -> None:
        self._connection = connection
        self.partition = partition
        self._buffer: List[FrameItem] = []
        self._watermark = -math.inf
        self._closed = False

    def stage(self, time: float, payload: Any) -> None:
        if self._closed:
            raise NetworkError("channel sender is closed")
        if time <= self._watermark:
            raise NetworkError(
                f"item at t={time!r} is behind the emitted watermark "
                f"{self._watermark!r} (partition {self.partition})"
            )
        self._buffer.append((time, payload))

    def flush(self, window_end: float) -> None:
        if self._closed:
            raise NetworkError("channel sender is closed")
        if window_end < self._watermark:
            raise NetworkError(
                f"watermark may not move backwards: {window_end!r} < "
                f"{self._watermark!r} (partition {self.partition})"
            )
        self._connection.send(
            BatchFrame(self.partition, window_end, tuple(self._buffer))
        )
        self._buffer.clear()
        self._watermark = window_end

    def close(self, summary: Optional[Dict[str, Any]] = None) -> None:
        if self._closed:
            return
        self._connection.send(
            BatchFrame(self.partition, math.inf, tuple(self._buffer), summary)
        )
        self._buffer.clear()
        self._closed = True


class CollectingSender:
    """In-process :class:`FrameSender` that accumulates frames in a list.

    Used by the ``partitions=1`` execution path (and by tests) so the
    serial and multi-process paths run the *same* worker code and the
    same frame merge — which is what makes partitioned runs bit-identical
    to serial ones by construction.
    """

    __slots__ = ("partition", "frames", "_buffer", "_watermark", "_closed")

    def __init__(self, partition: int) -> None:
        self.partition = partition
        self.frames: List[BatchFrame] = []
        self._buffer: List[FrameItem] = []
        self._watermark = -math.inf
        self._closed = False

    def stage(self, time: float, payload: Any) -> None:
        if self._closed:
            raise NetworkError("channel sender is closed")
        if time <= self._watermark:
            raise NetworkError(
                f"item at t={time!r} is behind the emitted watermark "
                f"{self._watermark!r} (partition {self.partition})"
            )
        self._buffer.append((time, payload))

    def flush(self, window_end: float) -> None:
        if self._closed:
            raise NetworkError("channel sender is closed")
        if window_end < self._watermark:
            raise NetworkError(
                f"watermark may not move backwards: {window_end!r} < "
                f"{self._watermark!r} (partition {self.partition})"
            )
        self.frames.append(BatchFrame(self.partition, window_end, tuple(self._buffer)))
        self._buffer.clear()
        self._watermark = window_end

    def close(self, summary: Optional[Dict[str, Any]] = None) -> None:
        if self._closed:
            return
        self.frames.append(
            BatchFrame(self.partition, math.inf, tuple(self._buffer), summary)
        )
        self._buffer.clear()
        self._closed = True


class PipeChannelReceiver:
    """Receiving half: decodes :class:`BatchFrame` messages from a pipe."""

    __slots__ = ("_connection",)

    def __init__(self, connection: Any) -> None:
        self._connection = connection

    @property
    def connection(self) -> Any:
        """The underlying pipe end (for ``multiprocessing.connection.wait``)."""
        return self._connection

    def recv(self) -> BatchFrame:
        frame = self._connection.recv()
        if not isinstance(frame, BatchFrame):
            raise NetworkError(
                f"expected a BatchFrame on the channel, got {type(frame).__name__}"
            )
        return frame


# ----------------------------------------------------------------------
# Deterministic frame merge
# ----------------------------------------------------------------------


@dataclass
class MergedItem:
    """One item after the merge, with its provenance."""

    time: float
    partition: int
    seq: int  # emission index within the partition
    payload: Any = field(compare=False)


def merge_frames(frames: Iterable[BatchFrame]) -> List[MergedItem]:
    """Merge cross-partition frames into one deterministic event order.

    The result is sorted by ``(time, partition, seq)`` where ``seq`` is
    the item's emission index *within its partition* (counted across
    frames, in the per-partition frame order).  Because pipes are FIFO,
    per-partition frame order is preserved no matter how the coordinator
    interleaves reads across partitions — so the merged order depends
    only on the partitions' emissions, never on OS scheduling.  This is
    the property the hypothesis test in
    ``tests/test_partition_property.py`` pins.

    Frames may be passed in any cross-partition interleaving, but the
    frames *of one partition* must appear in their emission order (their
    watermarks must be non-decreasing; violations raise
    :class:`~repro.errors.NetworkError`).
    """
    merged: List[MergedItem] = []
    watermarks: Dict[int, float] = {}
    counters: Dict[int, int] = {}
    for frame in frames:
        previous = watermarks.get(frame.partition, -math.inf)
        if frame.window_end < previous:
            raise NetworkError(
                f"partition {frame.partition} frames out of order: watermark "
                f"{frame.window_end!r} after {previous!r}"
            )
        watermarks[frame.partition] = frame.window_end
        seq = counters.get(frame.partition, 0)
        for time, payload in frame.items:
            merged.append(MergedItem(time, frame.partition, seq, payload))
            seq += 1
        counters[frame.partition] = seq
    merged.sort(key=lambda item: (item.time, item.partition, item.seq))
    return merged


def drain_receivers(receivers: Sequence[PipeChannelReceiver]) -> List[BatchFrame]:
    """Collect every frame from ``receivers`` until each has closed.

    Uses ``multiprocessing.connection.wait`` so no pipe backs up while
    another is being read (a partition blocked on a full pipe buffer
    would deadlock the whole run).  Returns all frames, including the
    closing sentinels, in arrival order.
    """
    from multiprocessing.connection import wait

    by_connection = {receiver.connection: receiver for receiver in receivers}
    open_connections = list(by_connection)
    frames: List[BatchFrame] = []
    while open_connections:
        for connection in wait(open_connections):
            try:
                frame = by_connection[connection].recv()
            except EOFError as exc:
                raise NetworkError(
                    "a partition closed its channel without a sentinel frame"
                ) from exc
            frames.append(frame)
            if frame.final:
                open_connections.remove(connection)
    return frames
