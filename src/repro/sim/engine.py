"""Discrete-event simulation engine.

The engine is a classic event-list simulator: callbacks are scheduled at
absolute or relative simulated times, stored on a binary heap, and
executed in time order.  It is the substrate underneath the whole
reproduction — the network links, TCP handshakes, worker-thread service
completions, and workload arrival processes are all engine events.

Design points
-------------
* **Stable ordering.**  Events at the same timestamp run in scheduling
  order (FIFO), via a monotonically increasing sequence number.  This
  makes simulations deterministic, which the experiment harness and the
  property-based tests rely on.
* **Tuple heap entries.**  The heap stores ``(time, sequence, event)``
  tuples, so heap sifts compare in C (time first, unique sequence as the
  tie-break; the event object is never compared).  A full replay pushes
  and pops one entry per event, and the comparison-heavy dataclass heap
  this replaced was the single hottest function of a run.
* **Cancellation without heap surgery.**  :meth:`EventHandle.cancel`
  marks the event dead; the main loop skips dead events when they are
  popped.  This is O(1) and keeps the heap simple.  When dead entries
  come to dominate — more than half of a non-trivial heap, which
  happens in long replays that churn timers (re-attached samplers, LB
  kill/add recovery retries) — the heap is compacted in one O(n) pass,
  so cancelled events cannot pin memory until their timestamp is
  finally popped.
* **Events carry one optional argument.**  ``schedule_at(t, f, label,
  arg)`` fires as ``f(arg)``, so per-item scheduling (a packet's
  delivery, a trace's arrivals) passes one shared callable instead of
  allocating a closure per item.
* **Callbacks are released eagerly.**  An event that leaves the heap
  (executed or discarded) drops its callback and argument references,
  so an :class:`EventHandle` kept around by a component cannot pin the
  callback's closure — and everything it captured, packets included —
  for the rest of a replay.
* **One run loop.**  :meth:`Simulator.run` pops and dispatches one
  event at a time; events sharing a timestamp run in ``(time,
  sequence)`` order because that is what the heap yields.
  :meth:`Simulator.step` executes the same sequence one call at a time
  and is the reference the loop is held to by a property test.
* **No wall-clock coupling.**  The engine never sleeps; a 24-hour
  Wikipedia replay runs as fast as Python can drain the event heap.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from math import isfinite
from types import SimpleNamespace
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import SchedulingError, SimulationError
from repro.sim.clock import SimulationClock
from repro.sim.random_streams import RandomStreams

#: ``event.arg`` of an event scheduled without an argument: its callback
#: runs as ``callback()``, every other event's as ``callback(arg)``.
NO_ARG: Any = object()
#: Read only by benchmarks/perf/child.py (frozen), which refuses to run
#: when it is truthy; there is no compiled loop.
COMPILED_LOOP = False

#: Runs as ``callback()``, or as ``callback(arg)`` when the event was
#: scheduled with an argument.
EventCallback = Callable[..., None]

#: Heaps smaller than this are never compacted — a linear sweep of a
#: few dozen entries costs more bookkeeping than the dead entries do.
_COMPACTION_MIN_HEAP = 64

_INFINITY = float("inf")


class _ScheduledEvent:
    """Internal event record carried inside a ``(time, seq, event)`` entry.

    The record itself is never compared (the unique sequence number
    settles every tie before tuple comparison reaches it); it exists so
    handles can observe and cancel the event after it was pushed.
    """

    __slots__ = (
        "time", "sequence", "callback", "label", "arg", "cancelled", "done"
    )

    def __init__(
        self,
        time: float,
        sequence: int,
        callback: Optional[EventCallback],
        label: str = "",
        arg: Any = NO_ARG,
    ) -> None:
        self.time = time
        self.sequence = sequence
        self.callback = callback
        self.label = label
        self.arg = arg
        self.cancelled = False
        #: Set once the event has left the heap (executed or discarded),
        #: so a late ``cancel()`` does not count toward the compaction
        #: trigger.
        self.done = False


#: The heap entry type: time, scheduling sequence number, event record.
_HeapEntry = Tuple[float, int, _ScheduledEvent]


class EventHandle:
    """Handle returned by :meth:`Simulator.schedule`, usable to cancel."""

    __slots__ = ("_event", "_simulator")

    def __init__(
        self, event: _ScheduledEvent, simulator: Optional["Simulator"] = None
    ) -> None:
        self._event = event
        self._simulator = simulator

    @property
    def time(self) -> float:
        """Simulated time at which the event will fire."""
        return self._event.time

    @property
    def label(self) -> str:
        """Human-readable label given at scheduling time."""
        return self._event.label

    @property
    def cancelled(self) -> bool:
        """Whether the event has been cancelled."""
        return self._event.cancelled

    def cancel(self) -> None:
        """Prevent the event from firing.

        Cancelling twice is a no-op, and so is cancelling an event whose
        callback already ran: a fired timer stays "fired", it does not
        turn "cancelled" after the fact.
        """
        event = self._event
        if event.cancelled:
            return
        if event.done:  # already ran, or was drained: nothing to cancel
            return
        # Still on the heap: the callback can be dropped right away (the
        # run loop will skip the entry), and the owning simulator keeps
        # count so it can decide when compaction pays off.
        event.cancelled = True
        event.callback = None
        event.arg = NO_ARG
        if self._simulator is not None:
            self._simulator._note_cancelled()

    def __repr__(self) -> str:
        event = self._event
        if event.cancelled:
            state = "cancelled"
        elif event.done:
            state = "done"  # ran, or was drained
        else:
            state = "pending"
        return f"EventHandle(time={self.time!r}, label={self.label!r}, {state})"


class Simulator:
    """Discrete-event simulator with a shared clock and RNG streams.

    Parameters
    ----------
    seed:
        Root seed for the named random streams (see
        :class:`~repro.sim.random_streams.RandomStreams`).
    start_time:
        Initial simulated time, in seconds.
    """

    def __init__(self, seed: Optional[int] = 0, start_time: float = 0.0) -> None:
        self.clock = SimulationClock(start_time)
        self.streams = RandomStreams(seed)
        self._heap: List[_HeapEntry] = []
        self._sequence = itertools.count()
        self._running = False
        self._stopped = False
        self._events_executed = 0
        self._cancelled_on_heap = 0

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self.clock._now

    @property
    def events_executed(self) -> int:
        """Number of callbacks executed so far (for diagnostics)."""
        return self._events_executed

    @property
    def pending_events(self) -> int:
        """Number of events still on the heap (including cancelled ones)."""
        return len(self._heap)

    @property
    def batch_stats(self) -> SimpleNamespace:
        """Read only by benchmarks/perf/tracing.py (frozen): ``batches``, one per event."""
        return SimpleNamespace(batches=self._events_executed)

    def schedule_at(
        self,
        time: float,
        callback: EventCallback,
        label: str = "",
        arg: Any = NO_ARG,
    ) -> EventHandle:
        """Schedule ``callback`` at absolute simulated time ``time``.

        With ``arg`` the event fires as ``callback(arg)``, so a caller
        scheduling one bound method over many items (a trace's arrivals,
        a packet's delivery) allocates no closure per item.
        """
        time = float(time)
        if not isfinite(time):
            # NaN in particular would slip past the ordering guard below
            # (every comparison with NaN is false) and silently corrupt
            # the heap order for every event sifted past it.
            raise SchedulingError(
                f"cannot schedule event {label!r} at non-finite time {time!r}"
            )
        if time < self.clock._now:
            raise SchedulingError(
                f"cannot schedule event {label!r} at {time!r}, "
                f"which is before current time {self.clock._now!r}"
            )
        event = _ScheduledEvent(time, next(self._sequence), callback, label, arg)
        heapq.heappush(self._heap, (time, event.sequence, event))
        return EventHandle(event, self)

    def schedule_in(
        self,
        delay: float,
        callback: EventCallback,
        label: str = "",
        arg: Any = NO_ARG,
    ) -> EventHandle:
        """Schedule ``callback`` after a relative ``delay`` (seconds)."""
        if delay < 0:
            raise SchedulingError(
                f"cannot schedule event {label!r} with negative delay {delay!r}"
            )
        # A NaN delay passes the check above (NaN < 0 is false) but turns
        # the absolute time non-finite, which schedule_at rejects.
        return self.schedule_at(self.clock._now + delay, callback, label, arg)

    def _schedule_delivery(
        self, callback: EventCallback, arg: Any, delay: float, label: str
    ) -> None:
        """Fire-and-forget ``schedule_in(delay, callback, label, arg)``.

        The packet-delivery path: the signature is the delivery
        channel's ``send(arrive, packet, delay, label)``, and
        :class:`~repro.net.channel.InProcessChannel` binds this method
        as its ``send``.  Per-packet deliveries are never cancelled, so
        the :class:`EventHandle` that :meth:`schedule_in` allocates for
        every call is pure overhead on the hottest scheduling site of a
        replay.  This keeps the same validation outcome (negative, NaN
        and infinite delays all raise :class:`SchedulingError`: each
        fails one of the two comparisons) and draws from the same
        sequence counter, so event ordering is identical to the
        handle-returning path.
        """
        time = self.clock._now + delay
        if not (delay >= 0.0 and time < _INFINITY):
            raise SchedulingError(
                f"cannot schedule delivery {label!r} with delay {delay!r}"
            )
        event = _ScheduledEvent(time, next(self._sequence), callback, label, arg)
        heapq.heappush(self._heap, (time, event.sequence, event))

    # ------------------------------------------------------------------
    # heap hygiene
    # ------------------------------------------------------------------
    def _discard(self, event: _ScheduledEvent) -> None:
        """Bookkeeping for an event that just left the heap unexecuted."""
        event.done = True
        event.callback = None
        event.arg = NO_ARG
        if event.cancelled:
            self._cancelled_on_heap -= 1

    def _note_cancelled(self) -> None:
        """Called by :meth:`EventHandle.cancel` for an on-heap event."""
        self._cancelled_on_heap += 1
        self._maybe_compact_heap()

    def _maybe_compact_heap(self) -> None:
        """Rebuild the heap once cancelled entries exceed half of it.

        Long replays that churn timers (re-attached samplers, LB
        kill/add recovery) otherwise keep dead events on the heap until
        their timestamp is popped; the rebuild is one O(n) pass and
        preserves the (time, sequence) order of every live event, so it
        never changes simulation results.
        """
        if len(self._heap) < _COMPACTION_MIN_HEAP:
            return
        if self._cancelled_on_heap * 2 <= len(self._heap):
            return
        survivors: List[_HeapEntry] = []
        for entry in self._heap:
            event = entry[2]
            if event.cancelled:
                event.done = True
            else:
                survivors.append(entry)
        # In-place replacement, NOT rebinding: run() holds a local alias
        # to this list while callbacks execute, and a callback that
        # cancels enough events lands here mid-run.  Rebinding would
        # leave the loop draining the stale pre-compaction list.
        self._heap[:] = survivors
        heapq.heapify(self._heap)
        self._cancelled_on_heap = 0

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> float:
        """Run the simulation.

        Parameters
        ----------
        until:
            Stop once the next event would fire strictly after this time.
            ``None`` runs until the event heap is empty.
        max_events:
            Safety valve: stop after executing this many events.

        Returns
        -------
        float
            The simulated time when the run stopped.  ``run(until=T)``
            returns ``T`` whenever every live event at or before ``T``
            has been executed — including runs ended by ``max_events``
            or :meth:`stop` after the last such event.  A run cut short
            with work still pending at or before the horizon returns
            the time of the last executed event instead, so the
            unprocessed events remain in the clock's future.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run())")
        self._running = True
        self._stopped = False
        clock = self.clock
        heap = self._heap
        heappop = heapq.heappop
        no_arg = NO_ARG
        executed = 0
        try:
            while heap:
                if self._stopped:
                    break
                if max_events is not None and executed >= max_events:
                    break
                entry = heap[0]
                event = entry[2]
                if event.cancelled:
                    heappop(heap)
                    self._discard(event)
                    continue
                time = entry[0]
                if until is not None and time > until:
                    break
                heappop(heap)
                event.done = True
                callback = event.callback
                event.callback = None
                clock._now = time
                arg = event.arg
                if arg is no_arg:
                    callback()
                else:
                    event.arg = no_arg
                    callback(arg)
                self._events_executed += 1
                executed += 1
            # Honour `run(until=T) == T` whenever no live event remains
            # at or before the horizon, regardless of why the loop ended
            # (heap drained, next event past the horizon, `max_events`
            # exhausted, or `stop()` after the last pre-horizon event).
            if until is not None and until > clock._now:
                next_time = self.peek_next_time()
                if next_time is None or next_time > until:
                    clock.advance(until)
        finally:
            self._running = False
        return clock._now

    def step(self) -> bool:
        """Execute exactly one pending event.

        Returns ``True`` if an event was executed, ``False`` if the heap
        is empty.  Cancelled events are discarded silently, through the
        same :meth:`_discard` bookkeeping as the main loop, so stepping
        over them keeps the compaction counter exact.
        """
        while self._heap:
            entry = heapq.heappop(self._heap)
            event = entry[2]
            if event.cancelled:
                self._discard(event)
                continue
            event.done = True
            callback = event.callback
            event.callback = None
            arg = event.arg
            event.arg = NO_ARG
            self.clock._now = entry[0]
            if arg is NO_ARG:
                callback()
            else:
                callback(arg)
            self._events_executed += 1
            return True
        return False

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stopped = True

    def peek_next_time(self) -> Optional[float]:
        """Time of the next live event, or ``None`` if none are pending."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            self._discard(heapq.heappop(heap)[2])
        if not heap:
            return None
        return heap[0][0]

    def drain(self) -> int:
        """Discard all pending events; returns how many were discarded."""
        count = 0
        for entry in self._heap:
            event = entry[2]
            event.done = True
            event.callback = None
            event.arg = NO_ARG
            if not event.cancelled:
                count += 1
        self._heap.clear()
        self._cancelled_on_heap = 0
        return count

    def __repr__(self) -> str:
        return (
            f"Simulator(now={self.now!r}, pending={self.pending_events}, "
            f"executed={self._events_executed})"
        )


@dataclass
class PeriodicTask:
    """Helper that re-schedules a callback at a fixed period.

    Used by components that need a heartbeat (e.g. the metrics sampler
    that records per-server load every ``interval`` seconds for Figure 4).
    """

    simulator: Simulator
    interval: float
    callback: EventCallback
    label: str = "periodic"
    _handle: Optional[EventHandle] = field(default=None, init=False, repr=False)
    _active: bool = field(default=False, init=False, repr=False)

    def start(self, first_delay: Optional[float] = None) -> None:
        """Start ticking; the first tick fires after ``first_delay`` (default: one interval)."""
        if self.interval <= 0:
            raise SchedulingError(
                f"periodic task {self.label!r} needs a positive interval, "
                f"got {self.interval!r}"
            )
        if self._active:
            return
        self._active = True
        delay = self.interval if first_delay is None else first_delay
        self._handle = self.simulator.schedule_in(delay, self._tick, self.label)

    def stop(self) -> None:
        """Stop ticking; pending tick (if any) is cancelled."""
        self._active = False
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    @property
    def active(self) -> bool:
        """Whether the task is currently scheduled to keep ticking."""
        return self._active

    def _tick(self) -> None:
        if not self._active:
            return
        self.callback()
        if self._active:
            self._handle = self.simulator.schedule_in(
                self.interval, self._tick, self.label
            )


def exponential_delay(rng: Any, mean: float) -> float:
    """Draw an exponentially distributed delay with the given mean.

    Thin wrapper used throughout the workload generators so the
    distribution used for "exponential" is defined in exactly one place.
    """
    if mean <= 0:
        raise SimulationError(f"exponential mean must be positive, got {mean!r}")
    return float(rng.exponential(mean))
