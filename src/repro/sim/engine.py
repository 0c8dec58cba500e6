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
* **List heap entries.**  The heap stores ``[time, sequence, callback,
  arg, label]`` lists, compared in C (the unique sequence settles every
  tie); an event is one list, and an :class:`EventHandle` wraps it.
* **Cancellation without heap surgery.**  Cancelling sets the entry's
  callback to ``None``; the main loop skips dead events when they are
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
* **One pending entry per series.**  :meth:`Simulator.schedule_series`
  (a trace's arrivals) pushes item *i + 1* just before item *i* runs,
  with the sequence number it would have drawn had every item been
  scheduled at once.  It sorts after item *i*, so it is never the heap
  minimum while item *i* is pending: the pop order, ties included, is
  per-item scheduling's, on a heap as deep as what is in flight.
* **One pending entry per timer lane.**  A :class:`TimerLane` holds
  the timers that share one constant delay (a client's SYN
  retransmission timeout, its per-attempt deadline, a server's request
  timeout).  Every entry is ``now + delay`` with the sequence number
  drawn at arming, so a lane's entries are already in ``(time,
  sequence)`` order — a FIFO list, as in the per-interval lists of
  Varghese and Lauck's timing wheels.  Only the lane's earliest live
  entry sits on the heap; the next one is pushed when it fires or is
  cancelled, and sorts after it, so the pop order is ``schedule_in``'s
  per timer on a heap as deep as what is in flight.  Cancelling a
  queued timer marks its entry dead in O(1) and never touches the heap.
* **Callbacks are released eagerly.**  An event that leaves the heap
  (executed or discarded) drops its callback and argument references,
  so an :class:`EventHandle` kept around by a component cannot pin the
  callback's closure — and everything it captured, packets included —
  for the rest of a replay.
* **One run loop.**  :meth:`Simulator.run` pops and dispatches one
  event at a time; events sharing a timestamp run in ``(time,
  sequence)`` order because that is what the heap yields.  A property
  test holds a run cut short by ``max_events`` and :meth:`Simulator.stop`,
  then resumed, to the sequence one uninterrupted run executes.
* **No wall-clock coupling.**  The engine never sleeps; a 24-hour
  Wikipedia replay runs as fast as Python can drain the event heap.
"""

from __future__ import annotations

import heapq
import itertools
import sys
from collections import deque
from dataclasses import dataclass, field
from math import isfinite, isnan
from types import SimpleNamespace
from typing import Any, Callable, Iterable, List, Optional

from repro.errors import SchedulingError, SimulationError
from repro.sim.clock import SimulationClock
from repro.sim.random_streams import RandomStreams

#: The argument slot of an event scheduled without an argument (and of a
#: spent entry): its callback runs as ``callback()``, others' as ``callback(arg)``.
NO_ARG: Any = object()
#: The argument slot of a cancelled entry (its callback slot is ``None``).
_CANCELLED: Any = object()
#: Read only by benchmarks/perf/child.py (frozen), which refuses to run
#: when it is truthy; there is no compiled loop.
COMPILED_LOOP = False

#: Runs as ``callback()``, or as ``callback(arg)`` when the event was
#: scheduled with an argument.
EventCallback = Callable[..., None]

#: A heap entry: ``[time, sequence, callback, arg, label]``.  ``callback``
#: is ``None`` once the entry was cancelled or executed.
HeapEntry = List[Any]

#: Heaps smaller than this are never compacted — a linear sweep of a
#: few dozen entries costs more bookkeeping than the dead entries do.
_COMPACTION_MIN_HEAP = 64

_INFINITY = float("inf")

_heappush = heapq.heappush


class EventHandle:
    """Handle returned by :meth:`Simulator.schedule_at`, usable to cancel."""

    __slots__ = ("_entry", "_simulator")

    def __init__(self, entry: HeapEntry, simulator: "Simulator") -> None:
        self._entry = entry
        self._simulator = simulator

    @property
    def time(self) -> float:
        """Simulated time at which the event will fire."""
        return self._entry[0]

    @property
    def label(self) -> str:
        """Human-readable label given at scheduling time."""
        return self._entry[4]

    def cancel(self) -> None:
        """Prevent the event from firing.

        Cancelling twice is a no-op, and so is cancelling an event whose
        callback already ran: a fired timer stays "fired", it does not
        turn "cancelled" after the fact.
        """
        self._simulator._cancel(self._entry)

    def __repr__(self) -> str:
        entry = self._entry
        if entry[2] is not None:
            state = "pending"
        elif entry[3] is _CANCELLED:
            state = "cancelled"
        else:
            state = "done"
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
        self._heap: List[HeapEntry] = []
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
        """Number of callbacks executed so far (for diagnostics).

        :meth:`run` adds its count when it returns (or raises).
        """
        return self._events_executed

    @property
    def pending_events(self) -> int:
        """Entries on the heap (cancelled ones included; a series is one)."""
        return len(self._heap)

    @property
    def batch_stats(self) -> SimpleNamespace:
        """Read only by benchmarks/perf/tracing.py (frozen): ``batches``, one per event."""
        return SimpleNamespace(batches=self._events_executed)

    def _check_time(self, time: float, label: str) -> None:
        """Raise :class:`SchedulingError` if ``time`` cannot be scheduled."""
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

    def schedule_at(
        self,
        time: float,
        callback: EventCallback,
        label: str = "",
        arg: Any = NO_ARG,
    ) -> EventHandle:
        """Schedule ``callback`` at absolute simulated time ``time``.

        With ``arg`` the event fires as ``callback(arg)``, so a caller
        scheduling one bound method over many items (a packet's
        delivery, say) allocates no closure per item.
        """
        time = float(time)
        if not self.clock._now <= time < _INFINITY:  # NaN fails this too
            self._check_time(time, label)  # raises the precise error
        entry = [time, next(self._sequence), callback, arg, label]
        _heappush(self._heap, entry)
        return EventHandle(entry, self)

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

    def schedule_series(
        self,
        items: Iterable[Any],
        time_of: Callable[[Any], float],
        callback: EventCallback,
        label: str = "",
        start: float = 0.0,
    ) -> None:
        """Fire ``callback(item)`` at ``start + time_of(item)`` for every item.

        ``items`` is iterated twice (a collection, not an iterator): now,
        to check every time as :meth:`schedule_at` does and that they
        never decrease, and lazily, one item per firing.  The series
        reserves one sequence number per item now but keeps one entry on
        the heap; the pop order is ``schedule_at``'s per item (see the
        module docstring).  A series cannot be cancelled.
        """
        if iter(items) is items:
            raise SchedulingError(f"series {label!r} needs a collection, not an iterator")
        previous = self.clock._now
        count = 0
        for item in items:
            time = float(start + time_of(item))
            if not previous <= time < _INFINITY:  # NaN fails this too
                self._check_time(time, label)  # raises what schedule_at raises
                raise SchedulingError(
                    f"series {label!r} goes back in time: {time!r} after {previous!r}"
                )
            previous = time
            count += 1
        if not count:
            return
        first = next(self._sequence)
        self._sequence = itertools.count(first + count)
        sequence = itertools.count(first).__next__
        pending = iter(items)
        heap = self._heap

        def fire(item: Any) -> None:
            # Item i + 1 goes on the heap just before item i runs.
            following = next(pending, NO_ARG)
            if following is not NO_ARG:
                time = float(start + time_of(following))
                _heappush(heap, [time, sequence(), fire, following, label])
            if item is not NO_ARG:
                callback(item)

        fire(NO_ARG)  # queues the first item

    def _schedule_raw(
        self, callback: EventCallback, arg: Any, delay: float, label: str
    ) -> HeapEntry:
        """``schedule_in(delay, callback, label, arg)`` returning the raw entry.

        For the packet hop (:class:`~repro.net.channel.InProcessChannel`
        binds it as ``send``) and the CPU's completion re-arm (cancelled
        with :meth:`_cancel`), which keep no :class:`EventHandle`.  The
        same delays raise and the same sequence numbers are drawn.
        """
        time = self.clock._now + delay
        if not (delay >= 0.0 and time < _INFINITY):
            raise SchedulingError(
                f"cannot schedule event {label!r} with delay {delay!r}"
            )
        entry = [time, next(self._sequence), callback, arg, label]
        _heappush(self._heap, entry)
        return entry

    # ------------------------------------------------------------------
    # heap hygiene
    # ------------------------------------------------------------------
    def _cancel(self, entry: HeapEntry) -> None:
        """Cancel a pending entry; a no-op once it ran or was cancelled."""
        if entry[2] is None:
            return
        entry[2] = None
        entry[3] = _CANCELLED
        self._cancelled_on_heap += 1
        if self._cancelled_on_heap * 2 > len(self._heap) >= _COMPACTION_MIN_HEAP:
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
        # In-place replacement, NOT rebinding: run() holds a local alias
        # to this list while callbacks execute, and a callback that
        # cancels enough events lands here mid-run.  Rebinding would
        # leave the loop draining the stale pre-compaction list.
        self._heap[:] = [entry for entry in self._heap if entry[2] is not None]
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
            ``None`` (or ``+inf``) runs until the event heap is empty;
            NaN is rejected.
        max_events:
            Safety valve: stop after executing this many events (a
            non-negative count).

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
        if until is not None and isnan(until):
            # Every `time > nan` is false: the run would ignore its
            # horizon and never return with a periodic task on the heap.
            raise SchedulingError(f"cannot run until non-finite time {until!r}")
        if max_events is not None and max_events < 0:
            raise SimulationError(f"max_events must be non-negative, got {max_events!r}")
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run())")
        self._running = True
        self._stopped = False
        clock = self.clock
        heap = self._heap
        heappop = heapq.heappop
        no_arg = NO_ARG
        horizon = _INFINITY if until is None else until
        budget = sys.maxsize if max_events is None else max_events
        executed = 0
        try:
            while heap and executed < budget and not self._stopped:
                entry = heappop(heap)
                callback = entry[2]
                if callback is None:  # cancelled
                    self._cancelled_on_heap -= 1
                    continue
                time = entry[0]
                if time > horizon:
                    _heappush(heap, entry)  # it stays pending; same pop order
                    break
                clock._now = time
                arg = entry[3]
                entry[2] = None
                if arg is no_arg:
                    callback()
                else:
                    entry[3] = no_arg
                    callback(arg)
                executed += 1
            # Honour `run(until=T) == T` whenever no live event remains
            # at or before the horizon, regardless of why the loop ended
            # (heap drained, next event past the horizon, `max_events`
            # exhausted, or `stop()` after the last pre-horizon event).
            if until is not None and clock._now < until < _INFINITY:
                next_time = self.peek_next_time()
                if next_time is None or next_time > until:
                    clock.advance(until)
        finally:
            self._running = False
            self._events_executed += executed
        return clock._now

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stopped = True

    def peek_next_time(self) -> Optional[float]:
        """Time of the next live event, or ``None`` if none are pending."""
        heap = self._heap
        while heap and heap[0][2] is None:
            heapq.heappop(heap)
            self._cancelled_on_heap -= 1
        if not heap:
            return None
        return heap[0][0]

    def __repr__(self) -> str:
        return (
            f"Simulator(now={self.now!r}, pending={self.pending_events}, "
            f"executed={self._events_executed})"
        )


class TimerLane:
    """Timers of one constant ``delay`` that fire ``callback(arg)``.

    :meth:`arm` schedules ``callback(arg)`` at ``now + delay`` and
    returns the timer's heap entry, which :meth:`cancel` takes back; the
    lane draws the sequence number at arming, exactly as
    :meth:`Simulator.schedule_in` would, and keeps one entry on the heap
    (see the module docstring).  A bad ``delay`` raises at construction
    what ``schedule_in`` raises for it.
    """

    __slots__ = ("_simulator", "delay", "_callback", "label", "_queue")

    def __init__(
        self,
        simulator: Simulator,
        delay: float,
        callback: EventCallback,
        label: str = "",
    ) -> None:
        if delay < 0:
            raise SchedulingError(
                f"cannot schedule event {label!r} with negative delay {delay!r}"
            )
        simulator._check_time(simulator.clock._now + delay, label)
        self._simulator = simulator
        self.delay = delay
        self._callback = callback
        self.label = label
        #: Armed entries in firing order; the first one is on the heap
        #: and live, the others may be dead (cancelled).
        self._queue: deque = deque()

    def arm(self, arg: Any) -> HeapEntry:
        """Fire ``callback(arg)`` after the lane's delay; returns the entry."""
        simulator = self._simulator
        time = simulator.clock._now + self.delay
        if not time < _INFINITY:  # a finite delay past the clock's range
            simulator._check_time(time, self.label)
        entry = [time, next(simulator._sequence), self._fire, arg, self.label]
        queue = self._queue
        if not queue:
            _heappush(simulator._heap, entry)
        queue.append(entry)
        return entry

    def cancel(self, entry: HeapEntry) -> None:
        """Cancel an entry :meth:`arm` returned; a no-op once it ran or was cancelled."""
        if entry[2] is None:
            return
        queue = self._queue
        if queue[0] is entry:
            # On the heap: cancelled there, and its successor takes its place.
            self._simulator._cancel(entry)
            self._push_next()
        else:
            entry[2] = None
            entry[3] = _CANCELLED

    def _push_next(self) -> None:
        """Drop the head entry and put the next live one on the heap."""
        queue = self._queue
        queue.popleft()
        while queue:
            entry = queue[0]
            if entry[2] is not None:
                _heappush(self._simulator._heap, entry)
                return
            queue.popleft()

    def _fire(self, arg: Any) -> None:
        # The successor goes on the heap before the callback runs, so a
        # callback that raises or stops the run leaves the lane whole.
        self._push_next()
        self._callback(arg)


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
