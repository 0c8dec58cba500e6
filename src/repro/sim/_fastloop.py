"""The simulator's inner run loop, batched by timestamp.

This module holds exactly one function — :func:`run_loop` — factored out
of :meth:`repro.sim.engine.Simulator.run` so it can optionally be
compiled (see ``tools/build_fastloop.py`` and the ``REPRO_COMPILED``
gate in :mod:`repro.sim.engine`).  It is deliberately plain Python: no
decorators, no closures, no dynamic features — the subset mypyc
compiles well.  The pure-Python version here is canonical; the compiled
build is a byte-identical copy under the module name
``repro.sim._fastloop_c``.

Batching
--------
The loop executes events in ``(time, sequence)`` order, exactly like
the serial loop it replaced, but drains *all ready entries sharing the
current timestamp* off the heap in one pass before running them: one
clock advance, one cancelled-entry sweep, and one heap interaction per
batch instead of per event.  Timer-heavy scenarios (synchronized
samplers, window boundaries, per-tick housekeeping) spend a measurable
share of their heap traffic on same-timestamp runs.

Most timestamps in a packet-grain replay are distinct floats, so the
common case takes a **singleton fast path**: when the entry just popped
is not followed by another entry at the same time, it executes
immediately with no batch bookkeeping at all.  This keeps the batched
loop from taxing the case it cannot help.

Equivalence argument (why goldens stay bit-identical):

* Batch members are popped in heap order, so they execute in the same
  ``(time, sequence)`` order as the serial loop.
* Events scheduled *by* a batch member carry sequence numbers larger
  than every drained member's, so they cannot belong earlier in the
  current batch; they land on the heap and are picked up afterwards —
  exactly when the serial loop would reach them.
* A member cancelled by an earlier member of its own batch is skipped
  (the serial loop would have discarded it when popped); its callback
  and argument references are dropped here because
  :meth:`EventHandle.cancel` leaves off-heap events' references alone.
* ``stop()`` mid-batch pushes the unexecuted live members back onto the
  heap (same ``(time, sequence)`` entries, ``done`` flag restored), so
  a later ``run()`` resumes in the identical order.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Optional

#: Flipped to True in the compiled copy by ``tools/build_fastloop.py``.
COMPILED = False

#: ``event.arg`` of an event scheduled without an argument: its callback
#: runs as ``callback()``, every other event's as ``callback(arg)``.
NO_ARG: Any = object()


def run_loop(sim: Any, until: Optional[float], max_events: Optional[int]) -> int:
    """Drain the simulator's heap; returns the number of events executed.

    The caller (:meth:`Simulator.run`) owns the re-entrancy guard, the
    ``_stopped`` reset and the final clock advance to the horizon; this
    function owns only the event-execution loop.
    """
    heap = sim._heap
    clock = sim.clock
    batch = sim._batch
    size_counts = sim._batch_size_counts
    no_arg = NO_ARG
    executed = 0
    singletons = 0
    try:
        while heap:
            if sim._stopped:
                break
            if max_events is not None and executed >= max_events:
                break
            entry = heap[0]
            event = entry[2]
            if event.cancelled:
                heappop(heap)
                sim._discard(event)
                continue
            time = entry[0]
            if until is not None and time > until:
                break
            heappop(heap)
            if not heap or heap[0][0] != time:
                # Singleton fast path: no other ready entry shares this
                # timestamp, so skip the batch machinery entirely.
                event.done = True
                callback = event.callback
                event.callback = None
                clock._now = time
                singletons += 1
                arg = event.arg
                if arg is no_arg:
                    callback()
                else:
                    event.arg = no_arg
                    callback(arg)
                sim._events_executed += 1
                executed += 1
                continue
            # Batch path: drain every live entry at `time` (up to the
            # max_events allowance), then execute the batch in one pass.
            event.done = True
            batch.append(event)
            allowance = -1 if max_events is None else max_events - executed
            while heap and heap[0][0] == time:
                if 0 <= allowance <= len(batch):
                    break
                member = heap[0][2]
                heappop(heap)
                if member.cancelled:
                    sim._discard(member)
                    continue
                member.done = True
                batch.append(member)
            size = len(batch)
            size_counts[size] = size_counts.get(size, 0) + 1
            clock._now = time
            index = 0
            try:
                while index < size:
                    member = batch[index]
                    index += 1
                    callback = member.callback
                    member.callback = None
                    arg = member.arg
                    member.arg = no_arg
                    if member.cancelled:
                        # Cancelled by an earlier member of this batch,
                        # after it had already left the heap: cancel()
                        # saw it off the heap with its callback still
                        # set and left the release to us.
                        continue
                    if arg is no_arg:
                        callback()
                    else:
                        callback(arg)
                    sim._events_executed += 1
                    executed += 1
                    if sim._stopped:
                        break
            finally:
                if index < size:
                    # stop() (or an exception) interrupted the batch:
                    # restore the unexecuted live members so a resumed
                    # run pops them in the identical order.  Members
                    # already cancelled are dropped, matching what the
                    # serial loop would do when popping them.
                    while index < size:
                        member = batch[index]
                        index += 1
                        if member.cancelled:
                            member.callback = None
                            member.arg = no_arg
                            continue
                        member.done = False
                        heappush(heap, (time, member.sequence, member))
                batch.clear()
    finally:
        sim._batch_singletons += singletons
    return executed
