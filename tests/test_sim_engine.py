"""Unit tests for the discrete-event simulation engine."""

import gc
import math
import weakref

import pytest

from repro.errors import SchedulingError, SimulationError
from repro.sim.engine import PeriodicTask


def _cancelled(handle) -> bool:
    """Whether ``handle`` reports itself cancelled (its repr names its state)."""
    return repr(handle).endswith(", cancelled)")


class _Payload:
    """A weakly referenceable callable standing in for a callback or argument."""

    def __call__(self, *args):
        pass


class TestScheduling:
    def test_events_run_in_time_order(self, simulator):
        order = []
        simulator.schedule_at(2.0, lambda: order.append("b"))
        simulator.schedule_at(1.0, lambda: order.append("a"))
        simulator.schedule_at(3.0, lambda: order.append("c"))
        simulator.run()
        assert order == ["a", "b", "c"]

    def test_equal_times_run_in_scheduling_order(self, simulator):
        order = []
        for label in ("first", "second", "third"):
            simulator.schedule_at(1.0, lambda label=label: order.append(label))
        simulator.run()
        assert order == ["first", "second", "third"]

    def test_schedule_in_is_relative(self, simulator):
        times = []
        simulator.schedule_in(1.5, lambda: times.append(simulator.now))
        simulator.run()
        assert times == [1.5]

    def test_schedule_in_past_raises(self, simulator):
        simulator.schedule_at(5.0, lambda: None)
        simulator.run()
        with pytest.raises(SchedulingError):
            simulator.schedule_at(1.0, lambda: None)

    def test_negative_delay_raises(self, simulator):
        with pytest.raises(SchedulingError):
            simulator.schedule_in(-0.1, lambda: None)

    def test_clock_advances_to_event_time(self, simulator):
        simulator.schedule_at(7.0, lambda: None)
        final = simulator.run()
        assert final == 7.0
        assert simulator.now == 7.0

    def test_nested_scheduling_from_callback(self, simulator):
        seen = []

        def outer():
            seen.append(("outer", simulator.now))
            simulator.schedule_in(1.0, inner)

        def inner():
            seen.append(("inner", simulator.now))

        simulator.schedule_at(1.0, outer)
        simulator.run()
        assert seen == [("outer", 1.0), ("inner", 2.0)]


class TestNonFiniteTimes:
    """NaN (and infinities) must be rejected at scheduling time.

    Regression: ``NaN < now`` is false, so a NaN timestamp used to slip
    past the before-now guard and corrupt heap ordering for every event
    sifted past it.
    """

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_schedule_at_rejects_non_finite_times(self, simulator, bad):
        with pytest.raises(SchedulingError):
            simulator.schedule_at(bad, lambda: None)
        assert simulator.pending_events == 0

    def test_schedule_in_rejects_nan_delay(self, simulator):
        with pytest.raises(SchedulingError):
            simulator.schedule_in(math.nan, lambda: None)
        assert simulator.pending_events == 0

    def test_schedule_in_rejects_infinite_delay(self, simulator):
        with pytest.raises(SchedulingError):
            simulator.schedule_in(math.inf, lambda: None)

    def test_nan_never_corrupts_ordering_of_later_events(self, simulator):
        fired = []
        simulator.schedule_at(2.0, lambda: fired.append(2))
        with pytest.raises(SchedulingError):
            simulator.schedule_at(math.nan, lambda: fired.append("nan"))
        simulator.schedule_at(1.0, lambda: fired.append(1))
        simulator.run()
        assert fired == [1, 2]

    def test_large_finite_times_still_accepted(self, simulator):
        handle = simulator.schedule_at(1e300, lambda: None)
        assert handle.time == 1e300


class TestRunControl:
    def test_run_until_stops_before_later_events(self, simulator):
        fired = []
        simulator.schedule_at(1.0, lambda: fired.append(1))
        simulator.schedule_at(10.0, lambda: fired.append(10))
        final = simulator.run(until=5.0)
        assert fired == [1]
        assert final == 5.0
        # The remaining event still fires on a subsequent run.
        simulator.run()
        assert fired == [1, 10]

    def test_run_until_advances_clock_even_without_events(self, simulator):
        final = simulator.run(until=3.0)
        assert final == 3.0

    def test_max_events_limits_execution(self, simulator):
        fired = []
        for index in range(10):
            simulator.schedule_at(float(index + 1), lambda i=index: fired.append(i))
        simulator.run(max_events=4)
        assert len(fired) == 4

    def test_max_events_after_last_pre_horizon_event_reaches_horizon(self, simulator):
        """Regression: the ``max_events`` break used to skip the final
        clock advance even when every event at or before ``until`` had
        already run, violating ``run(until=T) == T``."""
        fired = []
        simulator.schedule_at(1.0, lambda: fired.append(1))
        simulator.schedule_at(2.0, lambda: fired.append(2))
        simulator.schedule_at(10.0, lambda: fired.append(10))
        final = simulator.run(until=5.0, max_events=2)
        assert fired == [1, 2]
        assert final == 5.0
        assert simulator.now == 5.0
        # The post-horizon event is still live and fires later.
        simulator.run()
        assert fired == [1, 2, 10]

    def test_max_events_with_pre_horizon_work_left_keeps_partial_time(self, simulator):
        fired = []
        for index in range(4):
            simulator.schedule_at(float(index + 1), lambda i=index: fired.append(i))
        final = simulator.run(until=5.0, max_events=2)
        # Two of the four pre-horizon events are still pending, so the
        # clock must not jump past them.
        assert fired == [0, 1]
        assert final == 2.0
        assert simulator.run(until=5.0) == 5.0
        assert fired == [0, 1, 2, 3]

    def test_stop_after_last_pre_horizon_event_reaches_horizon(self, simulator):
        simulator.schedule_at(1.0, simulator.stop)
        simulator.schedule_at(9.0, lambda: None)
        assert simulator.run(until=5.0) == 5.0

    def test_stop_halts_the_run(self, simulator):
        fired = []
        simulator.schedule_at(1.0, lambda: (fired.append(1), simulator.stop()))
        simulator.schedule_at(2.0, lambda: fired.append(2))
        simulator.run()
        assert fired == [1]

    def test_reentrant_run_raises(self, simulator):
        def reenter():
            simulator.run()

        simulator.schedule_at(1.0, reenter)
        with pytest.raises(SimulationError):
            simulator.run()

    def test_nan_horizon_is_rejected(self, simulator):
        # Every `time > nan` is false: the run used to ignore its horizon
        # and never return with a periodic task on the heap.
        task = PeriodicTask(simulator, interval=1.0, callback=lambda: None)
        task.start()
        with pytest.raises(SchedulingError, match="nan"):
            simulator.run(until=math.nan)
        assert simulator.now == 0.0
        assert simulator.events_executed == 0

    def test_negative_max_events_is_rejected(self, simulator):
        simulator.schedule_at(1.0, lambda: None)
        with pytest.raises(SimulationError, match="-1"):
            simulator.run(max_events=-1)
        assert simulator.events_executed == 0

    def test_infinite_horizon_runs_like_no_horizon(self, simulator):
        fired = []
        simulator.schedule_at(2.0, lambda: fired.append(simulator.now))
        assert simulator.run(until=math.inf) == 2.0
        # The clock stays finite, so the simulator can keep scheduling.
        simulator.schedule_in(1.0, lambda: fired.append(simulator.now))
        assert simulator.run(until=None) == 3.0
        assert fired == [2.0, 3.0]

    def test_events_executed_counter(self, simulator):
        for index in range(5):
            simulator.schedule_at(float(index), lambda: None)
        simulator.run()
        assert simulator.events_executed == 5


class TestSeries:
    """``schedule_series``: a whole non-decreasing series, one heap entry."""

    def test_items_fire_in_order_at_their_times(self, simulator):
        got = []
        simulator.schedule_series(
            [0.5, 1.0, 1.0, 3.0], float, lambda item: got.append((item, simulator.now)),
            "series", start=1.0,
        )  # fmt: skip
        assert simulator.pending_events == 1
        simulator.run()
        assert got == [(0.5, 1.5), (1.0, 2.0), (1.0, 2.0), (3.0, 4.0)]

    @pytest.mark.parametrize(
        "times, message",
        [
            ([1.0, math.nan], "non-finite"),
            ([1.0, math.inf], "non-finite"),
            ([-1.0], "before current time"),
            ([1.0, 2.0, 1.5], "goes back in time"),
        ],
    )
    def test_every_time_is_validated_up_front(self, simulator, times, message):
        fired = []
        with pytest.raises(SchedulingError, match=message):
            simulator.schedule_series(times, float, fired.append, "arrival")
        assert simulator.pending_events == 0
        simulator.run()
        assert fired == []

    def test_an_iterator_is_refused(self, simulator):
        # It would be exhausted by the up-front check and fire nothing.
        with pytest.raises(SchedulingError, match="not an iterator"):
            simulator.schedule_series(iter([1.0, 2.0]), float, lambda item: None)
        assert simulator.pending_events == 0

    def test_an_empty_series_schedules_nothing(self, simulator):
        simulator.schedule_series([], float, lambda item: None)
        assert simulator.pending_events == 0

    def test_the_series_reserves_one_sequence_number_per_item(self, simulator):
        # Events scheduled after the series at an item's exact time run
        # after that item, as if every item had been scheduled up front.
        order = []
        simulator.schedule_series([1.0, 2.0], float, order.append, "series")
        simulator.schedule_at(1.0, order.append, arg="after-1")
        simulator.schedule_at(2.0, order.append, arg="after-2")
        simulator.run()
        assert order == [1.0, "after-1", 2.0, "after-2"]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, simulator):
        fired = []
        handle = simulator.schedule_at(1.0, lambda: fired.append(1))
        handle.cancel()
        simulator.run()
        assert fired == []
        assert _cancelled(handle)

    def test_cancel_twice_is_harmless(self, simulator):
        handle = simulator.schedule_at(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert _cancelled(handle)

    @pytest.mark.parametrize("how", ["run", "batch"])
    def test_cancel_after_the_callback_ran_is_a_noop(self, simulator, how):
        # Regression: a late cancel() used to flip `cancelled` on an
        # event that had already fired (the client cancels its fired
        # SYN-RTO handle, the CPU its fired completion handle, on every
        # query), so handles and their repr reported a fired timer as
        # cancelled.
        fired = []
        handle = simulator.schedule_at(1.0, lambda: fired.append("timer"))
        if how == "batch":
            simulator.schedule_at(1.0, lambda: fired.append("sibling"))
        simulator.run()
        handle.cancel()
        assert fired[0] == "timer"
        assert not _cancelled(handle)
        assert simulator._cancelled_on_heap == 0

    def test_cancel_by_an_earlier_member_of_the_same_batch_still_skips(
        self, simulator
    ):
        # The victim shares the canceller's timestamp and has not run:
        # cancel() must take effect, and report it, while the
        # canceller's own late self-cancel stays a no-op.
        fired = []
        handles = {}

        def canceller():
            fired.append("canceller")
            handles["victim"].cancel()
            handles["canceller"].cancel()

        def victim():
            fired.append("victim")

        released = weakref.ref(victim)
        handles["canceller"] = simulator.schedule_at(1.0, canceller)
        handles["victim"] = simulator.schedule_at(1.0, victim)
        del victim
        simulator.run()
        gc.collect()
        assert fired == ["canceller"]
        assert _cancelled(handles["victim"])
        assert released() is None  # the handle no longer pins the callback
        assert not _cancelled(handles["canceller"])

    def test_peek_next_time_skips_cancelled(self, simulator):
        first = simulator.schedule_at(1.0, lambda: None)
        simulator.schedule_at(2.0, lambda: None)
        first.cancel()
        assert simulator.peek_next_time() == 2.0

    def test_peek_next_time_empty_heap(self, simulator):
        assert simulator.peek_next_time() is None

    def test_drain_discards_pending_events(self, simulator):
        simulator.schedule_at(1.0, lambda: None)
        simulator.schedule_at(2.0, lambda: None)
        assert simulator.drain() == 2
        assert simulator.peek_next_time() is None


class TestPeriodicTask:
    def test_periodic_task_ticks_at_interval(self, simulator):
        ticks = []
        task = PeriodicTask(simulator, interval=1.0, callback=lambda: ticks.append(simulator.now))
        task.start()
        simulator.schedule_at(3.5, task.stop)
        simulator.run()
        assert ticks == [1.0, 2.0, 3.0]

    def test_periodic_task_first_delay_override(self, simulator):
        ticks = []
        task = PeriodicTask(simulator, interval=2.0, callback=lambda: ticks.append(simulator.now))
        task.start(first_delay=0.0)
        simulator.schedule_at(4.5, task.stop)
        simulator.run()
        assert ticks == [0.0, 2.0, 4.0]

    def test_periodic_task_requires_positive_interval(self, simulator):
        task = PeriodicTask(simulator, interval=0.0, callback=lambda: None)
        with pytest.raises(SchedulingError):
            task.start()

    def test_stop_before_start_is_noop(self, simulator):
        task = PeriodicTask(simulator, interval=1.0, callback=lambda: None)
        task.stop()
        assert not task.active

    def test_double_start_does_not_double_tick(self, simulator):
        ticks = []
        task = PeriodicTask(simulator, interval=1.0, callback=lambda: ticks.append(simulator.now))
        task.start()
        task.start()
        simulator.schedule_at(2.5, task.stop)
        simulator.run()
        assert ticks == [1.0, 2.0]


class TestHeapCompaction:
    """Cancelled entries must not pin the heap once they dominate it."""

    def test_mass_cancellation_compacts_the_heap(self, simulator):
        fired = []
        handles = [
            simulator.schedule_at(float(index + 1), fired.append, arg=index)
            for index in range(1_000)
        ]
        assert simulator.pending_events == 1_000
        # Cancel 90% of the events; the compaction threshold (more than
        # half the heap dead) must have kicked in along the way.
        for handle in handles[100:]:
            handle.cancel()
        assert simulator.pending_events < 1_000
        # Only live events remain countable, and they still all fire.
        simulator.run()
        assert fired == list(range(100))

    def test_compaction_preserves_event_order(self, simulator):
        fired = []
        keep = []
        for index in range(500):
            handle = simulator.schedule_at(
                float(index % 7), lambda index=index: fired.append(index)
            )
            if index % 5 == 0:
                keep.append(index)
            else:
                handle.cancel()

        simulator.run()
        # Survivors fire in (time, scheduling order): sort by (time, index).
        assert fired == sorted(keep, key=lambda index: (index % 7, index))

    def test_small_heaps_are_left_alone(self, simulator):
        handles = [simulator.schedule_at(1.0, lambda: None) for _ in range(10)]
        for handle in handles:
            handle.cancel()
        # Below the compaction minimum the dead entries stay until popped.
        assert simulator.pending_events == 10
        simulator.run()
        assert simulator.pending_events == 0

    def test_cancel_after_firing_does_not_corrupt_accounting(self, simulator):
        handle = simulator.schedule_at(1.0, lambda: None)
        simulator.run()
        handle.cancel()  # late cancel of an already-executed event
        assert simulator._cancelled_on_heap == 0
        # The simulator still schedules and runs normally afterwards.
        fired = []
        simulator.schedule_at(2.0, lambda: fired.append(True))
        simulator.run()
        assert fired == [True]

    def test_cancelling_twice_counts_once(self, simulator):
        handles = [simulator.schedule_at(1.0, lambda: None) for _ in range(5)]
        for handle in handles:
            handle.cancel()
            handle.cancel()
        assert simulator._cancelled_on_heap == 5

    def test_a_bounded_run_discards_cancelled_through_discard_bookkeeping(
        self, simulator
    ):
        """Regression: running over cancelled entries one event at a time
        must keep the cancelled-on-heap counter exact, so a later
        ``cancel()`` + ``_maybe_compact_heap()`` pairing neither compacts
        too early nor leaves the counter stale (or negative)."""
        fired = []
        cancelled = [simulator.schedule_at(1.0, lambda: None) for _ in range(3)]
        live = simulator.schedule_at(2.0, lambda: fired.append("live"))
        for handle in cancelled:
            handle.cancel()
        assert simulator._cancelled_on_heap == 3
        # The one-event run skips all three cancelled entries, executes
        # the live one, and the counter reflects every discard.
        simulator.run(max_events=1)
        assert simulator.events_executed == 1
        assert fired == ["live"]
        assert simulator._cancelled_on_heap == 0
        assert simulator.pending_events == 0
        assert not _cancelled(live)
        # A fresh cancel/run cycle keeps the counter consistent: it can
        # never go negative, which would disable compaction forever.
        again = simulator.schedule_at(3.0, lambda: None)
        again.cancel()
        assert simulator._cancelled_on_heap == 1
        simulator.run(max_events=1)  # only the cancelled event is left
        assert simulator.events_executed == 1
        assert simulator._cancelled_on_heap == 0
        simulator._maybe_compact_heap()
        assert simulator._cancelled_on_heap == 0
        assert simulator.pending_events == 0

    def test_bounded_run_then_mass_cancel_still_triggers_compaction(self, simulator):
        """cancel()/run(max_events=1)/_maybe_compact_heap() interplay at scale."""
        fired = []
        handles = [
            simulator.schedule_at(float(index + 1), fired.append, arg=index)
            for index in range(200)
        ]
        # Run one event past a cancelled head entry first.
        handles[0].cancel()
        handles_alive = handles[1:]
        simulator.run(max_events=1)  # discards #0, executes #1
        assert fired == [1]
        # Cancel enough of the rest to cross the compaction threshold.
        for handle in handles_alive[1:180]:
            handle.cancel()
        # Compaction kicked in: the heap holds fewer entries than were
        # scheduled, and the counter exactly matches the cancelled
        # entries still on the heap (the invariant compaction relies on):
        # everything else on the heap is a live, not yet executed event.
        assert simulator.pending_events < 199
        live = sum(1 for handle in handles_alive[1:] if not _cancelled(handle))
        assert simulator._cancelled_on_heap == simulator.pending_events - live
        simulator.run()
        assert fired == [1] + list(range(181, 200))


    def test_compaction_from_inside_a_running_callback(self, simulator):
        """Regression: a callback that cancels enough events to trigger
        compaction mid-run must not strand the run loop on a stale heap.

        Compaction used to rebind ``self._heap`` while ``run()`` held a
        local alias, so events scheduled after the compaction never
        fired, the cancelled counter went negative, and already-executed
        entries were popped again on the next run."""
        fired = []
        handles = []

        def cancel_most_then_schedule():
            for handle in handles[10:]:
                handle.cancel()  # 190 of 200: crosses the >half threshold
            simulator.schedule_at(500.0, lambda: fired.append("late"))

        simulator.schedule_at(0.5, cancel_most_then_schedule)
        for index in range(200):
            handles.append(
                simulator.schedule_at(
                    float(index + 1), lambda i=index: fired.append(i)
                )
            )
        simulator.run()
        # The 10 surviving early events and the post-compaction event
        # all fired, in order.
        assert fired == list(range(10)) + ["late"]
        assert simulator.pending_events == 0
        assert simulator._cancelled_on_heap == 0
        # The simulator remains healthy afterwards (nothing stale left
        # to pop, no dead entries with cleared callbacks).
        simulator.schedule_at(501.0, lambda: fired.append("after"))
        simulator.run()
        assert fired[-1] == "after"


class TestEventArgument:
    """``schedule_*(…, arg)`` fires ``callback(arg)``; without it, ``callback()``."""

    def test_argument_is_passed_on_every_dispatch_path(self, simulator):
        got = []
        simulator.schedule_at(1.0, got.append, "one", "singleton")
        simulator.schedule_at(2.0, got.append, "two", "batch-a")
        simulator.schedule_in(2.0, got.append, arg="batch-b")
        simulator.schedule_at(3.0, got.append, arg="resumed")
        simulator.run(until=2.5)
        simulator.run()
        assert got == ["singleton", "batch-a", "batch-b", "resumed"]

    def test_none_is_an_ordinary_argument(self, simulator):
        got = []
        simulator.schedule_at(1.0, got.append, arg=None)
        simulator.run()
        assert got == [None]

    def test_argument_is_released_with_the_callback(self, simulator):
        payload = _Payload()
        released = weakref.ref(payload)
        handles = [
            simulator.schedule_at(time, lambda item: None, arg=payload)
            for time in (1.0, 2.0, 3.0)
        ]
        del payload
        handles[1].cancel()
        simulator.run(until=1.5)
        simulator.drain()
        gc.collect()
        # Ran, cancelled and drained: none of the kept handles pins it.
        assert released() is None
        assert [repr(handle).split()[-1] for handle in handles] == [
            "done)", "cancelled)", "done)"
        ]


class TestCallbackRelease:
    """Events must drop their callbacks once off the heap, so handles
    kept by components cannot pin closures for a whole replay."""

    @staticmethod
    def _scheduled(simulator):
        """A kept handle, and a weak reference to its (otherwise unowned) callback."""
        callback = _Payload()
        return simulator.schedule_at(1.0, callback), weakref.ref(callback)

    @staticmethod
    def _released(reference) -> bool:
        gc.collect()
        return reference() is None

    def test_executed_event_releases_callback(self, simulator):
        handle, callback = self._scheduled(simulator)
        simulator.run()
        assert self._released(callback)
        assert "done" in repr(handle)

    def test_cancelled_event_releases_callback_immediately(self, simulator):
        handle, callback = self._scheduled(simulator)
        handle.cancel()
        assert self._released(callback)
        assert simulator.pending_events == 1  # still on the heap, dead

    def test_drained_event_releases_callback(self, simulator):
        handle, callback = self._scheduled(simulator)
        assert simulator.drain() == 1
        assert self._released(callback)
        assert "done" in repr(handle)


class TestBatchedDispatch:
    """Events sharing a timestamp: the observable contract (scheduling
    order, cancellation, max_events, stop, step, exceptions) of the one
    pop-and-dispatch loop.  The class and method names predate the fold
    of the batched loop and are kept so the test ids stay stable."""

    def test_same_timestamp_events_run_in_scheduling_order(self, simulator):
        order = []
        for index in range(8):
            simulator.schedule_at(2.0, lambda i=index: order.append(i))
        simulator.schedule_at(1.0, lambda: order.append("early"))
        simulator.run()
        assert order == ["early"] + list(range(8))
        assert simulator.batch_stats.batches == simulator.events_executed == 9

    def test_events_scheduled_during_a_batch_run_after_it(self, simulator):
        order = []

        def spawn():
            order.append("spawn")
            # Same timestamp as the running event: the new event has a
            # higher sequence number, so it runs after every sibling
            # that was already scheduled at this time.
            simulator.schedule_at(1.0, lambda: order.append("spawned"))

        simulator.schedule_at(1.0, spawn)
        simulator.schedule_at(1.0, lambda: order.append("sibling"))
        simulator.run()
        assert order == ["spawn", "sibling", "spawned"]

    def test_in_batch_cancellation_is_honoured(self, simulator):
        fired = []
        handles = {}

        def cancel_later():
            fired.append("canceller")
            handles["victim"].cancel()

        simulator.schedule_at(1.0, cancel_later)
        handles["victim"] = simulator.schedule_at(
            1.0, lambda: fired.append("victim")
        )
        simulator.schedule_at(1.0, lambda: fired.append("survivor"))
        simulator.run()
        assert fired == ["canceller", "survivor"]
        assert simulator.pending_events == 0

    def test_max_events_can_split_a_batch(self, simulator):
        fired = []
        for index in range(6):
            simulator.schedule_at(1.0, lambda i=index: fired.append(i))
        simulator.run(max_events=4)
        assert fired == [0, 1, 2, 3]
        assert simulator.pending_events == 2
        # The rest of the timestamp runs on resume, still in order.
        simulator.run()
        assert fired == list(range(6))

    def test_stop_mid_batch_preserves_the_rest(self, simulator):
        fired = []
        simulator.schedule_at(1.0, lambda: fired.append("first"))
        simulator.schedule_at(1.0, simulator.stop)
        simulator.schedule_at(1.0, lambda: fired.append("after-stop"))
        simulator.run()
        assert fired == ["first"]
        assert simulator.pending_events == 1
        simulator.run()
        assert fired == ["first", "after-stop"]

    def test_a_bounded_run_stops_inside_a_timestamp(self, simulator):
        fired = []
        for index in range(3):
            simulator.schedule_at(1.0, lambda i=index: fired.append(i))
        simulator.run(max_events=1)
        assert fired == [0]
        assert simulator.pending_events == 2
        simulator.run(max_events=1)
        simulator.run(max_events=1)
        assert simulator.pending_events == 0
        assert fired == [0, 1, 2]

    def test_exception_mid_batch_keeps_unexecuted_events(self, simulator):
        fired = []
        simulator.schedule_at(1.0, lambda: fired.append("ok"))

        def boom():
            raise RuntimeError("mid-timestamp failure")

        simulator.schedule_at(1.0, boom)
        simulator.schedule_at(1.0, lambda: fired.append("later"))
        with pytest.raises(RuntimeError):
            simulator.run()
        assert fired == ["ok"]
        assert simulator.events_executed == 1  # the raiser is not counted
        # The unexecuted event survived the abort and runs on resume.
        simulator.run()
        assert fired == ["ok", "later"]
