"""Unit tests for the scoreboard, worker pool and listen backlog."""

import pytest

from repro.errors import BacklogOverflowError, ServerError, WorkerPoolError
from repro.server.backlog import ListenBacklog
from repro.server.scoreboard import Scoreboard
from repro.server.worker_pool import WorkerPool
from repro.sim.clock import SimulationClock


@pytest.fixture
def clock():
    return SimulationClock()


class TestScoreboard:
    def test_starts_all_idle(self, clock):
        board = Scoreboard(clock, 4)
        assert board.busy_count == 0
        assert board.num_slots == 4

    def test_mark_busy_and_idle(self, clock):
        board = Scoreboard(clock, 4)
        board.mark_busy(2)
        assert board.busy_count == 1
        board.mark_idle(2)
        assert board.busy_count == 0

    def test_double_mark_is_idempotent(self, clock):
        board = Scoreboard(clock, 4)
        board.mark_busy(1)
        board.mark_busy(1)
        assert board.busy_count == 1

    def test_busy_count_follows_the_marks(self, clock):
        board = Scoreboard(clock, 4)
        for slot in range(3):
            board.mark_busy(slot)
        board.mark_idle(0)
        assert board.busy_count == 2

    def test_out_of_range_slot_rejected(self, clock):
        board = Scoreboard(clock, 4)
        with pytest.raises(ServerError):
            board.mark_busy(4)

    def test_zero_slots_rejected(self, clock):
        with pytest.raises(ServerError):
            Scoreboard(clock, 0)

    def test_marking_an_idle_slot_idle_is_a_no_op(self, clock):
        board = Scoreboard(clock, 4)
        board.mark_idle(0)
        assert board.busy_count == 0

    def test_out_of_range_idle_mark_rejected(self, clock):
        board = Scoreboard(clock, 4)
        with pytest.raises(ServerError):
            board.mark_idle(-1)


class TestWorkerPool:
    def test_acquire_until_exhausted(self, clock):
        pool = WorkerPool(Scoreboard(clock, 3))
        slots = [pool.acquire() for _ in range(3)]
        assert sorted(slots) == [0, 1, 2]
        assert pool.acquire() is None
        assert pool.busy_workers == 3
        assert pool.idle_workers == 0

    def test_release_returns_worker(self, clock):
        pool = WorkerPool(Scoreboard(clock, 2))
        slot = pool.acquire()
        pool.release(slot)
        assert pool.idle_workers == 2
        assert pool.busy_workers == 0

    def test_release_unacquired_worker_rejected(self, clock):
        pool = WorkerPool(Scoreboard(clock, 2))
        with pytest.raises(WorkerPoolError):
            pool.release(0)

    def test_scoreboard_mirrors_pool_state(self, clock):
        board = Scoreboard(clock, 2)
        pool = WorkerPool(board)
        slot = pool.acquire()
        assert board.busy_count == 1
        pool.release(slot)
        assert board.busy_count == 0

    def test_a_released_slot_is_acquired_next(self, clock):
        pool = WorkerPool(Scoreboard(clock, 3))
        assert [pool.acquire(), pool.acquire()] == [0, 1]
        pool.release(0)
        assert pool.acquire() == 0

class TestListenBacklog:
    def test_admission_until_full(self):
        backlog = ListenBacklog(capacity=2)
        assert backlog.try_admit(1) is True
        assert backlog.try_admit(2) is True
        assert len(backlog) == backlog.capacity
        assert backlog.try_admit(3) is False
        assert backlog.total_rejected == 1

    def test_strict_mode_raises_on_overflow(self):
        backlog = ListenBacklog(capacity=1, abort_on_overflow=False)
        backlog.try_admit(1)
        with pytest.raises(BacklogOverflowError):
            backlog.try_admit(2)

    def test_fifo_order(self):
        backlog = ListenBacklog(capacity=4)
        for connection_id in (10, 20, 30):
            backlog.try_admit(connection_id)
        assert backlog.pop_next() == 10
        assert backlog.pop_next() == 20
        assert backlog.pop_next() == 30

    def test_pop_empty_returns_none(self):
        backlog = ListenBacklog(capacity=2)
        assert backlog.pop_next() is None

    def test_duplicate_admission_rejected(self):
        backlog = ListenBacklog(capacity=4)
        backlog.try_admit(1)
        with pytest.raises(ServerError):
            backlog.try_admit(1)

    def test_pop_frees_capacity(self):
        backlog = ListenBacklog(capacity=1)
        backlog.try_admit(1)
        backlog.pop_next()
        assert backlog.try_admit(2) is True

    def test_zero_capacity_rejected(self):
        with pytest.raises(ServerError):
            ListenBacklog(capacity=0)

    def test_contains_and_len(self):
        backlog = ListenBacklog(capacity=4)
        backlog.try_admit(7)
        assert 7 in backlog
        assert len(backlog) == 1
