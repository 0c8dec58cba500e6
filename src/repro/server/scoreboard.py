"""Apache-style scoreboard.

Apache httpd keeps a *scoreboard* in shared memory: one slot per worker,
recording whether that worker is idle or busy (plus finer-grained states
we do not need here).  The paper's server agent reads this shared memory
directly — "done through shared memory, this incurs no system calls or
synchronization" — to learn how many worker threads are busy.

In the simulation the scoreboard is a plain in-process object updated by
the worker pool and read by the application agent.  It also keeps simple
aggregate statistics (peak busy workers, busy-worker time integral) that
the metrics pipeline uses for Figure 4.

Mirroring the real thing, the slot column is a flat ``array('B')`` of
0/1 flags rather than a list of enum members: every request start and
completion toggles a slot, and an unboxed byte store beats a list slot
holding an enum reference both in time and in memory (one byte per
worker instead of one pointer).
"""

from __future__ import annotations

from array import array
from typing import Dict

from repro.errors import ServerError
from repro.sim.clock import SimulationClock


#: Slot-column encoding of a worker's two states.
_IDLE = 0
_BUSY = 1


class Scoreboard:
    """Shared-memory view of worker-thread states for one server.

    Parameters
    ----------
    clock:
        Simulation clock, used to maintain the busy-time integral.
    num_slots:
        Number of worker slots (the server's ``MaxRequestWorkers``).
    """

    def __init__(self, clock: SimulationClock, num_slots: int) -> None:
        if num_slots <= 0:
            raise ServerError(f"scoreboard needs at least one slot, got {num_slots!r}")
        self._clock = clock
        self._slots = array("B", bytes(num_slots))
        #: Number of busy worker slots right now: a plain attribute, so
        #: the acceptance policy's read per offer is not a call.
        self.busy_count = 0
        self._peak_busy = 0
        self._busy_time_integral = 0.0
        self._last_change = clock.now

    # ------------------------------------------------------------------
    # slot updates (called by the worker pool)
    # ------------------------------------------------------------------
    def mark_busy(self, slot: int) -> None:
        """Mark worker ``slot`` busy."""
        self._set_state(slot, _BUSY)

    def mark_idle(self, slot: int) -> None:
        """Mark worker ``slot`` idle."""
        self._set_state(slot, _IDLE)

    def _set_state(self, slot: int, state: int) -> None:
        slots = self._slots
        if not 0 <= slot < len(slots):
            raise ServerError(
                f"scoreboard slot {slot!r} out of range (0..{len(slots) - 1})"
            )
        if slots[slot] == state:
            return
        # _accumulate(), inlined: this runs twice per request.
        now = self._clock._now
        elapsed = now - self._last_change
        if elapsed > 0:
            self._busy_time_integral += elapsed * self.busy_count
        self._last_change = now
        slots[slot] = state
        if state == _BUSY:
            self.busy_count += 1
            if self.busy_count > self._peak_busy:
                self._peak_busy = self.busy_count
        else:
            self.busy_count -= 1

    def _accumulate(self) -> None:
        now = self._clock._now
        elapsed = now - self._last_change
        if elapsed > 0:
            self._busy_time_integral += elapsed * self.busy_count
        self._last_change = now

    # ------------------------------------------------------------------
    # reads (what the application agent exposes to the virtual router)
    # ------------------------------------------------------------------
    @property
    def num_slots(self) -> int:
        """Total number of worker slots."""
        return len(self._slots)

    @property
    def idle_count(self) -> int:
        """Number of idle worker slots right now."""
        return len(self._slots) - self.busy_count

    @property
    def peak_busy(self) -> int:
        """Highest number of simultaneously busy workers observed."""
        return self._peak_busy

    def snapshot(self) -> Dict[str, int]:
        """Flat numeric counters (the uniform telemetry-sampler API).

        The same ``name -> number`` shape as ``LinkStats.snapshot`` and
        ``LoadBalancerStats.snapshot``; the telemetry probe reads the
        fleet's busy fraction from these entries every sampling tick.
        """
        return {
            "slots": self.num_slots,
            "busy": self.busy_count,
            "idle": self.idle_count,
            "peak_busy": self.peak_busy,
        }

    def mean_busy(self) -> float:
        """Time-averaged number of busy workers since time 0."""
        self._accumulate()
        horizon = self._clock.now
        if horizon <= 0:
            return 0.0
        return self._busy_time_integral / horizon

    def __repr__(self) -> str:
        return (
            f"Scoreboard(slots={self.num_slots}, busy={self.busy_count}, "
            f"peak={self.peak_busy})"
        )
