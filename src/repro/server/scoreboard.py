"""Apache-style scoreboard.

Apache httpd keeps a *scoreboard* in shared memory: one slot per worker,
recording whether that worker is idle or busy (plus finer-grained states
we do not need here).  The paper's server agent reads this shared memory
directly — "done through shared memory, this incurs no system calls or
synchronization" — to learn how many worker threads are busy.

In the simulation the scoreboard is a plain in-process object updated by
the worker pool and read by the application agent (and by the telemetry
probe's busy-fraction gauge).  It keeps no history: Figure 4's load
curves come from ``ServerLoadSampler``, which samples the busy count.

Mirroring the real thing, the slot column is a flat ``array('B')`` of
0/1 flags rather than a list of enum members: every request start and
completion toggles a slot, and an unboxed byte store beats a list slot
holding an enum reference both in time and in memory (one byte per
worker instead of one pointer).
"""

from __future__ import annotations

from array import array

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
        Simulation clock (kept for the constructor's signature; the
        scoreboard holds no time-based state).
    num_slots:
        Number of worker slots (the server's ``MaxRequestWorkers``).
    """

    def __init__(self, clock: SimulationClock, num_slots: int) -> None:
        if num_slots <= 0:
            raise ServerError(f"scoreboard needs at least one slot, got {num_slots!r}")
        self._slots = array("B", bytes(num_slots))
        #: Number of busy worker slots right now: a plain attribute, so
        #: the acceptance policy's read per offer is not a call.
        self.busy_count = 0

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
        slots[slot] = state
        if state == _BUSY:
            self.busy_count += 1
        else:
            self.busy_count -= 1

    # ------------------------------------------------------------------
    # reads (what the application agent exposes to the virtual router)
    # ------------------------------------------------------------------
    @property
    def num_slots(self) -> int:
        """Total number of worker slots."""
        return len(self._slots)

    def __repr__(self) -> str:
        return f"Scoreboard(slots={self.num_slots}, busy={self.busy_count})"
