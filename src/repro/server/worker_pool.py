"""Worker-process pool (Apache ``mpm_prefork`` model).

The paper configures each Apache instance with a pool of 32 worker
processes: a worker handles exactly one connection at a time, from
``accept()`` until the connection closes, and a connection that cannot
get a worker waits in the listen backlog.

The :class:`WorkerPool` here reproduces exactly that bookkeeping: a fixed
number of slots, acquire/release semantics, and scoreboard updates so the
application agent can read the busy-thread count in real time.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import WorkerPoolError
from repro.server.scoreboard import _BUSY, _IDLE, Scoreboard


class WorkerPool:
    """Fixed pool of worker slots bound to a scoreboard.

    Parameters
    ----------
    scoreboard:
        The scoreboard to mirror slot states into; the number of workers
        equals the scoreboard's number of slots.  Its slot column is the
        pool's record of which workers are busy.
    """

    def __init__(self, scoreboard: Scoreboard) -> None:
        self._scoreboard = scoreboard
        self._free_slots: List[int] = list(range(scoreboard.num_slots))
        # Keep free slots sorted so acquisition order is deterministic.
        self._free_slots.reverse()

    @property
    def num_workers(self) -> int:
        """Total number of worker slots."""
        return self._scoreboard.num_slots

    @property
    def busy_workers(self) -> int:
        """Number of workers currently serving a connection."""
        return self._scoreboard.busy_count

    @property
    def idle_workers(self) -> int:
        """Number of workers available to accept a connection."""
        return self.num_workers - self.busy_workers

    def acquire(self) -> Optional[int]:
        """Reserve a worker; returns its slot index, or ``None`` if all busy."""
        if not self._free_slots:
            return None
        slot = self._free_slots.pop()
        self._scoreboard._set_state(slot, _BUSY)  # mark_busy without its frame
        return slot

    def release(self, slot: int) -> None:
        """Return a worker to the pool after its connection closed."""
        slots = self._scoreboard._slots
        if not (0 <= slot < len(slots) and slots[slot] == _BUSY):
            raise WorkerPoolError(
                f"cannot release worker slot {slot!r}: it is not busy"
            )
        self._free_slots.append(slot)
        self._scoreboard._set_state(slot, _IDLE)

    def __repr__(self) -> str:
        return (
            f"WorkerPool(workers={self.num_workers}, busy={self.busy_workers}, "
            f"idle={self.idle_workers})"
        )
