"""Application agent.

The paper assumes "an application agent, locally available to the virtual
router in each server, which in real time informs the virtual router as
to if the application instance wishes to accept queries" (§II-C).  On the
testbed this is a VPP plugin reading Apache's scoreboard shared memory.

Here the agent is a small adapter object: it reads the application's
scoreboard (or any object exposing the same minimal interface) and
presents the metrics the connection-acceptance policies need —
busy-thread count and pool size — plus optional coarse-grained signals
(a synthetic "CPU load" derived from the busy count) for policies that
want them.  Reads are free, matching the shared-memory design of the
paper ("incurs no system calls or synchronization").
"""

from __future__ import annotations

from typing import Protocol


class ScoreboardView(Protocol):
    """Minimal scoreboard interface the agent reads."""

    @property
    def busy_count(self) -> int:
        """Number of busy worker threads."""

    @property
    def num_slots(self) -> int:
        """Total number of worker threads."""


class ApplicationAgent:
    """Real-time view of one application instance's load state.

    Parameters
    ----------
    scoreboard:
        Shared-memory scoreboard of the local application instance.
    cpu_cores:
        Number of CPU cores of the hosting VM; used to derive the
        coarse-grained CPU-load estimate.
    """

    def __init__(self, scoreboard: ScoreboardView, cpu_cores: int = 2) -> None:
        self._scoreboard = scoreboard
        self._cpu_cores = max(1, cpu_cores)

    # ------------------------------------------------------------------
    # fine-grained metrics (the paper's example: worker-thread states)
    # ------------------------------------------------------------------
    def busy_threads(self) -> int:
        """Number of worker threads currently serving a request."""
        return self._scoreboard.busy_count

    def total_threads(self) -> int:
        """Size of the worker pool."""
        return self._scoreboard.num_slots

    # ------------------------------------------------------------------
    # coarse-grained metrics (the paper's alternative: OS-level signals)
    # ------------------------------------------------------------------
    def estimated_cpu_load(self) -> float:
        """Rough CPU-load estimate: runnable workers per core.

        A value above 1.0 means the cores are oversubscribed and requests
        are being slowed down by processor sharing.
        """
        return self._scoreboard.busy_count / self._cpu_cores

    def __repr__(self) -> str:
        return (
            f"ApplicationAgent(busy={self._scoreboard.busy_count}/"
            f"{self._scoreboard.num_slots})"
        )


class StaticLoadView:
    """A fixed scoreboard view, handy for unit tests and analytic checks."""

    def __init__(self, busy: int, slots: int) -> None:
        self._busy = busy
        self._slots = slots

    @property
    def busy_count(self) -> int:
        """Configured busy-thread count."""
        return self._busy

    @property
    def num_slots(self) -> int:
        """Configured pool size."""
        return self._slots
