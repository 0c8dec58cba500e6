"""TCP listen backlog with ``tcp_abort_on_overflow`` semantics.

The paper configures each Apache server with a TCP backlog of 128 and
enables the Linux ``tcp_abort_on_overflow`` sysctl, so that a connection
arriving when the accept queue is full is answered with a TCP RST rather
than silently dropped.  This keeps SYN-retransmission timeouts out of the
response-time measurements and is also how the saturation rate λ₀ is
defined ("the smallest value of λ for which some TCP connections were
dropped").

:class:`ListenBacklog` models the accept queue: connections enter when
the handshake is answered and leave when a worker accepts them.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.errors import BacklogOverflowError, ServerError


class ListenBacklog:
    """Bounded FIFO accept queue for one listening socket.

    Items are opaque connection identifiers (the server keeps the full
    connection state elsewhere); this class only owns the admission and
    ordering decisions.
    """

    def __init__(self, capacity: int, abort_on_overflow: bool = True) -> None:
        if capacity <= 0:
            raise ServerError(f"backlog capacity must be positive, got {capacity!r}")
        self.capacity = capacity
        self.abort_on_overflow = abort_on_overflow
        self._queue: Deque[int] = deque()
        self._members: set = set()
        self.total_rejected = 0

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Number of connections currently waiting to be accepted."""
        return len(self._queue)

    def try_admit(self, connection_id: int) -> bool:
        """Admit a connection if there is room.

        Returns ``True`` on success.  On overflow, increments the reject
        counter and either returns ``False`` (``abort_on_overflow``,
        meaning the caller should send a RST) or raises
        :class:`~repro.errors.BacklogOverflowError` (strict mode, used by
        tests that want overflow to be loud).
        """
        if connection_id in self._members:
            raise ServerError(
                f"connection {connection_id!r} is already in the backlog"
            )
        if len(self._queue) >= self.capacity:
            self.total_rejected += 1
            if self.abort_on_overflow:
                return False
            raise BacklogOverflowError(
                f"listen backlog overflow (capacity {self.capacity})"
            )
        self._queue.append(connection_id)
        self._members.add(connection_id)
        return True

    # ------------------------------------------------------------------
    # acceptance by workers
    # ------------------------------------------------------------------
    def pop_next(self) -> Optional[int]:
        """Remove and return the oldest waiting connection (or ``None``)."""
        if not self._queue:
            return None
        connection_id = self._queue.popleft()
        self._members.discard(connection_id)
        return connection_id

    def __contains__(self, connection_id: int) -> bool:
        return connection_id in self._members

    def __len__(self) -> int:
        return len(self._queue)

    def __repr__(self) -> str:
        return (
            f"ListenBacklog(depth={self.depth}, capacity={self.capacity}, "
            f"rejected={self.total_rejected})"
        )
