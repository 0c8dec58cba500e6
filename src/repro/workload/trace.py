"""Trace: a workload as columns, one row per query, in arrival order.

Every generator hands its columns to :meth:`Trace.from_columns`, the
traffic generator replays them row by row, and the testbed looks each
query's CPU demand up in them by request id — one representation of a
query from generator to server, about 25 bytes per row.  A trace can
also be written by hand as :class:`~repro.workload.requests.Request`
rows (``Trace(rows)``), and iterating it yields such rows.

Building a trace checks every row at once: a negative arrival time, a
non-positive (or NaN) CPU demand, a negative request id and a duplicate
request id are each rejected with a :class:`~repro.errors.WorkloadError`.
Rows are then put in arrival order by a stable sort, so queries that
arrive together keep the order they were given in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.errors import WorkloadError
from repro.workload.requests import Request

#: ``user_ids`` entry of a row whose query has no user.
NO_USER = -1


@dataclass
class TraceSummary:
    """Aggregate statistics of a trace."""

    num_requests: int
    duration: float
    mean_rate: float
    mean_demand: float
    total_demand: float
    kinds: Dict[str, int]


class Trace:
    """A workload trace: read-only columns sorted by arrival time.

    ``request_ids`` (``int64``), ``arrival_times`` and
    ``service_demands`` (``float64``, seconds), ``kind_codes``
    (``uint8``, indexing the ``kinds`` name table) and ``user_ids``
    (``int64``, :data:`NO_USER` for none; ``None`` when no row has a
    user).
    """

    def __init__(self, requests: Iterable[Request] = (), name: str = "trace") -> None:
        rows = list(requests)
        kinds: Dict[str, int] = {}
        users = [row.user_id for row in rows]
        self._load(
            [row.request_id for row in rows],
            [row.arrival_time for row in rows],
            [row.service_demand for row in rows],
            [kinds.setdefault(row.kind, len(kinds)) for row in rows],
            tuple(kinds),
            None
            if all(user is None for user in users)
            else [NO_USER if user is None else user for user in users],
            name,
        )

    @classmethod
    def from_columns(
        cls,
        request_ids: Sequence[int],
        arrival_times: Sequence[float],
        service_demands: Sequence[float],
        kind_codes: Sequence[int],
        kinds: Tuple[str, ...],
        user_ids: Optional[Sequence[int]] = None,
        name: str = "trace",
    ) -> "Trace":
        """A trace of equal-length columns (arrays are taken, not copied)."""
        trace = cls.__new__(cls)
        trace._load(
            request_ids, arrival_times, service_demands, kind_codes, kinds, user_ids, name
        )
        return trace

    def _load(
        self, request_ids, arrival_times, service_demands, kind_codes, kinds, user_ids, name
    ) -> None:
        ids = np.asarray(request_ids, dtype=np.int64)
        arrivals = np.asarray(arrival_times, dtype=np.float64)
        demands = np.asarray(service_demands, dtype=np.float64)
        codes = np.asarray(kind_codes, dtype=np.uint8)
        users = None if user_ids is None else np.asarray(user_ids, dtype=np.int64)
        columns = [ids, arrivals, demands, codes] + ([] if users is None else [users])
        if any(column.shape != ids.shape for column in columns) or ids.ndim != 1:
            raise WorkloadError("trace columns must be one-dimensional and of one length")
        for column, bad, problem in (
            (arrivals, arrivals < 0, "negative arrival time"),
            (demands, ~(demands > 0), "non-positive service demand"),
        ):
            if bad.any():
                row = int(np.argmax(bad))
                raise WorkloadError(
                    f"request {int(ids[row])} has {problem} {float(column[row])!r}"
                )
        if ids.size:
            if ids.min() < 0:
                raise WorkloadError(f"request id {int(ids.min())} is negative")
            ordered = np.sort(ids)
            repeated = ordered[1:][ordered[1:] == ordered[:-1]]
            if repeated.size:
                raise WorkloadError(f"duplicate request id {int(repeated[0])!r}")
        if arrivals.size > 1 and (arrivals[1:] < arrivals[:-1]).any():
            order = np.argsort(arrivals, kind="stable")
            columns = [column[order] for column in columns]
        for column in columns:
            column.flags.writeable = False
        self.request_ids, self.arrival_times, self.service_demands, self.kind_codes = columns[:4]
        self.user_ids: Optional[np.ndarray] = None if users is None else columns[4]
        self.kinds: Tuple[str, ...] = tuple(kinds)
        self.name = name

    # ------------------------------------------------------------------
    # rows
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.request_ids.size)

    def _row(self, request_id, arrival, demand, code, user) -> Request:
        return Request(
            request_id, arrival, demand, self.kinds[code], None if user == NO_USER else user
        )

    def __iter__(self) -> Iterator[Request]:
        users = self.user_ids.tolist() if self.user_ids is not None else [NO_USER] * len(self)
        return map(
            self._row,
            self.request_ids.tolist(),
            self.arrival_times.tolist(),
            self.service_demands.tolist(),
            self.kind_codes.tolist(),
            users,
        )

    def __getitem__(self, index: int) -> Request:
        return self._row(
            int(self.request_ids[index]),
            float(self.arrival_times[index]),
            float(self.service_demands[index]),
            int(self.kind_codes[index]),
            NO_USER if self.user_ids is None else int(self.user_ids[index]),
        )

    @property
    def duration(self) -> float:
        """Time of the last arrival (seconds from trace start)."""
        return float(self.arrival_times[-1]) if len(self) else 0.0

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def summary(self) -> TraceSummary:
        """Aggregate statistics (rate, demand, per-kind counts)."""
        if not len(self):
            return TraceSummary(0, 0.0, 0.0, 0.0, 0.0, {})
        duration = max(self.duration, 1e-9)
        counts = np.bincount(self.kind_codes, minlength=len(self.kinds))
        return TraceSummary(
            num_requests=len(self),
            duration=duration,
            mean_rate=len(self) / duration,
            mean_demand=float(np.mean(self.service_demands)),
            total_demand=float(np.sum(self.service_demands)),
            kinds={kind: int(count) for kind, count in zip(self.kinds, counts) if count},
        )

    def __repr__(self) -> str:
        return f"Trace(name={self.name!r}, requests={len(self)})"
