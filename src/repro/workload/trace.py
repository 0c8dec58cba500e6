"""Trace container: an ordered collection of requests plus utilities.

Both workload generators produce a :class:`Trace`; the traffic generator
replays it.  Traces can be saved to and loaded from a simple JSON-lines
format so expensive generations (the 24-hour Wikipedia trace) can be
reused across experiments, and they support the transformations the
experiment harness needs: time-slicing, rate scaling (the paper replays
"50 % of the 24-hour trace") and time compression (used by the benchmark
suite to keep run times reasonable while preserving instantaneous load).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

import numpy as np

from repro.errors import WorkloadError
from repro.workload.requests import Request, RequestCatalog, sort_by_arrival


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
    """An ordered sequence of :class:`~repro.workload.requests.Request`."""

    def __init__(self, requests: Iterable[Request], name: str = "trace") -> None:
        self._requests: List[Request] = sort_by_arrival(requests)
        self.name = name

    # ------------------------------------------------------------------
    # basic container behaviour
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._requests)

    def __iter__(self) -> Iterator[Request]:
        return iter(self._requests)

    def __getitem__(self, index: int) -> Request:
        return self._requests[index]

    @property
    def requests(self) -> Sequence[Request]:
        """The requests, sorted by arrival time."""
        return tuple(self._requests)

    @property
    def duration(self) -> float:
        """Time of the last arrival (seconds from trace start)."""
        if not self._requests:
            return 0.0
        return self._requests[-1].arrival_time

    def catalog(self) -> RequestCatalog:
        """A request catalog covering this trace."""
        return RequestCatalog(self._requests)

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def summary(self) -> TraceSummary:
        """Aggregate statistics (rate, demand, per-kind counts)."""
        if not self._requests:
            return TraceSummary(0, 0.0, 0.0, 0.0, 0.0, {})
        duration = max(self.duration, 1e-9)
        demands = [request.service_demand for request in self._requests]
        kinds: Dict[str, int] = {}
        for request in self._requests:
            kinds[request.kind] = kinds.get(request.kind, 0) + 1
        return TraceSummary(
            num_requests=len(self._requests),
            duration=duration,
            mean_rate=len(self._requests) / duration,
            mean_demand=float(np.mean(demands)),
            total_demand=float(np.sum(demands)),
            kinds=kinds,
        )

    # ------------------------------------------------------------------
    # transformations (all return new traces)
    # ------------------------------------------------------------------
    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Write the trace as JSON lines (one request per line)."""
        path = Path(path)
        with path.open("w", encoding="utf-8") as handle:
            for request in self._requests:
                record = {
                    "request_id": request.request_id,
                    "arrival_time": request.arrival_time,
                    "service_demand": request.service_demand,
                    "kind": request.kind,
                    "url": request.url,
                    "response_size": request.response_size,
                }
                if request.user_id is not None:
                    record["user_id"] = request.user_id
                handle.write(json.dumps(record) + "\n")

    @classmethod
    def load(cls, path, name: Optional[str] = None) -> "Trace":
        """Read a trace previously written by :meth:`save`."""
        path = Path(path)
        requests: List[Request] = []
        with path.open("r", encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    requests.append(Request(**record))
                except (json.JSONDecodeError, TypeError) as exc:
                    raise WorkloadError(
                        f"invalid trace record at {path}:{line_number}"
                    ) from exc
        return cls(requests, name=name or path.stem)

    def __repr__(self) -> str:
        return f"Trace(name={self.name!r}, requests={len(self._requests)})"
