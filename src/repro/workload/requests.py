"""Request model shared by the workload generators and the servers.

A :class:`Request` is one query the traffic generator will issue: it has
an arrival time, a kind (which workload class it belongs to), a CPU
demand in seconds (the cost the serving application instance will pay),
and a response size.  Generators produce lists of requests; the
:class:`RequestCatalog` indexes them by id so the application servers can
look up the demand of the request they are serving — the simulated
equivalent of "the content of the request determines its cost".

Pinning the demand to the request (instead of drawing it at the server)
is what makes policy comparisons fair: when the same workload is replayed
under ``RR`` and under ``SR4``, every query costs exactly the same amount
of CPU in both runs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional

from repro.errors import WorkloadError

#: Request kinds used by the built-in workloads.
KIND_PHP = "php"
KIND_WIKI = "wiki"
KIND_STATIC = "static"
#: Kinds used by the hostile/heavy-tailed workloads: a one-shot
#: heavy-tailed request, and an aggregated keep-alive user session.
KIND_HEAVY = "heavy"
KIND_SESSION = "session"

_request_ids = itertools.count(1)


def next_request_id() -> int:
    """Globally unique request id (monotonically increasing).

    The built-in workload generators do **not** use this: they number
    their requests locally (``1..N``) so a trace is fully determined by
    its seed, which the ``jobs`` fan-out relies on.  The helper
    remains for hand-built requests that must not collide with each
    other — but ids it mints live in a different space from generated
    traces, so never mix the two in one catalog.
    """
    return next(_request_ids)


@dataclass
class Request:
    """One query of a workload."""

    request_id: int
    arrival_time: float
    service_demand: float
    kind: str = KIND_PHP
    url: str = "/"
    response_size: int = 8_000
    #: Identity of the (simulated) user issuing the query, or ``None``
    #: for workloads without a user model.  Carried so the keep-alive
    #: session layer can give per-user flow affinity without keeping
    #: per-user objects anywhere.
    user_id: Optional[int] = None

    def __post_init__(self) -> None:
        if self.arrival_time < 0:
            raise WorkloadError(
                f"request {self.request_id} has negative arrival time "
                f"{self.arrival_time!r}"
            )
        if self.service_demand <= 0:
            raise WorkloadError(
                f"request {self.request_id} has non-positive service demand "
                f"{self.service_demand!r}"
            )
        if self.response_size < 0:
            raise WorkloadError(
                f"request {self.request_id} has negative response size "
                f"{self.response_size!r}"
            )


class RequestCatalog:
    """Index of requests by id, shared between clients and servers.

    The catalog is how a server learns the CPU demand of the request it
    just received: the virtual router passes the request id up, and the
    application instance calls :meth:`demand_of`.
    """

    def __init__(self, requests: Optional[Iterable[Request]] = None) -> None:
        self._requests: Dict[int, Request] = {}
        if requests is not None:
            for request in requests:
                self.add(request)

    def add(self, request: Request) -> None:
        """Register a request; ids must be unique."""
        if request.request_id in self._requests:
            raise WorkloadError(f"duplicate request id {request.request_id!r}")
        self._requests[request.request_id] = request

    def get(self, request_id: int) -> Request:
        """The request with the given id."""
        try:
            return self._requests[request_id]
        except KeyError as exc:
            raise WorkloadError(f"unknown request id {request_id!r}") from exc

    def demand_of(self, request_id: int) -> float:
        """CPU demand (seconds) of a request — the server-side lookup."""
        return self.get(request_id).service_demand

    def __contains__(self, request_id: int) -> bool:
        return request_id in self._requests

    def __len__(self) -> int:
        return len(self._requests)

    def __iter__(self) -> Iterator[Request]:
        return iter(self._requests.values())


def sort_by_arrival(requests: Iterable[Request]) -> List[Request]:
    """Requests sorted by arrival time (stable for equal timestamps)."""
    return sorted(requests, key=lambda request: request.arrival_time)


def total_offered_demand(requests: Iterable[Request]) -> float:
    """Sum of CPU demands — used for load-factor sanity checks."""
    return sum(request.service_demand for request in requests)
