"""The row type of a workload trace, and the built-in request kinds.

A :class:`Request` is one query the traffic generator will issue: it has
an arrival time, a kind (which workload class it belongs to), a CPU
demand in seconds (the cost the serving application instance will pay)
and, for workloads with a user model, the id of the user issuing it.

Generators never build one: they hand their columns straight to
:class:`~repro.workload.trace.Trace`, which is the only representation a
replay reads.  ``Request`` is how a test or an example writes a trace by
hand, and what iterating a trace yields; the trace checks every row when
it is built.

Pinning the demand to the request (instead of drawing it at the server)
is what makes policy comparisons fair: when the same workload is replayed
under ``RR`` and under ``SR4``, every query costs exactly the same amount
of CPU in both runs.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

#: Request kinds used by the built-in workloads.
KIND_PHP = "php"
KIND_WIKI = "wiki"
KIND_STATIC = "static"
#: Kinds used by the hostile/heavy-tailed workloads: a one-shot
#: heavy-tailed request, and an aggregated keep-alive user session.
KIND_HEAVY = "heavy"
KIND_SESSION = "session"


class Request(NamedTuple):
    """One query of a workload: a row of a :class:`~repro.workload.trace.Trace`."""

    request_id: int
    arrival_time: float
    service_demand: float
    kind: str = KIND_PHP
    #: Identity of the (simulated) user issuing the query, or ``None``
    #: for workloads without a user model.  Carried so the keep-alive
    #: session layer can give per-user flow affinity without keeping
    #: per-user objects anywhere.
    user_id: Optional[int] = None
