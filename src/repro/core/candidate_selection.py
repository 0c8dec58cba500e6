"""Server (candidate) selection schemes for the load balancer.

When a new flow's first packet reaches the load balancer, a *selection
scheme* chooses the ordered list of candidate servers that will be
written into the Segment Routing header.  The paper (§II-B) discusses the
two knobs: how many candidates to include, and how to pick them —
random selection or consistent hashing — and settles on **two servers
chosen at random** for the evaluation, citing Mitzenmacher's
power-of-two-choices result that more than two choices brings rapidly
diminishing returns.

This module provides:

* :class:`RandomCandidateSelector` — d distinct servers uniformly at
  random (the paper's choice, with d = 2), drawn as numpy's
  ``Generator.choice(n, d, replace=False)`` would draw them;
* :class:`RoundRobinCandidateSelector` — deterministic rotation, useful
  as a low-variance baseline in ablations;
* :class:`ConsistentHashCandidateSelector` — per-flow-stable candidates
  derived from a Maglev table, so a flow always sees the same candidate
  chain;
* :class:`SingleRandomSelector` — one random server, which is how the
  paper's ``RR`` baseline (no Service Hunting) is expressed in this
  library.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, List, Optional, Sequence, Union

import numpy as np

from repro.errors import SelectionError
from repro.net.addressing import IPv6Address
from repro.net.packet import FlowKey
from repro.sim.random_streams import BoundedDraws

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.consistent_hash import MaglevTable

#: A stream's shared source (``RandomStreams.draws``), or a generator that
#: gets a private one (and must then feed nothing else).
DrawSource = Union[BoundedDraws, "np.random.Generator"]


class CandidateSelector(abc.ABC):
    """Chooses the ordered candidate list for a new flow."""

    #: Short name used in experiment manifests and figure legends.
    name: str = "selector"

    #: Number of candidates this selector emits per flow.
    num_candidates: int = 2

    #: Whether the candidate list is a pure function of the flow key and
    #: server pool.  Flow-stable selectors let any load-balancer instance
    #: re-derive a flow's candidate chain after a steering-state loss
    #: (the property ECMP fleets rely on, paper §II-B).
    flow_stable: bool = False

    @abc.abstractmethod
    def select(
        self, flow_key: FlowKey, servers: Sequence[IPv6Address]
    ) -> List[IPv6Address]:
        """Return the ordered candidate servers for ``flow_key``.

        ``servers`` is the pool of servers hosting the requested VIP.
        The returned list is written into the SR header in traversal
        order: the first element is offered the connection first and the
        last element must accept.
        """

    def prepare(self, servers: Sequence[IPv6Address]) -> None:
        """Precompute pool-derived state for the given server set.

        Called by the load balancer whenever a VIP pool is registered or
        its membership changes, so selectors that derive state from the
        pool (the Maglev table) can build it at configuration time
        instead of on the first packet of the next flow.  The default
        keeps nothing and does nothing.
        """

    def _validate_pool(self, servers: Sequence[IPv6Address]) -> None:
        if not servers:
            raise SelectionError("cannot select candidates from an empty server pool")
        if self.num_candidates > len(servers):
            raise SelectionError(
                f"cannot select {self.num_candidates} distinct candidates from "
                f"{len(servers)} servers"
            )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(candidates={self.num_candidates})"


class RandomCandidateSelector(CandidateSelector):
    """``d`` distinct servers chosen uniformly at random (paper default, d=2)."""

    def __init__(self, rng: DrawSource, num_candidates: int = 2) -> None:
        if num_candidates <= 0:
            raise SelectionError(
                f"number of candidates must be positive, got {num_candidates!r}"
            )
        if not isinstance(rng, BoundedDraws):
            rng = BoundedDraws(rng.bit_generator)
        self._choice = rng.choice
        self.num_candidates = num_candidates
        self.name = f"random-{num_candidates}"

    def select(
        self, flow_key: FlowKey, servers: Sequence[IPv6Address]
    ) -> List[IPv6Address]:
        count = len(servers)
        if self.num_candidates > count:
            self._validate_pool(servers)
        return list(map(servers.__getitem__, self._choice(count, self.num_candidates)))


class SingleRandomSelector(RandomCandidateSelector):
    """One random server: the paper's ``RR`` baseline (no Service Hunting).

    With a single segment the Service Hunting processor is forced to
    accept, so the behaviour is exactly "queries are randomly assigned to
    one server".
    """

    def __init__(self, rng: DrawSource) -> None:
        super().__init__(rng, num_candidates=1)
        self.name = "RR"


class RoundRobinCandidateSelector(CandidateSelector):
    """Deterministic rotation over the server pool.

    The first candidate cycles through the pool; the remaining
    candidates are the following servers in pool order.  Useful as a
    zero-variance control in ablation experiments.
    """

    def __init__(self, num_candidates: int = 2) -> None:
        if num_candidates <= 0:
            raise SelectionError(
                f"number of candidates must be positive, got {num_candidates!r}"
            )
        self.num_candidates = num_candidates
        self.name = f"round-robin-{num_candidates}"
        self._next = 0

    def select(
        self, flow_key: FlowKey, servers: Sequence[IPv6Address]
    ) -> List[IPv6Address]:
        self._validate_pool(servers)
        start = self._next % len(servers)
        self._next += 1
        return [
            servers[(start + offset) % len(servers)]
            for offset in range(self.num_candidates)
        ]


class ConsistentHashCandidateSelector(CandidateSelector):
    """Per-flow-stable candidates from a Maglev consistent-hashing table.

    Every flow maps to the same candidate chain for a given server set,
    which lets a fleet of load-balancer instances reach identical
    steering decisions without sharing state (the Maglev/Ananta
    motivation discussed in the paper's related work).
    """

    flow_stable = True

    def __init__(
        self,
        num_candidates: int = 2,
        table_size: int = 65_537,
    ) -> None:
        # Only this selector uses the Maglev module: it loads with the
        # first consistent-hash selector, not with the load balancer.
        from repro.core.consistent_hash import MaglevTable, flow_hash_key

        if num_candidates <= 0:
            raise SelectionError(
                f"number of candidates must be positive, got {num_candidates!r}"
            )
        self._maglev = MaglevTable
        self._hash_key = flow_hash_key
        self.num_candidates = num_candidates
        self.name = f"consistent-hash-{num_candidates}"
        self._table_size = table_size
        self._table: Optional[MaglevTable[IPv6Address]] = None
        self._table_servers: Optional[tuple] = None

    def _table_for(self, servers: Sequence[IPv6Address]) -> MaglevTable[IPv6Address]:
        """(Re)build the Maglev table when the server pool changes."""
        key = tuple(servers)
        if self._table is None or self._table_servers != key:
            self._table = self._maglev(list(servers), table_size=self._table_size)
            self._table_servers = key
        return self._table

    def prepare(self, servers: Sequence[IPv6Address]) -> None:
        # Building the table is a pure function of the pool (no RNG, no
        # scheduling), so doing it eagerly here is observationally
        # identical to the lazy build the first select would trigger.
        if servers:
            self._table_for(servers)

    def select(
        self, flow_key: FlowKey, servers: Sequence[IPv6Address]
    ) -> List[IPv6Address]:
        self._validate_pool(servers)
        table = self._table_for(servers)
        return table.lookup_chain(self._hash_key(flow_key), self.num_candidates)


#: The configuration strings :func:`make_selector` recognises.
SELECTOR_NAMES = ("random", "single-random", "rr", "round-robin", "consistent-hash")


def check_selector_name(name: str) -> None:
    """Raise :class:`SelectionError` unless :func:`make_selector` knows ``name``."""
    if name not in SELECTOR_NAMES:
        raise SelectionError(f"unknown candidate selector {name!r}")


def make_selector(
    name: str,
    rng: DrawSource,
    num_candidates: int = 2,
) -> CandidateSelector:
    """Factory for selectors, keyed by a configuration string.

    Recognised names: ``random``, ``single-random`` (the RR baseline),
    ``round-robin`` and ``consistent-hash``.
    """
    check_selector_name(name)
    if name == "random":
        return RandomCandidateSelector(rng, num_candidates)
    if name in ("single-random", "rr"):
        return SingleRandomSelector(rng)
    if name == "round-robin":
        return RoundRobinCandidateSelector(num_candidates)
    return ConsistentHashCandidateSelector(num_candidates)
