"""Hostile and heavy-tailed workload layer.

The well-behaved workloads (Poisson, stepped, diurnal Wikipedia replay)
never stress the recovery paths the paper's resiliency argument rests
on.  This module supplies the missing adversarial/realism axis in three
pieces:

**Heavy-tailed realism.**  :class:`HeavyTailWorkload` draws a Poisson
arrival stream whose queries are a mixture of one-shot heavy-tailed
requests (bounded-Pareto CPU demand) and keep-alive *user sessions*: a
session is modelled as a single aggregated request whose demand is the
sum of a geometric-length series of lognormal per-request demands, so a
worker is pinned for the whole session exactly like an Apache-prefork
keep-alive connection — without any per-request protocol machinery.
Every arrival is attributed to one of ~10⁵–10⁶ simulated users via a
truncated Zipf draw; users exist only as integer ids on the requests
(numpy arrays end to end, no per-user objects).
The client (:class:`~repro.workload.client.TrafficGeneratorNode`) adds
the flow-affinity half when it replays such a trace: it derives a stable
source port from the user id, so a returning user's 5-tuple — and
therefore their ECMP bucket and (via the LB flow table) their server —
repeats across sessions.

**Adversarial traffic.**  :class:`SynFloodAttacker` injects SYNs with
spoofed sources at Poisson pacing.  The fabric's non-strict mode drops
replies to unbound spoofed addresses silently, so the attack needs no
address claiming: SYN-ACKs and RSTs to the spoofed sources simply
vanish, and half-open connections pin workers/backlog slots until the
server's request timeout fires.  :func:`find_colliding_flow_keys` is the
offline half of the hash-collision attack: it enumerates candidate
5-tuples against :func:`repro.net.ecmp.select_next_hop_name` — the very
function the data-plane router runs — until it has found flows that all
hash onto one chosen ECMP bucket, skewing a single LB instance.

Everything here is seed-deterministic: the generators draw from the
``numpy`` generator they are handed, and the collision search is a pure
function of its arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import WorkloadError
from repro.net.addressing import IPv6Address
from repro.net.ecmp import HASH_SCHEMES, select_next_hop_name
from repro.net.packet import DEFAULT_HOP_LIMIT, FlowKey, Packet, TCPFlag, TCPSegment
from repro.net.router import NetworkNode
from repro.net.tcp import EPHEMERAL_PORT_BASE, EPHEMERAL_PORT_RANGE, HTTP_PORT
from repro.sim.engine import Simulator
from repro.workload.requests import KIND_HEAVY, KIND_SESSION
from repro.workload.service_models import (
    BoundedParetoServiceTime,
    LognormalServiceTime,
    ServiceTimeModel,
)
from repro.workload.trace import NO_USER, Trace


# ----------------------------------------------------------------------
# heavy-tailed session workload
# ----------------------------------------------------------------------
class HeavyTailWorkload:
    """Poisson mixture of heavy one-shot requests and keep-alive sessions.

    Parameters
    ----------
    rate:
        Arrival rate (arrivals/second); an arrival is either one heavy
        request or one whole session.
    num_arrivals:
        Number of arrivals to generate.
    heavy_fraction:
        Probability that an arrival is a one-shot heavy-tailed request
        rather than a session.
    heavy_model:
        Service-time model for heavy requests (default: bounded Pareto,
        the classic heavy-tail stand-in).
    request_model:
        Service-time model for the *individual* requests inside a
        session (default: lognormal).
    mean_session_length:
        Mean number of keep-alive requests per session (geometric, so a
        session always has at least one request).
    num_users:
        Size of the simulated user population; user ids are drawn
        Zipf-truncated into ``range(num_users)`` so popular users repeat.
    user_zipf:
        Zipf exponent of the user popularity distribution (> 1).
    size_median / size_sigma / size_cap:
        Lognormal response-size model per in-session request (bytes);
        sizes are capped at ``size_cap`` to keep the tail bounded.  The
        sizes are drawn, in order with the demands, but not kept.
    start_time:
        Offset added to every arrival time.
    """

    def __init__(
        self,
        rate: float,
        num_arrivals: int = 10_000,
        heavy_fraction: float = 0.25,
        heavy_model: Optional[ServiceTimeModel] = None,
        request_model: Optional[ServiceTimeModel] = None,
        mean_session_length: float = 4.0,
        num_users: int = 200_000,
        user_zipf: float = 1.3,
        size_median: int = 16_000,
        size_sigma: float = 1.0,
        size_cap: int = 262_144,
        start_time: float = 0.0,
    ) -> None:
        if rate <= 0:
            raise WorkloadError(f"arrival rate must be positive, got {rate!r}")
        if num_arrivals <= 0:
            raise WorkloadError(
                f"number of arrivals must be positive, got {num_arrivals!r}"
            )
        if not 0 <= heavy_fraction <= 1:
            raise WorkloadError(
                f"heavy fraction must be in [0, 1], got {heavy_fraction!r}"
            )
        if mean_session_length < 1:
            raise WorkloadError(
                f"mean session length must be >= 1, got {mean_session_length!r}"
            )
        if num_users <= 0:
            raise WorkloadError(f"num_users must be positive, got {num_users!r}")
        if user_zipf <= 1:
            raise WorkloadError(
                f"Zipf exponent must be > 1, got {user_zipf!r}"
            )
        if size_median <= 0 or size_cap < size_median:
            raise WorkloadError(
                f"invalid size model: median={size_median!r}, cap={size_cap!r}"
            )
        if size_sigma < 0:
            raise WorkloadError(f"size sigma must be >= 0, got {size_sigma!r}")
        self.rate = rate
        self.num_arrivals = num_arrivals
        self.heavy_fraction = heavy_fraction
        self.heavy_model = heavy_model or BoundedParetoServiceTime()
        self.request_model = request_model or LognormalServiceTime(
            median_seconds=0.04, sigma=0.6
        )
        self.mean_session_length = mean_session_length
        self.num_users = num_users
        self.user_zipf = user_zipf
        self.size_median = size_median
        self.size_sigma = size_sigma
        self.size_cap = size_cap
        self.start_time = start_time

    @classmethod
    def from_load_factor(
        cls, load_factor: float, capacity: float, **kwargs
    ) -> "HeavyTailWorkload":
        """Workload whose offered demand is ``load_factor × capacity``.

        ``capacity`` is the fleet's total CPU capacity in demand-seconds
        per second (``TestbedConfig.total_capacity``); the arrival rate
        is normalised by the *mixture* mean demand per arrival, which a
        session inflates by its mean length.
        """
        if not 0 < load_factor:
            raise WorkloadError(
                f"load factor must be positive, got {load_factor!r}"
            )
        if capacity <= 0:
            raise WorkloadError(f"capacity must be positive, got {capacity!r}")
        probe = cls(rate=1.0, **kwargs)
        rate = load_factor * capacity / probe.mean_arrival_demand()
        return cls(rate=rate, **kwargs)

    def mean_arrival_demand(self) -> float:
        """Expected CPU demand of one arrival (mixture mean)."""
        return (
            self.heavy_fraction * self.heavy_model.mean()
            + (1 - self.heavy_fraction)
            * self.mean_session_length
            * self.request_model.mean()
        )

    def _sample_size(self, rng: np.random.Generator) -> int:
        """One bounded-lognormal response size draw (bytes)."""
        raw = self.size_median * math.exp(
            self.size_sigma * float(rng.standard_normal())
        )
        return max(1, min(self.size_cap, int(round(raw))))

    def generate(self, rng: np.random.Generator) -> Trace:
        """Materialise the trace (requests numbered 1..N)."""
        n = self.num_arrivals
        inter = rng.exponential(1.0 / self.rate, size=n)
        arrivals = self.start_time + np.cumsum(inter)
        is_heavy = rng.uniform(size=n) < self.heavy_fraction
        # Truncated Zipf: ranks fold into the finite user population, so
        # rank 1 (most popular) maps to user 0 and the tail wraps —
        # popularity mass is preserved without materialising the users.
        users = (rng.zipf(self.user_zipf, size=n) - 1) % self.num_users
        lengths = rng.geometric(1.0 / self.mean_session_length, size=n)
        demands = np.empty(n, dtype=np.float64)
        for index in range(n):
            # Response sizes are drawn and dropped: servers send a fixed
            # payload, but the draws keep the RNG stream (hence every
            # demand) the one the scenario goldens pin.
            if is_heavy[index]:
                demand = self.heavy_model.sample(rng)
                self._sample_size(rng)
            else:
                # One aggregated request per keep-alive session: the
                # worker is held for the summed demand.
                demand = 0.0
                for _ in range(int(lengths[index])):
                    demand += self.request_model.sample(rng)
                    self._sample_size(rng)
            demands[index] = demand
        return Trace.from_columns(
            np.arange(1, n + 1),
            arrivals,
            demands,
            np.where(is_heavy, 0, 1).astype(np.uint8),
            (KIND_HEAVY, KIND_SESSION),
            user_ids=users,
            name="heavy-tail",
        )

    def __repr__(self) -> str:
        return (
            f"HeavyTailWorkload(rate={self.rate:.3f}, n={self.num_arrivals}, "
            f"heavy={self.heavy_fraction:g}, users={self.num_users}, "
            f"zipf={self.user_zipf:g})"
        )


@dataclass(frozen=True)
class UserConcentration:
    """Per-user breakdown of a heavy-tail trace (array-computed)."""

    num_requests: int
    num_sessions: int
    num_heavy: int
    distinct_users: int
    #: Fraction of all requests issued by the single most active user.
    top_user_share: float
    max_user_requests: int


def user_concentration(trace: Trace) -> UserConcentration:
    """User-population statistics of a trace carrying ``user_id``s.

    Pure function of the trace (no RNG), so the scenario aggregator can
    recompute it identically in every worker.
    """
    user_ids = trace.user_ids
    if user_ids is not None:
        user_ids = user_ids[user_ids != NO_USER]
    if user_ids is None or user_ids.size == 0:
        raise WorkloadError(
            f"trace {trace.name!r} carries no user ids; "
            "user_concentration needs a heavy-tail trace"
        )
    kinds = trace.summary().kinds
    _, counts = np.unique(user_ids, return_counts=True)
    max_requests = int(counts.max())
    return UserConcentration(
        num_requests=len(trace),
        num_sessions=kinds.get(KIND_SESSION, 0),
        num_heavy=kinds.get(KIND_HEAVY, 0),
        distinct_users=int(counts.size),
        top_user_share=max_requests / user_ids.size,
        max_user_requests=max_requests,
    )


# ----------------------------------------------------------------------
# SYN flood with spoofed-source churn
# ----------------------------------------------------------------------
def spoofed_source_flows(
    vip: IPv6Address,
    source_addresses: Sequence[IPv6Address],
    num_flows: int,
) -> Tuple[FlowKey, ...]:
    """Deterministic spoofed flow keys to the VIP's HTTP port.

    Consecutive flows rotate through the spoofed sources (source churn),
    bumping the source port (from the ephemeral base) every full
    rotation, so no 5-tuple repeats until the pool is exhausted.
    """
    if not source_addresses:
        raise WorkloadError("spoofed_source_flows needs at least one source")
    if num_flows <= 0:
        raise WorkloadError(f"num_flows must be positive, got {num_flows!r}")
    flows = []
    for index in range(num_flows):
        src = source_addresses[index % len(source_addresses)]
        port = EPHEMERAL_PORT_BASE + (index // len(source_addresses)) % EPHEMERAL_PORT_RANGE
        flows.append(FlowKey(src, port, vip, HTTP_PORT))
    return tuple(flows)


class SynFloodAttacker(NetworkNode):
    """Open-loop SYN generator with spoofed sources.

    The attacker owns one real address (so it can inject into the
    fabric) but stamps each SYN with a spoofed source drawn from its
    flow list.  Replies go to the spoofed addresses, which are unbound —
    the LAN fabric in non-strict mode drops them silently — so the
    handshake never completes and the victim holds state until its own
    timeouts fire.  SYNs carry no request id: the servers only look the
    demand up when request *data* arrives, which for these flows never
    happens.
    """

    def __init__(
        self,
        simulator: Simulator,
        name: str,
        address: IPv6Address,
        flows: Sequence[FlowKey],
    ) -> None:
        super().__init__(simulator, name)
        if not flows:
            raise WorkloadError("a SYN flood needs at least one flow key")
        self.add_address(address)
        self.flows: Tuple[FlowKey, ...] = tuple(flows)
        self.syns_sent = 0

    def schedule_flood(
        self,
        rng: np.random.Generator,
        start_at: float,
        rate: float,
        num_syns: int,
    ) -> float:
        """Schedule ``num_syns`` Poisson-paced SYNs from ``start_at``.

        Flow keys are replayed round-robin from the configured list.
        Returns the time of the last scheduled SYN.
        """
        if rate <= 0:
            raise WorkloadError(f"flood rate must be positive, got {rate!r}")
        if num_syns <= 0:
            raise WorkloadError(
                f"number of SYNs must be positive, got {num_syns!r}"
            )
        # IEEE addition, element by element: the same times as adding
        # each offset to ``start_at`` in Python.
        times = (start_at + np.cumsum(rng.exponential(1.0 / rate, size=num_syns))).tolist()
        self.simulator.schedule_series(
            range(num_syns), times.__getitem__, self._fire, "syn-flood"
        )
        return times[-1]

    def _fire(self, index: int) -> None:
        flow = self.flows[index % len(self.flows)]
        syn = Packet(
            flow.src_address,
            flow.dst_address,
            TCPSegment(flow.src_port, flow.dst_port, TCPFlag.SYN),
            None, DEFAULT_HOP_LIMIT, None,  # no SRH, default hop limit, fresh id
            self.simulator.clock._now,
        )
        self.send(syn)
        self.syns_sent += 1

    def handle_packet(self, packet: Packet) -> None:
        # Only possible when a flow spoofs the attacker's own address;
        # ignored.
        pass

    def __repr__(self) -> str:
        return (
            f"SynFloodAttacker(name={self.name!r}, flows={len(self.flows)}, "
            f"sent={self.syns_sent})"
        )


# ----------------------------------------------------------------------
# offline hash-collision search
# ----------------------------------------------------------------------
def find_colliding_flow_keys(
    hop_names: Sequence[str],
    target_hop: str,
    vip: IPv6Address,
    source_addresses: Sequence[IPv6Address],
    count: int,
    hash_scheme: str = "rendezvous",
    first_port: int = EPHEMERAL_PORT_BASE,
    dst_port: int = HTTP_PORT,
    max_candidates: int = 1_000_000,
) -> Tuple[FlowKey, ...]:
    """5-tuples that all hash onto ``target_hop`` under ``hash_scheme``.

    A deterministic offline brute force: candidate (source, port) pairs
    are enumerated in a fixed order (source churn first, then ports) and
    kept iff :func:`repro.net.ecmp.select_next_hop_name` — the data
    plane's own selector — maps them to the target.  With *k* hops the
    expected hit rate is 1/k, so the search is cheap; ``max_candidates``
    bounds it against pathological arguments.

    The result is a pure function of the arguments (no RNG), hence
    trivially seed-stable and reproducible across processes.
    """
    if hash_scheme not in HASH_SCHEMES:
        raise WorkloadError(
            f"unknown ECMP hash scheme {hash_scheme!r}: expected one of "
            f"{HASH_SCHEMES}"
        )
    if target_hop not in hop_names:
        raise WorkloadError(
            f"collision target {target_hop!r} is not in the ECMP group "
            f"{sorted(hop_names)!r}"
        )
    if not source_addresses:
        raise WorkloadError("the collision search needs at least one source")
    if count <= 0:
        raise WorkloadError(f"collision count must be positive, got {count!r}")
    found: List[FlowKey] = []
    candidate = 0
    while len(found) < count:
        if candidate >= max_candidates:
            raise WorkloadError(
                f"collision search exhausted {max_candidates} candidates "
                f"with only {len(found)}/{count} hits on {target_hop!r}"
            )
        src = source_addresses[candidate % len(source_addresses)]
        port = (
            first_port
            + (candidate // len(source_addresses)) % EPHEMERAL_PORT_RANGE
        )
        flow = FlowKey(src, port, vip, dst_port)
        if select_next_hop_name(hop_names, flow, hash_scheme) == target_hop:
            found.append(flow)
        candidate += 1
    return tuple(found)
