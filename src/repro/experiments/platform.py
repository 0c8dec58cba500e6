"""Testbed builder: wires the full experimental platform together.

One call to :func:`build_testbed` reproduces the paper's platform (§IV):
a traffic generator and a load balancer on one side, twelve application
servers on the other, all bridged on the same link, with the VIP
advertised by the load balancer and every server running the Service
Hunting virtual router in front of its Apache instance.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional

import numpy as np

from repro.core.candidate_selection import CandidateSelector, make_selector
from repro.core.loadbalancer import LoadBalancerNode
from repro.core.policies import ConnectionAcceptancePolicy, make_policy
from repro.errors import ExperimentError, WorkloadError
from repro.experiments.config import MAX_REQUEST_ID, PolicySpec, TestbedConfig
from repro.metrics.collector import ResponseTimeCollector, ServerLoadSampler
from repro.net.addressing import IPv6Address, default_allocators
from repro.net.fabric import LANFabric
from repro.server.cpu import make_cpu
from repro.server.http_server import HTTPServerInstance
from repro.server.virtual_router import ServerNode
from repro.sim.engine import PeriodicTask, Simulator
from repro.workload.client import TrafficGeneratorNode
from repro.workload.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.lb_tier import LoadBalancerTier
    from repro.telemetry.bus import TelemetryPayload

#: Extra simulated seconds a replay runs past its last arrival before
#: the horizon hooks stop its observers and control loops and the event
#: heap drains.
SETTLE_MARGIN = 5.0

#: Seconds between the busy-thread samples Figure 4 plots.
LOAD_SAMPLE_INTERVAL = 0.5

#: Slices :meth:`Testbed.run_trace` cuts a trace's arrival phase into,
#: calling :data:`tick` after each.  Results never depend on it (a sliced
#: run executes the same events in the same order).
HEARTBEAT_SLICES = 16

#: The heartbeat of the worker process running the cell
#: (``scenario._run_scenario_cell`` sets it); a no-op elsewhere.
tick: Callable[[], None] = lambda: None

#: Builds one acceptance-policy instance per server.
PolicyFactory = Callable[[], ConnectionAcceptancePolicy]


def _build_server(
    simulator: Simulator,
    fabric: LANFabric,
    config: TestbedConfig,
    policy_spec: PolicySpec,
    demands: array,
    index: int,
    address: IPv6Address,
    speed: float,
    steering_address: IPv6Address,
    vip: IPv6Address,
) -> ServerNode:
    """One fully wired application server (CPU, app, policy, VIP, fabric).

    The single construction recipe shared by :func:`build_testbed`'s
    initial fleet and :meth:`Testbed.add_server`'s elastic additions —
    so a mid-run server can never silently diverge from the fleet it
    joins.
    """
    cpu = make_cpu(
        simulator,
        num_cores=config.cores_per_server,
        model=config.cpu_model,
        name=f"cpu-{index}",
        speed=speed,
    )
    app = HTTPServerInstance(
        simulator=simulator,
        name=f"apache-{index}",
        cpu=cpu,
        num_workers=config.workers_per_server,
        backlog_capacity=config.backlog_capacity,
        demand_lookup=demands.__getitem__,
        request_timeout=config.request_timeout or None,
        shed_watermark=config.backlog_shed_watermark or None,
    )
    server = ServerNode(
        simulator=simulator,
        name=f"server-{index}",
        address=address,
        app=app,
        policy=make_policy(policy_spec.acceptance_policy),
        load_balancer_address=steering_address,
        cpu_cores=config.cores_per_server,
    )
    server.bind_vip(vip)
    server.attach(fabric)
    return server


@dataclass
class Testbed:
    """All the moving parts of one experiment run."""

    config: TestbedConfig
    policy_spec: PolicySpec
    simulator: Simulator
    fabric: LANFabric
    #: The single load balancer — or, in tier deployments
    #: (``num_load_balancers > 1``), the tier's first instance; use
    #: :attr:`lb_tier` for tier-wide operations.
    load_balancer: LoadBalancerNode
    servers: List[ServerNode]
    client: TrafficGeneratorNode
    vip: IPv6Address
    collector: ResponseTimeCollector
    #: CPU demand of every replayed request, indexed by request id (NaN
    #: where no replayed trace has that id); the servers read it.
    demands: array = field(repr=False)
    #: Present when the testbed fronts the servers with an ECMP
    #: load-balancer tier instead of a single instance.
    lb_tier: Optional[LoadBalancerTier] = None
    load_sampler: Optional[ServerLoadSampler] = None
    #: Streaming telemetry probe, attached by :func:`build_testbed` when
    #: the config sets ``telemetry`` (see :mod:`repro.telemetry.probe`).
    #: ``None`` on ordinary runs — telemetry is strictly opt-in.
    telemetry: Optional[object] = field(default=None, repr=False)
    #: The fault-injection pipeline when one is installed on the fabric
    #: (the chaos family sets this), so :meth:`counters` and the
    #: telemetry probe read its per-reason drop counters.
    fault_pipeline: Optional[object] = field(default=None, repr=False)
    _sampler_task: Optional[PeriodicTask] = field(default=None, repr=False)
    #: Allocator the server addresses were drawn from; the elastic
    #: control plane allocates mid-run additions from the same sequence.
    server_allocator: Optional[object] = field(default=None, repr=False)
    #: The address servers route steering SYN-ACKs through (the single
    #: LB's own address, or the tier's shared steering address).
    steering_address: Optional[IPv6Address] = field(default=None, repr=False)
    #: Callbacks invoked when the arrival phase (plus settle margin) is
    #: over — how the autoscaler and other periodic control loops are
    #: stopped so the event heap can drain.  See :meth:`at_horizon`.
    _horizon_hooks: List[Callable[[], None]] = field(
        default_factory=list, repr=False
    )
    _next_server_index: int = field(default=0, repr=False)
    #: Set by :meth:`close`.
    closed: bool = field(default=False, init=False, repr=False)

    # ------------------------------------------------------------------
    # lifetime
    # ------------------------------------------------------------------
    def __enter__(self) -> "Testbed":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Release the testbed once its run is done.

        The fabric and its nodes, the LB tier and its instances, each
        server and its application, and the telemetry probe and this
        testbed point at each other.  Left alone, those cycles keep a
        finished testbed (with its LB flow tables and demand table)
        resident until the next full garbage collection; closing cuts
        them, so the testbed is freed as soon as nothing else holds it.
        Counters and the collector stay readable; running or changing a
        closed testbed raises :class:`ExperimentError`.  Closing twice is
        a no-op.
        """
        self.closed = True
        self.fabric.close()
        for server in self.servers:
            server.app.transport = None
        if self.lb_tier is not None:
            self.lb_tier.close()
        if self.telemetry is not None:
            self.telemetry.close()

    def _check_open(self) -> None:
        if self.closed:
            raise ExperimentError(
                f"testbed {self.collector.name!r} is closed: its run is over, "
                "build a new testbed to run again"
            )

    # ------------------------------------------------------------------
    # instrumentation
    # ------------------------------------------------------------------
    def attach_load_sampler(
        self, interval: float = LOAD_SAMPLE_INTERVAL
    ) -> ServerLoadSampler:
        """Start periodically sampling per-server busy-thread counts.

        The sampler stops at the horizon (:meth:`at_horizon`).
        Re-attaching replaces the previous sampler; its periodic task is
        stopped first, so it cannot keep rescheduling forever and hold
        the event heap open.
        """
        self._check_open()
        self.stop_load_sampler()
        sampler = ServerLoadSampler(interval=interval)

        def take_sample() -> None:
            sampler.sample(
                self.simulator.now,
                [server.busy_threads for server in self.servers],
            )

        task = PeriodicTask(
            simulator=self.simulator,
            interval=interval,
            callback=take_sample,
            label="load-sampler",
        )
        task.start(first_delay=0.0)
        self.load_sampler = sampler
        self._sampler_task = task
        self.at_horizon(self.stop_load_sampler)
        return sampler

    def stop_load_sampler(self) -> None:
        """Stop the periodic load sampler (so the event heap can drain)."""
        if self._sampler_task is not None:
            self._sampler_task.stop()
            self._sampler_task = None

    def at_horizon(self, hook: Callable[[], None]) -> None:
        """Run ``hook`` once the trace's arrival phase is over.

        :meth:`run_trace` invokes every registered hook, in registration
        order, right after the simulation reaches the horizon.  Every
        periodic task of a run stops here — the telemetry probe and the
        load sampler (registered as they attach), the autoscaler and the
        watchdog — so none can keep the event heap alive forever after
        the workload ends.
        """
        self._check_open()
        self._horizon_hooks.append(hook)

    # ------------------------------------------------------------------
    # elastic fleet hooks (used by repro.control)
    # ------------------------------------------------------------------
    def add_server(self, speed: float = 1.0) -> ServerNode:
        """Build, attach and register one additional application server.

        The new server is a full fleet member: fresh CPU (at ``speed``),
        fresh application instance, fresh acceptance-policy instance (the
        same recipe as the initial fleet), bound to the VIP, attached to
        the fabric, and added to every load balancer's backend pool — so
        the very next candidate selection can offer it connections.
        """
        self._check_open()
        if self.server_allocator is None or self.steering_address is None:
            raise WorkloadError(
                "this testbed was not built by build_testbed; it cannot "
                "add servers mid-run"
            )
        if self._sampler_task is not None:
            # The periodic load sampler requires a constant per-sample
            # row width; growing the fleet under it would make its next
            # tick raise mid-simulation.  Refuse up front instead.
            raise WorkloadError(
                "cannot add servers while a load sampler is attached; "
                "stop it first (the sampler needs a fixed fleet)"
            )
        index = self._next_server_index
        self._next_server_index += 1
        server = _build_server(
            simulator=self.simulator,
            fabric=self.fabric,
            config=self.config,
            policy_spec=self.policy_spec,
            demands=self.demands,
            index=index,
            address=self.server_allocator.allocate(),
            speed=speed,
            steering_address=self.steering_address,
            vip=self.vip,
        )
        self.servers.append(server)
        self._register_backend(server.primary_address)
        return server

    def retire_server(self, server: ServerNode) -> None:
        """Take a server out of every backend pool and start its drain.

        Existing flow-table entries keep steering to the server (that is
        what makes the drain graceful); new candidate lists stop naming
        it, and the Service Hunting layer refuses any in-flight optional
        offer.  The server stays attached to the fabric until its
        connections finish — detaching is the lifecycle's job, once the
        server is :attr:`~repro.server.virtual_router.ServerNode.quiescent`.

        Retiring a server that is already draining raises: the second
        call would try to remove an address the backend pools no longer
        hold, and a caller that double-drains (e.g. a detector firing on
        a server the lifecycle already took out) must find out loudly
        rather than corrupt the drain state.
        """
        self._check_open()
        if server.draining:
            raise WorkloadError(
                f"server {server.name!r} is already draining; it has been "
                "removed from the backend pools and cannot be retired twice"
            )
        self._retire_backend(server.primary_address)
        server.start_draining()

    def _register_backend(self, address: IPv6Address) -> None:
        if self.lb_tier is not None:
            self.lb_tier.add_backend(self.vip, address)
        else:
            self.load_balancer.add_backend(self.vip, address)

    def _retire_backend(self, address: IPv6Address) -> None:
        if self.lb_tier is not None:
            self.lb_tier.remove_backend(self.vip, address)
        else:
            self.load_balancer.remove_backend(self.vip, address)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def schedule_trace(self, trace: Trace) -> None:
        """Enter ``trace``'s demands in :attr:`demands` and schedule its arrivals.

        Replaying the same trace again is fine; a request id that an
        earlier trace gave a *different* demand means two traces with
        overlapping id spaces on one testbed — the servers would look up
        the wrong CPU demands, so it is rejected before anything is
        scheduled.  (Generated traces number their requests 1..N, so ids
        are only unique within a trace.)
        """
        self._check_open()
        if len(trace):
            ids, demands = trace.request_ids, trace.service_demands
            if int(ids.max()) > MAX_REQUEST_ID:
                raise WorkloadError(
                    f"request id {int(ids.max())} is above {MAX_REQUEST_ID}: a "
                    "testbed keeps demands in a table indexed by request id"
                )
            missing = int(ids.max()) + 1 - len(self.demands)
            if missing > 0:
                self.demands.frombytes(np.full(missing, np.nan).tobytes())
            table = np.frombuffer(self.demands, dtype=np.float64)
            known = table[ids]
            clash = np.flatnonzero(~np.isnan(known) & (known != demands))
            if not clash.size:
                table[ids] = demands
            del table  # a live buffer export would block the next resize
            if clash.size:
                raise WorkloadError(
                    f"request id {int(ids[clash[0]])} is already registered "
                    "with a different demand; replay each trace on its own "
                    "testbed (or replay only the same trace twice)"
                )
        self.client.schedule_trace(trace)

    def run_trace(self, trace: Trace, until: Optional[float] = None) -> float:
        """Replay ``trace`` to completion and return the final simulated time.

        The trace is scheduled (:meth:`schedule_trace`) and its arrival
        phase runs in :data:`HEARTBEAT_SLICES` slices up to the last
        arrival, with a heartbeat (:data:`tick`) after each.
        The run then goes on to the horizon ``until`` — by default the
        last arrival plus :data:`SETTLE_MARGIN` seconds, and only when a
        horizon hook is registered (:meth:`at_horizon`) — where the hooks
        run, so the event heap can drain.  Then the simulation runs until
        every event has been processed.

        Once the heap is empty the client sweeps every still-pending
        query into a failed outcome (``queries_swept``): a query whose
        SYN or final data packet was lost must not silently vanish from
        the completion-rate metrics.  On fault-free paths the sweep is a
        no-op (nothing is pending once the heap drains).
        """
        self.schedule_trace(trace)
        simulator = self.simulator
        start = simulator.now
        for step in range(1, HEARTBEAT_SLICES + 1):
            simulator.run(until=start + trace.duration * step / HEARTBEAT_SLICES)
            tick()
        if until is None and self._horizon_hooks:
            until = start + trace.duration + SETTLE_MARGIN
        if until is not None:
            simulator.run(until=until)
            hooks, self._horizon_hooks = self._horizon_hooks, []
            for hook in hooks:
                hook()
        duration = simulator.run()
        self.client.sweep_unfinished()
        return duration

    # ------------------------------------------------------------------
    # what a run reads off its testbed
    # ------------------------------------------------------------------
    def counters(self) -> Dict[str, float]:
        """Every counter of the testbed, as one flat ``<tier>.<counter>`` dict.

        Each tier's ``snapshot()`` is summed over its servers or LB
        instances (``edge.*`` and the tier's own ``lb.*`` counters only
        exist in tier deployments, ``fault.*`` only with a fault
        pipeline).  The telemetry probe streams every entry under its
        name here.  Each call builds a new dict, and a closed
        testbed still answers with its final values.  The names and
        their sources are tabled in ``docs/architecture.md``.
        """
        counters: Dict[str, float] = {}

        def add(tier: str, snapshot: Mapping[str, float]) -> None:
            for name, value in snapshot.items():
                key = f"{tier}.{name}"
                counters[key] = counters.get(key, 0) + value

        for balancer in self.load_balancers():
            add("lb", balancer.stats.snapshot())
            add("flow", balancer.flow_table.snapshot())
        if self.lb_tier is not None:
            add("lb", self.lb_tier.snapshot())
            add("edge", self.lb_tier.router.stats.snapshot())
        for server in self.servers:
            add("server", server.app.stats.snapshot())
            add("hunt", server.hunting.stats.snapshot())
        add("fabric", self.fabric.stats.snapshot())
        if self.fault_pipeline is not None:
            add("fault", self.fault_pipeline.stats.snapshot())
        add("client", self.client.snapshot())
        return counters

    def telemetry_payload(self) -> Optional[TelemetryPayload]:
        """The probe's payload, or ``None`` when no probe is attached."""
        return None if self.telemetry is None else self.telemetry.export_payload()

    def acceptance_counts(self) -> Dict[str, int]:
        """Per-server accepted-connection counts (by server name)."""
        return {
            server.name: server.hunting.stats.accepted_total
            for server in self.servers
        }

    def load_balancers(self) -> List[LoadBalancerNode]:
        """Every load-balancer instance (one, or the whole tier)."""
        if self.lb_tier is not None:
            return list(self.lb_tier.instances)
        return [self.load_balancer]


def build_testbed(
    config: TestbedConfig,
    policy_spec: PolicySpec,
    collector: Optional[ResponseTimeCollector] = None,
    run_name: Optional[str] = None,
) -> Testbed:
    """Build the full platform for one (testbed, policy) combination.

    Parameters
    ----------
    config:
        The static testbed description (server fleet, CPU model, ...).
    policy_spec:
        Which candidate-selection / acceptance-policy combination to run.
    collector:
        Response-time sink; created fresh when not given.
    run_name:
        Label attached to the collector, defaulting to the policy name.
    """
    simulator = Simulator(seed=config.seed)
    fabric = LANFabric(simulator)
    allocators = default_allocators()
    demands = array("d")
    collector = collector if collector is not None else ResponseTimeCollector(
        name=run_name or policy_spec.name
    )

    # Addresses: one LB (or the tier's shared steering address), one VIP,
    # one client, N servers.
    lb_address = allocators["lb"].allocate()
    vip = allocators["vip"].allocate()
    client_address = allocators["client"].allocate()
    server_addresses = list(allocators["server"].allocate_many(config.num_servers))

    # Candidate selection scheme (the RNG stream is owned by the simulator
    # so runs are reproducible given the testbed seed).  Tier deployments
    # build one selector per instance from the same recipe.
    def make_one_selector() -> CandidateSelector:
        draws = simulator.streams.draws("candidate-selection")
        if policy_spec.num_candidates == 1 and policy_spec.selector == "random":
            # Single random candidate: label it as the RR baseline.
            return make_selector("single-random", rng=draws)
        return make_selector(
            policy_spec.selector,
            rng=draws,
            num_candidates=policy_spec.num_candidates,
        )

    lb_tier: Optional[LoadBalancerTier] = None
    if config.num_load_balancers > 1:
        from repro.core.lb_tier import LoadBalancerTier

        instance_addresses = list(
            allocators["lb"].allocate_many(config.num_load_balancers)
        )
        lb_tier = LoadBalancerTier(
            simulator=simulator,
            steering_address=lb_address,
            instance_addresses=instance_addresses,
            selector_factory=make_one_selector,
            flow_idle_timeout=config.flow_idle_timeout,
            hash_scheme=config.ecmp_hash,
        )
        lb_tier.register_vip(vip, server_addresses)
        lb_tier.attach(fabric)
        load_balancer: LoadBalancerNode = lb_tier.instances[0]
    else:
        load_balancer = LoadBalancerNode(
            simulator=simulator,
            name="lb",
            address=lb_address,
            selector=make_one_selector(),
            flow_idle_timeout=config.flow_idle_timeout,
        )
        load_balancer.register_vip(vip, server_addresses)
        load_balancer.attach(fabric)

    servers: List[ServerNode] = [
        _build_server(
            simulator=simulator,
            fabric=fabric,
            config=config,
            policy_spec=policy_spec,
            demands=demands,
            index=index,
            address=address,
            speed=config.speed_of(index),
            steering_address=lb_address,
            vip=vip,
        )
        for index, address in enumerate(server_addresses)
    ]

    client = TrafficGeneratorNode(
        simulator=simulator,
        name="client",
        address=client_address,
        vip=vip,
        collector=collector,
        request_spread=config.request_spread,
        request_chunks=config.request_chunks,
        syn_retransmit_timeout=config.syn_retransmit_timeout,
        syn_retransmit_cap=config.syn_retransmit_cap,
        syn_retransmit_limit=config.syn_retransmit_limit,
        retry_timeout=config.retry_timeout,
        max_retries=config.max_retries,
    )
    client.attach(fabric)

    testbed = Testbed(
        config=config,
        policy_spec=policy_spec,
        simulator=simulator,
        fabric=fabric,
        load_balancer=load_balancer,
        servers=servers,
        client=client,
        vip=vip,
        collector=collector,
        demands=demands,
        lb_tier=lb_tier,
        server_allocator=allocators["server"],
        steering_address=lb_address,
        _next_server_index=config.num_servers,
    )
    # The observers attach last, the probe first.  Each only *reads*
    # simulation state and draws no randomness, so run outcomes are
    # bit-identical with them on (the goldens are re-checked with
    # telemetry on in CI); with telemetry off nothing of it is imported.
    if config.telemetry:
        from repro.telemetry.probe import attach_telemetry

        attach_telemetry(testbed)
    if config.sample_load:
        testbed.attach_load_sampler()
    return testbed
