"""Layer microbenchmarks: ns per operation of each layer's public functions.

Workload-independent.  Every benchmark is a function ``run(n) -> seconds``
that performs ``n`` operations and returns the seconds its timed region
took (set-up such as pre-building packets stays outside the region).
:func:`run_all` grows ``n`` until one loop lasts ``min_seconds``, repeats
the loop and reports the median.

``repro.control`` and ``repro.analysis`` have no benchmark: they run in
none of the five workloads.
"""

from __future__ import annotations

import statistics
import time
from multiprocessing.reduction import ForkingPickler
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.core.agent import ApplicationAgent, StaticLoadView
from repro.core.candidate_selection import (
    ConsistentHashCandidateSelector,
    RandomCandidateSelector,
)
from repro.core.flow_table import FlowTable
from repro.core.loadbalancer import LoadBalancerNode
from repro.core.policies import StaticThresholdPolicy
from repro.core.service_hunting import ServiceHuntingProcessor
from repro.experiments.chaos_experiment import fault_config_for
from repro.experiments.config import ChaosConfig, TestbedConfig, WikipediaReplayConfig, sr_policy
from repro.experiments.platform import build_testbed
from repro.experiments.wikipedia_experiment import make_wikipedia_trace
from repro.metrics.collector import ResponseTimeCollector
from repro.net.addressing import default_allocators
from repro.net.channel import BatchFrame, InProcessChannel
from repro.net.ecmp import EcmpEdgeRouter
from repro.net.fabric import LANFabric
from repro.net.faults import FaultInjectionChannel, build_injectors
from repro.net.packet import FlowKey, PacketPool, make_syn
from repro.net.router import NetworkNode
from repro.net.srh import SegmentRoutingHeader
from repro.server.cpu import make_cpu
from repro.server.http_server import HTTPServerInstance
from repro.server.scoreboard import Scoreboard
from repro.sim.engine import Simulator
from repro.telemetry.bus import RingBuffer
from repro.telemetry.probe import attach_telemetry
from repro.workload.client import RequestOutcome
from repro.workload.poisson import PoissonWorkload
from repro.workload.service_models import ExponentialServiceTime

#: Operations per timed chunk: bounds heap depth and pre-built inputs.
CHUNK = 2_000

Bench = Callable[[int], float]
BENCHES: Dict[str, Callable[[], Bench]] = {}


def bench(name: str):
    """Register a benchmark factory under its per-layer metric name."""

    def register(factory: Callable[[], Bench]) -> Callable[[], Bench]:
        BENCHES[name] = factory
        return factory

    return register


def _chunks(n: int):
    while n > 0:
        yield min(n, CHUNK)
        n -= CHUNK


class _Sink(NetworkNode):
    """A node that swallows every packet."""

    def handle_packet(self, packet) -> None:
        pass


def _addresses(count: int = 12):
    allocators = default_allocators()
    return {
        "servers": list(allocators["server"].allocate_many(count)),
        "client": allocators["client"].allocate(),
        "vip": allocators["vip"].allocate(),
        "lb": allocators["lb"].allocate(),
    }


def _flow_keys(addresses, count: int) -> List[FlowKey]:
    return [
        FlowKey(addresses["client"], 1024 + index, addresses["vip"], 80)
        for index in range(count)
    ]


def _noop() -> None:
    pass


# ----------------------------------------------------------------------
# sim
# ----------------------------------------------------------------------
@bench("sim.schedule_pop_ns")
def _schedule_pop() -> Bench:
    def run(n: int) -> float:
        simulator = Simulator(seed=0)
        start = time.perf_counter()
        for size in _chunks(n):
            schedule_in = simulator.schedule_in
            for index in range(size):
                schedule_in(index * 1e-6, _noop, "tick")
            simulator.run()
        return time.perf_counter() - start

    return run


@bench("sim.schedule_cancel_ns")
def _schedule_cancel() -> Bench:
    def run(n: int) -> float:
        simulator = Simulator(seed=0)
        start = time.perf_counter()
        for size in _chunks(n):
            schedule_in = simulator.schedule_in
            for index in range(size):
                schedule_in(1.0 + index * 1e-6, _noop, "timer").cancel()
            simulator.run()
        return time.perf_counter() - start

    return run


# ----------------------------------------------------------------------
# net
# ----------------------------------------------------------------------
@bench("net.packet_build_ns")
def _packet_build() -> Bench:
    addresses = _addresses()

    def run(n: int) -> float:
        client, vip = addresses["client"], addresses["vip"]
        start = time.perf_counter()
        for index in range(n):
            make_syn(client, vip, 1024, 80, request_id=index)
        return time.perf_counter() - start

    return run


@bench("net.packet_build_pooled_ns")
def _packet_build_pooled() -> Bench:
    addresses = _addresses()

    def run(n: int) -> float:
        client, vip = addresses["client"], addresses["vip"]
        pool = PacketPool()
        start = time.perf_counter()
        for index in range(n):
            pool.release(make_syn(client, vip, 1024, 80, request_id=index, pool=pool))
        return time.perf_counter() - start

    return run


@bench("net.fabric_send_ns")
def _fabric_send() -> Bench:
    addresses = _addresses()

    def run(n: int) -> float:
        simulator = Simulator(seed=0)
        fabric = LANFabric(simulator)
        sink = _Sink(simulator, "sink")
        sink.add_address(addresses["vip"])
        sink.attach(fabric)
        packet = make_syn(addresses["client"], addresses["vip"], 1024, 80)
        start = time.perf_counter()
        for size in _chunks(n):
            for _ in range(size):
                packet.hop_limit = 64
                fabric.send(packet)
            simulator.run()
        return time.perf_counter() - start

    return run


def _ecmp_router(simulator: Simulator, addresses) -> EcmpEdgeRouter:
    router = EcmpEdgeRouter(simulator, "edge", addresses["lb"])
    for index in range(2):
        router.add_next_hop(_Sink(simulator, f"lb-{index}"))
    return router


@bench("net.ecmp_select_miss_ns")
def _ecmp_miss() -> Bench:
    addresses = _addresses()
    keys = _flow_keys(addresses, CHUNK)

    def run(n: int) -> float:
        router = _ecmp_router(Simulator(seed=0), addresses)
        elapsed = 0.0
        for size in _chunks(n):
            router.invalidate_next_hop_cache()
            start = time.perf_counter()
            for key in keys[:size]:
                router.next_hop_for(key)
            elapsed += time.perf_counter() - start
        return elapsed

    return run


@bench("net.ecmp_select_hit_ns")
def _ecmp_hit() -> Bench:
    addresses = _addresses()
    keys = _flow_keys(addresses, CHUNK)

    def run(n: int) -> float:
        router = _ecmp_router(Simulator(seed=0), addresses)
        for key in keys:
            router.next_hop_for(key)
        start = time.perf_counter()
        for size in _chunks(n):
            for key in keys[:size]:
                router.next_hop_for(key)
        return time.perf_counter() - start

    return run


def _deliver_bench(faulty: bool) -> Bench:
    addresses = _addresses()

    def run(n: int) -> float:
        simulator = Simulator(seed=0)
        channel = InProcessChannel(simulator)
        if faulty:
            # The chaos family's loss cell: i.i.d. loss, corruption and
            # Gilbert-Elliott bursts all draw per packet.
            recipe = fault_config_for(ChaosConfig(), "loss", 10.0)
            channel = FaultInjectionChannel(
                simulator, channel, build_injectors(simulator, recipe)
            )
        sink = _Sink(simulator, "sink")
        packet = make_syn(addresses["client"], addresses["vip"], 1024, 80)
        start = time.perf_counter()
        for size in _chunks(n):
            for _ in range(size):
                channel.deliver(sink, packet, 50e-6, "deliver->sink")
            simulator.run()
        return time.perf_counter() - start

    return run


@bench("net.channel_deliver_ns")
def _channel_deliver() -> Bench:
    return _deliver_bench(faulty=False)


@bench("net.fault_deliver_ns")
def _fault_deliver() -> Bench:
    return _deliver_bench(faulty=True)


@bench("net.frame_roundtrip_ns_per_item")
def _frame_roundtrip() -> Bench:
    # The item shape the scale pods stream: (time, (id, sent_at, rt, reason)).
    items = tuple(
        (0.001 * index, (index, 0.001 * index, 0.04 + 1e-6 * index, None))
        for index in range(CHUNK)
    )

    def run(n: int) -> float:
        start = time.perf_counter()
        for size in _chunks(n):
            frame = BatchFrame(0, 1.0, items[:size])
            ForkingPickler.loads(ForkingPickler.dumps(frame))
        return time.perf_counter() - start

    return run


# ----------------------------------------------------------------------
# core
# ----------------------------------------------------------------------
def _select_bench(make_selector) -> Bench:
    addresses = _addresses()
    keys = _flow_keys(addresses, CHUNK)

    def run(n: int) -> float:
        selector = make_selector()
        servers = addresses["servers"]
        selector.prepare(servers)
        start = time.perf_counter()
        for size in _chunks(n):
            for key in keys[:size]:
                selector.select(key, servers)
        return time.perf_counter() - start

    return run


@bench("core.candidate_select_random_ns")
def _select_random() -> Bench:
    return _select_bench(lambda: RandomCandidateSelector(np.random.default_rng(0), 2))


@bench("core.candidate_select_chash_ns")
def _select_chash() -> Bench:
    return _select_bench(lambda: ConsistentHashCandidateSelector(2))


@bench("core.flow_learn_steer_ns")
def _flow_learn_steer() -> Bench:
    addresses = _addresses()
    keys = _flow_keys(addresses, CHUNK)

    def run(n: int) -> float:
        server = addresses["servers"][0]
        start = time.perf_counter()
        for size in _chunks(n):
            table = FlowTable(idle_timeout=60.0)
            for index, key in enumerate(keys[:size]):
                now = index * 1e-3
                table.learn(key, server, now)
                table.steer(key, now)
        return time.perf_counter() - start

    return run


@bench("core.lb_syn_ns")
def _lb_syn() -> Bench:
    addresses = _addresses()

    def run(n: int) -> float:
        simulator = Simulator(seed=0)
        fabric = LANFabric(simulator)
        for index, address in enumerate(addresses["servers"]):
            sink = _Sink(simulator, f"server-{index}")
            sink.add_address(address)
            sink.attach(fabric)
        balancer = LoadBalancerNode(
            simulator,
            "lb",
            addresses["lb"],
            RandomCandidateSelector(simulator.streams.stream("candidate-selection"), 2),
        )
        balancer.register_vip(addresses["vip"], addresses["servers"])
        balancer.attach(fabric)
        elapsed = 0.0
        for size in _chunks(n):
            packets = [
                make_syn(addresses["client"], addresses["vip"], 1024 + index, 80)
                for index in range(size)
            ]
            start = time.perf_counter()
            for packet in packets:
                balancer.handle_packet(packet)
            elapsed += time.perf_counter() - start
            simulator.run()
        return elapsed

    return run


@bench("core.hunt_process_ns")
def _hunt_process() -> Bench:
    addresses = _addresses()

    def run(n: int) -> float:
        first, second = addresses["servers"][:2]
        # Half-busy scoreboard under SR4: the optional offer is refused,
        # the path taken most at rho = 0.88.
        hunting = ServiceHuntingProcessor(
            StaticThresholdPolicy(4), ApplicationAgent(StaticLoadView(busy=16, slots=32))
        )
        elapsed = 0.0
        for size in _chunks(n):
            packets = []
            for index in range(size):
                packet = make_syn(addresses["client"], addresses["vip"], 1024 + index, 80)
                packet.attach_srh(
                    SegmentRoutingHeader.from_traversal([first, second, addresses["vip"]])
                )
                packets.append(packet)
            start = time.perf_counter()
            for packet in packets:
                hunting.process(packet)
            elapsed += time.perf_counter() - start
        return elapsed

    return run


# ----------------------------------------------------------------------
# server
# ----------------------------------------------------------------------
class _NullTransport:
    def send_syn_ack(self, connection) -> None:
        pass

    def send_reset(self, connection) -> None:
        pass

    def send_response(self, connection, payload_size) -> None:
        pass


@bench("server.accept_complete_ns")
def _accept_complete() -> Bench:
    addresses = _addresses()
    keys = _flow_keys(addresses, 64)

    def run(n: int) -> float:
        simulator = Simulator(seed=0)
        app = HTTPServerInstance(
            simulator,
            "apache",
            make_cpu(simulator, num_cores=2),
            num_workers=32,
            backlog_capacity=128,
            demand_lookup=lambda request_id: 0.01,
        )
        app.bind_transport(_NullTransport())
        start = time.perf_counter()
        done = 0
        while done < n:
            # 64 concurrent connections: 32 served at once, 32 queued.
            for key in keys:
                app.handle_connection_request(key, done)
                app.handle_request_data(key, done)
                done += 1
            simulator.run()
        return (time.perf_counter() - start) * n / done

    return run


@bench("server.scoreboard_toggle_ns")
def _scoreboard_toggle() -> Bench:
    def run(n: int) -> float:
        scoreboard = Scoreboard(Simulator(seed=0).clock, 32)
        start = time.perf_counter()
        for index in range(n):
            slot = index & 31
            scoreboard.mark_busy(slot)
            scoreboard.mark_idle(slot)
        return time.perf_counter() - start

    return run


# ----------------------------------------------------------------------
# workload
# ----------------------------------------------------------------------
@bench("workload.poisson_gen_ns_per_query")
def _poisson_gen() -> Bench:
    def run(n: int) -> float:
        workload = PoissonWorkload.from_load_factor(
            rho=0.88,
            saturation_rate=240.0,
            num_queries=n,
            service_model=ExponentialServiceTime(0.1),
        )
        start = time.perf_counter()
        workload.generate(np.random.default_rng(0))
        return time.perf_counter() - start

    return run


@bench("workload.wikipedia_gen_ns_per_query")
def _wikipedia_gen() -> Bench:
    def run(n: int) -> float:
        # About 65 requests per compressed second at the default rates.
        config = WikipediaReplayConfig().compressed(duration=max(2.0, n / 65.0))
        start = time.perf_counter()
        trace = make_wikipedia_trace(config)
        return (time.perf_counter() - start) * n / max(1, len(trace))

    return run


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def _outcomes(count: int) -> List[RequestOutcome]:
    return [
        RequestOutcome(
            request_id=index,
            kind="wiki" if index % 3 else "static",
            url="",
            sent_at=index * 0.01,
            established_at=index * 0.01 + 0.001,
            completed_at=index * 0.01 + 0.1 + (index % 97) * 1e-3,
        )
        for index in range(count)
    ]


def _filled_collector(count: int) -> ResponseTimeCollector:
    collector = ResponseTimeCollector("bench")
    for outcome in _outcomes(count):
        collector.record(outcome)
    return collector


@bench("metrics.record_ns")
def _record() -> Bench:
    outcomes = _outcomes(CHUNK)

    def run(n: int) -> float:
        collector = ResponseTimeCollector("bench")
        start = time.perf_counter()
        for size in _chunks(n):
            for outcome in outcomes[:size]:
                collector.record(outcome)
        return time.perf_counter() - start

    return run


@bench("metrics.summary_ns_per_outcome")
def _summary() -> Bench:
    def run(n: int) -> float:
        collector = _filled_collector(n)
        start = time.perf_counter()
        collector.summary()
        return time.perf_counter() - start

    return run


@bench("metrics.payload_roundtrip_ns_per_outcome")
def _payload_roundtrip() -> Bench:
    def run(n: int) -> float:
        collector = _filled_collector(n)
        start = time.perf_counter()
        blob = ForkingPickler.dumps(collector.export_payload())
        ResponseTimeCollector.from_payload(ForkingPickler.loads(blob))
        return time.perf_counter() - start

    return run


# ----------------------------------------------------------------------
# telemetry
# ----------------------------------------------------------------------
@bench("telemetry.probe_sample_ns")
def _probe_sample() -> Bench:
    def run(n: int) -> float:
        testbed = build_testbed(TestbedConfig(), sr_policy(4))
        probe = attach_telemetry(testbed)
        clock = testbed.simulator.clock
        start = time.perf_counter()
        for index in range(1, n + 1):
            # The anomaly detectors need strictly increasing sample times.
            clock.advance(index * probe.interval)
            probe.sample()
        return time.perf_counter() - start

    return run


@bench("telemetry.ring_append_ns")
def _ring_append() -> Bench:
    def run(n: int) -> float:
        ring = RingBuffer(2048)
        start = time.perf_counter()
        for index in range(n):
            ring.append(index * 0.25, 1.0)
        return time.perf_counter() - start

    return run


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------
def calibrate(run: Bench, min_seconds: float) -> Tuple[int, float]:
    """Grow ``n`` until one loop lasts ``min_seconds``; ``(n, its seconds)``."""
    n = 200
    elapsed = run(n)
    while elapsed < min_seconds and n < 50_000_000:
        grow = min(10.0, max(1.5, 1.2 * min_seconds / max(elapsed, 1e-9)))
        n = int(n * grow)
        elapsed = run(n)
    return n, elapsed


def run_all(min_seconds: float, repeats: int) -> Dict[str, Dict[str, float]]:
    """Every registered microbenchmark: median ns per operation, by metric name.

    The repeats are rounds over all benchmarks, not back-to-back loops of
    one: a slow spell of the host then costs each benchmark one sample
    instead of costing one benchmark all of them.
    """
    runs = {name: factory() for name, factory in BENCHES.items()}
    sizes: Dict[str, int] = {}
    samples: Dict[str, List[float]] = {}
    for name, run in runs.items():
        sizes[name], elapsed = calibrate(run, min_seconds)
        samples[name] = [elapsed / sizes[name] * 1e9]
    for _ in range(repeats - 1):
        for name, run in runs.items():
            samples[name].append(run(sizes[name]) / sizes[name] * 1e9)
    return {
        name: {
            "value": statistics.median(values),
            "min": min(values),
            "max": max(values),
            "n": len(values),
            "ops": sizes[name],
        }
        for name, values in samples.items()
    }


if __name__ == "__main__":
    import json
    import sys

    seconds, count = float(sys.argv[1]), int(sys.argv[2])
    print(json.dumps(run_all(seconds, count)))
