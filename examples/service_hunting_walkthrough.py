#!/usr/bin/env python3
"""Packet-level walkthrough of Service Hunting (the paper's Figure 1).

This example builds the paper's testbed, attaches a packet tap to the
fabric, sends a single query, and prints every packet with its Segment
Routing header — the SYN carrying the candidate list, the refusal or
acceptance at each candidate, the SYN-ACK routed through the load
balancer (which installs the steering state), the steered HTTP request
and the direct response.

To make the refusal path visible, the first candidate is artificially
pre-loaded so that its SR4 policy refuses the new connection.

Run with::

    python examples/service_hunting_walkthrough.py
"""

from __future__ import annotations

from repro.experiments import TestbedConfig, build_testbed, sr_policy
from repro.net import classify_segment, describe
from repro.workload import Request, Trace


def main() -> None:
    testbed_config = TestbedConfig(num_servers=3, workers_per_server=8)
    testbed = build_testbed(testbed_config, sr_policy(4))

    # Pre-load every server's worker pool beyond the SR4 threshold except
    # one, so the walkthrough shows at least one refusal before the final
    # (forced) acceptance.
    for server in testbed.servers[:-1]:
        for _ in range(4):
            slot = server.app.workers.acquire()
            assert slot is not None

    print("Nodes:")
    print(f"  client        : {describe(testbed.client.primary_address)}")
    print(f"  load balancer : {describe(testbed.load_balancer.primary_address)}")
    print(f"  VIP           : {describe(testbed.vip)}")
    for server in testbed.servers:
        print(f"  {server.name:13s} : {describe(server.primary_address)}")
    print()

    step = 0

    def tap(packet, origin, destination):
        nonlocal step
        step += 1
        kind = classify_segment(packet.tcp.flags).upper()
        srh_text = ""
        if packet.srh is not None:
            path = " -> ".join(str(segment) for segment in packet.srh.traversal_order())
            srh_text = f"  SRH[{path}], SegmentsLeft={packet.srh.segments_left}"
        print(
            f"{step:2d}. t={testbed.simulator.now * 1000:7.3f} ms  "
            f"{kind:8s} {origin:10s} -> {destination:10s}{srh_text}"
        )

    testbed.fabric.add_tap(tap)

    query = Request(request_id=1, arrival_time=0.0, service_demand=0.05, kind="php")
    print("Packet exchange for one query:")
    testbed.run_trace(Trace([query]))

    print()
    outcome = testbed.collector.outcomes()[0]
    print(f"response time observed by the client: {outcome.response_time * 1000:.2f} ms")
    for server in testbed.servers:
        stats = server.hunting.stats
        print(
            f"{server.name}: offers={stats.offers_received}, "
            f"accepted by choice={stats.accepted_by_choice}, "
            f"forced={stats.accepted_forced}, refused={stats.refused}"
        )


if __name__ == "__main__":
    main()
