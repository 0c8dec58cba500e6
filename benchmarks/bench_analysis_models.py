"""Ablation A4 — analytic models vs simulation, plus micro-benchmarks.

Two parts:

* a comparison of the mean-field model of RR and SR4
  (:func:`repro.analysis.queueing.sr_mean_field`) against the simulated
  mean response times past the warm-up across loads (the tier-1 oracle,
  ``tests/test_analysis_oracle.py``, pins the agreement at ρ ≤ 0.7);
* genuine micro-benchmarks (with statistical repetition) of the hot
  inner components: the event engine, the Maglev table and the Service
  Hunting decision path.  These are the pieces whose cost dominates a
  full experiment run.
"""

from __future__ import annotations

from benchmarks.conftest import (
    mean_field_response,
    run_once,
    scale_jobs,
    scale_queries,
    steady_mean_response,
    write_output,
)
from repro.core.agent import ApplicationAgent, StaticLoadView
from repro.core.consistent_hash import MaglevTable
from repro.core.policies import StaticThresholdPolicy
from repro.core.service_hunting import ServiceHuntingProcessor
from repro.experiments.config import PoissonSweepConfig, rr_policy, sr_policy
from repro.experiments.scenario import run_scenario
from repro.metrics.reporting import format_table
from repro.net.addressing import IPv6Address
from repro.net.packet import make_syn
from repro.net.srh import SegmentRoutingHeader
from repro.sim.engine import Simulator


def bench_analysis_mean_field_vs_simulation(benchmark):
    loads = (0.5, 0.7, 0.88)
    config = PoissonSweepConfig(
        load_factors=loads,
        num_queries=max(1_000, scale_queries() // 2),
        policies=(rr_policy(), sr_policy(4)),
    )

    def run_all():
        sweep = run_scenario("poisson", config, jobs=scale_jobs())
        return {
            load: tuple(steady_mean_response(sweep.run((name, load))) for name in ("RR", "SR4"))
            for load in loads
        }

    results = run_once(benchmark, run_all)

    rows = []
    for load, (rr_mean, sr_mean) in results.items():
        rr_model = mean_field_response(config, load, 0, 1)
        sr_model = mean_field_response(config, load, 4, 2)
        rows.append(
            [load, rr_mean, rr_model, sr_mean, sr_model, rr_mean / sr_mean, rr_model / sr_model]
        )
    table = format_table(
        [
            "rho",
            "RR mean (s)",
            "RR mean-field (s)",
            "SR4 mean (s)",
            "SR4 mean-field (s)",
            "simulated speed-up",
            "mean-field speed-up",
        ],
        rows,
        title="Ablation A4: simulated RR and SR4 vs the mean-field model",
    )
    write_output("analysis_mean_field_vs_simulation", table)

    # Shape check: like the mean-field model, the simulated improvement
    # grows with the load factor.
    speedups = [rr / sr for rr, sr in (results[load] for load in loads)]
    assert speedups[-1] > speedups[0]


# ----------------------------------------------------------------------
# micro-benchmarks (statistical, many rounds)
# ----------------------------------------------------------------------
def bench_micro_event_engine_throughput(benchmark):
    """Schedule-and-run throughput of the discrete-event engine."""

    def schedule_and_run():
        simulator = Simulator(seed=0)
        for index in range(10_000):
            simulator.schedule_at(index * 1e-4, lambda: None)
        simulator.run()
        return simulator.events_executed

    executed = benchmark(schedule_and_run)
    assert executed == 10_000


def bench_micro_maglev_build_and_lookup(benchmark):
    """Build a Maglev table for 12 backends and perform 10k lookups."""
    backends = [IPv6Address.parse(f"fd00:100::{index:x}") for index in range(1, 13)]

    def build_and_lookup():
        table = MaglevTable(backends, table_size=65_537)
        return sum(1 for index in range(10_000) if table.lookup_chain(f"flow-{index}", 1))

    hits = benchmark(build_and_lookup)
    assert hits == 10_000


def bench_micro_service_hunting_decision(benchmark):
    """Throughput of the per-packet Service Hunting decision."""
    vip = IPv6Address.parse("fd00:300::1")
    servers = [IPv6Address.parse("fd00:100::1"), IPv6Address.parse("fd00:100::2")]
    client = IPv6Address.parse("fd00:200::1")
    processor = ServiceHuntingProcessor(
        StaticThresholdPolicy(4), ApplicationAgent(StaticLoadView(busy=2, slots=32))
    )

    def decide_many():
        accepted = 0
        for index in range(5_000):
            packet = make_syn(client, vip, 20_000, 80, request_id=index)
            packet.attach_srh(SegmentRoutingHeader.from_traversal(servers + [vip]))
            processor.process(packet)
            accepted += 1
        return accepted

    assert benchmark(decide_many) == 5_000
