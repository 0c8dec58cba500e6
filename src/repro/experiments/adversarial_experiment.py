"""Adversarial traffic and gray failure against the SRLB tier.

Every other family replays cooperative traffic.  This one replays the
same legitimate Poisson workload while something hostile happens in a
window mid-run, one attack mode per cell:

* ``baseline`` — the workload unmolested, for comparison;
* ``syn-flood`` — a spoofed-source SYN flood aimed at the VIP.  The
  fabric drops replies to the spoofed (unbound) sources silently, so
  every attack connection stays half-open: workers are pinned until the
  server's request timeout fires, backlogs fill, and the flow tables of
  the LB tier bloat with entries that only idle housekeeping reclaims;
* ``hash-collision`` — the same flood volume, but every 5-tuple comes
  from an offline search against the data plane's own ECMP selector
  (:func:`repro.net.ecmp.select_next_hop_name`) so ≥ 90 % of the attack
  flows land on *one* tier instance, skewing it while its peers idle;
* ``gray-failure`` — no attack traffic at all: one server's CPU is
  degraded (with square-wave jitter) instead of killed.  A
  :class:`~repro.control.gray_failure.GrayFailureWatchdog` compares
  busy-thread counts against the fleet median and quarantines the
  victim through the real server lifecycle (graceful drain plus a
  replacement provision) — the control plane's answer to non-crash
  degradation.

The scenario reports, per mode, what the *legitimate* flows experienced
(completion rate, p99) next to the attack-side counters (SYNs sent,
bucket concentration, flow-table growth, timeouts, quarantine delay).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.control.gray_failure import GrayFailureInjector, GrayFailureWatchdog
from repro.control.lifecycle import ServerLifecycle
from repro.experiments import registry
from repro.experiments.calibration import (
    analytic_saturation_rate,
    legitimate_poisson_trace,
)
from repro.experiments.config import AdversarialConfig, TestbedConfig
from repro.experiments.platform import Testbed, build_testbed
from repro.experiments.scenario import (
    RunResult,
    ScenarioCell,
    ScenarioResult,
    ScenarioSpec,
)
from repro.metrics.reporting import format_table
from repro.net.addressing import CLIENT_PREFIX
from repro.workload.hostile import (
    SynFloodAttacker,
    find_colliding_flow_keys,
    spoofed_source_flows,
)
from repro.workload.trace import Trace

#: Attacker node address and the base offset of the spoofed source pool,
#: far above anything the client allocator hands out.
_ATTACKER_OFFSET = 9_999
_SPOOFED_BASE_OFFSET = 10_000

#: The attack window, as fractions of the legitimate trace's duration.
ATTACK_WINDOW = (0.25, 0.65)

#: Gray failure: amplitude of the victim's square-wave speed jitter.
JITTER_AMPLITUDE = 0.3

#: Busy-thread floor below which the watchdog never quarantines a
#: server; keeps a lightly loaded fleet (median ~1) from tripping the
#: detector on ordinary Poisson bursts.
WATCHDOG_MIN_BUSY = 5

#: Flow-table housekeeping period on every LB instance, seconds.
HOUSEKEEPING_INTERVAL = 1.0


def _attack_window(trace: Trace) -> Tuple[float, float]:
    """``(start, length)`` of the attack, in trace time."""
    start, end = ATTACK_WINDOW
    return trace.duration * start, trace.duration * (end - start)


def adversarial_rate(config: AdversarialConfig) -> float:
    """Legitimate arrival rate (queries/second) of the workload."""
    saturation = analytic_saturation_rate(config.testbed, config.service_mean)
    return config.load_factor * saturation


@dataclass
class AdversarialRunResult(RunResult):
    """One (attack mode, legitimate trace) run, with its attack-side data."""

    attack_syns_sent: int
    #: Fraction of attack flows the live edge router maps onto the
    #: targeted instance (``None`` outside ``hash-collision`` mode).
    attack_bucket_share: Optional[float]
    #: Seconds from degradation start to the watchdog's quarantine
    #: decision (``None`` when nothing was quarantined).
    quarantine_delay: Optional[float]
    quarantined: Tuple[str, ...]


def spoofed_sources(config: AdversarialConfig):
    """The deterministic spoofed source pool (unbound client addresses)."""
    return tuple(
        CLIENT_PREFIX.address_at(_SPOOFED_BASE_OFFSET + index)
        for index in range(config.flood_sources)
    )


def _attach_flood(
    testbed: Testbed,
    config: AdversarialConfig,
    mode: str,
    trace: Trace,
) -> SynFloodAttacker:
    """Build, attach and schedule the flood for ``syn-flood``/``hash-collision``."""
    tier = testbed.lb_tier
    assert tier is not None
    start, window = _attack_window(trace)
    rate = config.flood_rate_factor * adversarial_rate(config)
    num_syns = max(1, int(round(rate * window)))
    sources = spoofed_sources(config)
    if mode == "hash-collision":
        hop_names = [instance.name for instance in tier.instances]
        flows = find_colliding_flow_keys(
            hop_names,
            hop_names[config.collision_target],
            testbed.vip,
            sources,
            count=config.collision_flows,
            hash_scheme=config.testbed.ecmp_hash,
        )
        seed_salt = 202
    else:
        # Maximal spoofed-source churn: every SYN gets a fresh 5-tuple.
        flows = spoofed_source_flows(testbed.vip, sources, num_flows=num_syns)
        seed_salt = 101
    attacker = SynFloodAttacker(
        testbed.simulator,
        name="attacker",
        address=CLIENT_PREFIX.address_at(_ATTACKER_OFFSET),
        flows=flows,
    )
    attacker.attach(testbed.fabric)
    rng = np.random.default_rng([config.workload_seed, seed_salt])
    attacker.schedule_flood(rng, start_at=start, rate=rate, num_syns=num_syns)
    return attacker


def _attach_gray_failure(
    testbed: Testbed, config: AdversarialConfig, trace: Trace
) -> GrayFailureWatchdog:
    """Degrade the first server mid-run and arm the quarantine watchdog."""
    victim = testbed.servers[0]
    start, window = _attack_window(trace)
    injector = GrayFailureInjector(
        testbed.simulator,
        victim,
        degraded_factor=config.degraded_speed,
        start_at=start,
        duration=window,
        jitter_amplitude=JITTER_AMPLITUDE,
    )
    injector.start()

    # Quarantine drains the victim and provisions a replacement.
    lifecycle = ServerLifecycle(testbed)

    def drain_and_replace(server) -> None:
        lifecycle.drain(lifecycle.record_for(server.name))
        lifecycle.provision(speed=1.0)

    on_quarantine = drain_and_replace
    # Under telemetry, the watchdog samples busy counts through the bus
    # (the same integers at the same tick instant — decisions stay
    # bit-identical to the direct scoreboard reads, pinned by goldens),
    # and every quarantine freezes the flight recorder's recent window.
    sample_busy = None
    if testbed.telemetry is not None:
        probe = testbed.telemetry
        sample_busy = probe.watchdog_feed()

        def quarantine_and_dump(server) -> None:
            probe.recorder.trip(
                f"quarantine:{server.name}", testbed.simulator.now
            )
            drain_and_replace(server)

        on_quarantine = quarantine_and_dump

    watchdog = GrayFailureWatchdog(
        testbed.simulator,
        servers=lambda: testbed.servers,
        on_quarantine=on_quarantine,
        interval=config.watchdog_interval,
        min_busy=WATCHDOG_MIN_BUSY,
        consecutive=config.watchdog_consecutive,
        sample_busy=sample_busy,
    )
    watchdog.start()
    testbed.at_horizon(watchdog.stop)
    return watchdog


class AdversarialScenario(ScenarioSpec):
    """The adversarial-traffic comparison as a declarative scenario."""

    name = "adversarial"
    grid = "modes"

    def smoke_config(self) -> AdversarialConfig:
        return AdversarialConfig(
            testbed=TestbedConfig(
                num_servers=6,
                workers_per_server=8,
                cores_per_server=2,
                backlog_capacity=16,
                num_load_balancers=3,
                flow_idle_timeout=5.0,
                request_timeout=2.0,
            ),
            num_queries=500,
            flood_sources=8,
            collision_flows=96,
            # The smoke trace lasts only a few seconds, so detection must
            # fit inside a ~1.5 s attack window.
            watchdog_interval=0.2,
            watchdog_consecutive=2,
        )

    # trace_key: the default (one shared trace for every mode).

    def make_trace(self, config: AdversarialConfig, cell: ScenarioCell) -> Trace:
        return legitimate_poisson_trace(config)

    def run_once(
        self, config: AdversarialConfig, cell: ScenarioCell, trace: Trace
    ) -> AdversarialRunResult:
        """Replay the legitimate workload under one attack mode."""
        mode = cell.key
        with build_testbed(
            config.testbed, config.policy, run_name=f"adversarial-{mode}"
        ) as testbed:
            tier = testbed.lb_tier

            # Idle-flow housekeeping on every instance, so the flood's
            # flow-table entries are reclaimed in-run instead of
            # accumulating to the end.
            for instance in tier.instances:
                instance.start_housekeeping(HOUSEKEEPING_INTERVAL)

            def stop_housekeeping() -> None:
                for instance in tier.instances:
                    instance.stop_housekeeping()

            testbed.at_horizon(stop_housekeeping)

            attacker: Optional[SynFloodAttacker] = None
            watchdog: Optional[GrayFailureWatchdog] = None
            if mode in ("syn-flood", "hash-collision"):
                attacker = _attach_flood(testbed, config, mode, trace)
            elif mode == "gray-failure":
                watchdog = _attach_gray_failure(testbed, config, trace)

            duration = testbed.run_trace(trace)

        attack_bucket_share: Optional[float] = None
        if mode == "hash-collision" and attacker is not None:
            # Measured against the *live* edge router, not the offline
            # search: the selector the packets actually traversed.
            target = tier.instances[config.collision_target].name
            hits = sum(
                1
                for flow in attacker.flows
                if tier.router.next_hop_for(flow).name == target
            )
            attack_bucket_share = hits / len(attacker.flows)

        quarantine_delay: Optional[float] = None
        quarantined: Tuple[str, ...] = ()
        if watchdog is not None and watchdog.events:
            start, _ = _attack_window(trace)
            quarantine_delay = watchdog.events[0].time - start
            quarantined = watchdog.quarantined

        return AdversarialRunResult.of(
            testbed,
            duration,
            attack_syns_sent=attacker.syns_sent if attacker is not None else 0,
            attack_bucket_share=attack_bucket_share,
            quarantine_delay=quarantine_delay,
            quarantined=quarantined,
        )

    def render(self, result: ScenarioResult) -> str:
        return render_adversarial_table(result)


#: The registered spec instance (also reachable via ``registry.get``).
ADVERSARIAL_SCENARIO = registry.register(AdversarialScenario())


def render_adversarial_table(comparison: ScenarioResult) -> str:
    """Text table of the per-mode adversarial comparison."""
    config = comparison.config
    rows: List[List[object]] = []
    for mode in comparison.keys():
        run = comparison.run(mode)
        bucket = (
            f"{100 * run.attack_bucket_share:.1f}%"
            if run.attack_bucket_share is not None
            else "-"
        )
        quarantine = (
            f"{run.quarantine_delay:.2f}s"
            if run.quarantine_delay is not None
            else "-"
        )
        summary = run.collector.summary()
        rows.append(
            [
                mode,
                f"{100 * run.completion_rate(config.num_queries):.1f}%",
                # Swept (hung) queries are recorded as failed outcomes by
                # the end-of-run sweep, so the total already covers them.
                run.collector.totals.failed,
                summary.mean,
                summary.p99,
                run.attack_syns_sent,
                bucket,
                run.counters["server.connections_timed_out"],
                run.counters["flow.entries_created"],
                quarantine,
            ]
        )
    return format_table(
        [
            "mode",
            "legit done",
            "failed",
            "mean (s)",
            "p99 (s)",
            "atk SYNs",
            "bucket",
            "timeouts",
            "flows seen",
            "quarantine",
        ],
        rows,
        title=(
            f"Adversarial traffic: {config.testbed.num_load_balancers} LBs, "
            f"{config.testbed.num_servers} servers, rho={config.load_factor:g}, "
            f"attack window "
            f"[{ATTACK_WINDOW[0]:g}, {ATTACK_WINDOW[1]:g}] "
            f"of the trace"
        ),
    )
