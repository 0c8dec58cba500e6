"""The telemetry probe: periodic in-sim sampling of a whole testbed.

``attach_telemetry`` hangs one :class:`TelemetryProbe` off a testbed
(:func:`repro.experiments.platform.build_testbed` does this whenever
:func:`repro.telemetry.runtime.telemetry_enabled` is true).  The probe
owns the run's :class:`~repro.telemetry.bus.TelemetryBus`, its
:class:`~repro.telemetry.recorder.FlightRecorder`, and an
:class:`~repro.telemetry.anomaly.AnomalyMonitor`, and drives one
periodic sim task that snapshots every tier through the uniform
``snapshot()`` counter API:

* edge router — ECMP forward/return totals and the next-hop spread;
* LB tier — SYN dispatch, Service Hunting acceptances, steering misses;
* server tier — fleet busy fraction, backlog depth, served/reset/shed;
* fabric and fault plane — per-reason drop/delay counters;
* client — SYN retransmissions, retries, give-ups.

The sampling callback only *reads* simulation state and draws no
randomness, so an attached probe never changes run outcomes — the
scenario goldens are re-checked with telemetry enabled in CI to pin
exactly this.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.sim.engine import PeriodicTask
from repro.telemetry import runtime
from repro.telemetry.anomaly import AnomalyMonitor
from repro.telemetry.bus import TelemetryBus, TelemetryPayload
from repro.telemetry.recorder import FlightRecorder
from repro.telemetry.sources import TelemetryFleetMonitor, WatchdogTelemetryFeed

#: Series the anomaly monitor watches by default.
DEFAULT_WATCHED = ("server.busy_fraction", "server.backlog_depth")


class TelemetryProbe:
    """One testbed's streaming telemetry: bus + recorder + detectors."""

    def __init__(
        self,
        testbed: Any,
        interval: float = runtime.DEFAULT_INTERVAL,
        capacity: Optional[int] = None,
    ) -> None:
        self.testbed = testbed
        #: The run label the payload publishes under (the collector's name).
        self.run_name = getattr(testbed.collector, "name", "run") or "run"
        self.interval = interval
        self.bus = TelemetryBus(**({"capacity": capacity} if capacity else {}))
        self.recorder = FlightRecorder()
        self.anomalies = AnomalyMonitor()
        for series in DEFAULT_WATCHED:
            self.anomalies.watch(series)
        self._fault_pipeline: Any = None
        self.samples_taken = 0
        self._task = PeriodicTask(
            simulator=testbed.simulator,
            interval=interval,
            callback=self.sample,
            label="telemetry-sampler",
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin periodic sampling (first sample at the current time)."""
        self._task.start(first_delay=0.0)

    def stop(self) -> None:
        """Take one final sample and stop the sampling task."""
        if self._task.active:
            self.sample()
            self._task.stop()

    def close(self) -> None:
        """Stop sampling and let go of the testbed (the run is over).

        The testbed holds its probe, so the probe must not hold the
        testbed back once the run is done; the bus, the recorder and
        :meth:`export_payload` stay usable.
        """
        self.stop()
        self.testbed = None

    @property
    def active(self) -> bool:
        """Whether the sampling task is ticking."""
        return self._task.active

    def watch_faults(self, pipeline: Any) -> None:
        """Start sampling a fault pipeline's per-reason counters."""
        self._fault_pipeline = pipeline

    # ------------------------------------------------------------------
    # control-plane sources
    # ------------------------------------------------------------------
    def watchdog_feed(self) -> WatchdogTelemetryFeed:
        """A gray-failure-watchdog busy source routed through the bus."""
        return WatchdogTelemetryFeed(self.bus, recorder=self.recorder)

    def fleet_monitor(self, time_constant: float = 5.0) -> TelemetryFleetMonitor:
        """A bus-mirroring fleet monitor for the autoscaler."""
        return TelemetryFleetMonitor(self.bus, time_constant=time_constant)

    # ------------------------------------------------------------------
    # the sampling tick
    # ------------------------------------------------------------------
    def sample(self) -> None:
        """Snapshot every tier onto the bus (read-only, no RNG)."""
        testbed = self.testbed
        now = testbed.simulator.now
        bus = self.bus
        self.samples_taken += 1

        # Edge router (tier deployments only): ECMP totals and spread.
        tier = testbed.lb_tier
        if tier is not None:
            edge = tier.router.stats.snapshot()
            for name, value in edge.items():
                bus.record(f"edge.{name}", now, value, kind="counter", tier="edge")
            shares = tier.router.stats.per_next_hop
            total = sum(shares.values())
            spread = max(shares.values()) / total if total else 0.0
            bus.record("edge.spread", now, spread, tier="edge")

        # LB tier: summed instance counters through the uniform API.
        lb_totals: Dict[str, float] = {}
        for instance in testbed.load_balancers():
            for name, value in instance.stats.snapshot().items():
                lb_totals[name] = lb_totals.get(name, 0) + value
        for name, value in lb_totals.items():
            bus.record(f"lb.{name}", now, value, kind="counter", tier="lb")

        # Server tier: busy fraction and backlog as gauges, the HTTP
        # counters as cumulative totals.
        busy = 0
        slots = 0
        backlog = 0
        http_totals: Dict[str, float] = {}
        for server in testbed.servers:
            board = server.app.scoreboard.snapshot()
            busy += board["busy"]
            slots += board["slots"]
            backlog += server.app.backlog.depth
            for name, value in server.app.stats.snapshot().items():
                http_totals[name] = http_totals.get(name, 0) + value
        bus.record(
            "server.busy_fraction", now, busy / slots if slots else 0.0,
            tier="server",
        )
        bus.record("server.backlog_depth", now, float(backlog), tier="server")
        for name, value in http_totals.items():
            bus.record(
                f"server.{name}", now, value, kind="counter", tier="server"
            )

        # Fabric and (when installed) the fault plane: drop reasons.
        for name, value in testbed.fabric.stats.snapshot().items():
            bus.record(f"fabric.{name}", now, value, kind="counter", tier="net")
        if self._fault_pipeline is not None:
            for name, value in self._fault_pipeline.stats.snapshot().items():
                bus.record(f"fault.{name}", now, value, kind="counter", tier="net")

        # Client: retransmission and retry pressure.
        client = testbed.client
        bus.record(
            "client.syn_retransmits", now, client.syn_retransmits,
            kind="counter", tier="client",
        )
        bus.record(
            "client.queries_retried", now, client.queries_retried,
            kind="counter", tier="client",
        )
        bus.record(
            "client.queries_gave_up", now, client.queries_gave_up,
            kind="counter", tier="client",
        )

        # Anomaly detection over the watched gauges.
        for series in self.anomalies.watched():
            if series in bus:
                event = self.anomalies.observe(series, now, bus.series(series).latest)
                if event is not None:
                    self.recorder.record(
                        now, "anomaly", f"{event.kind}:{event.series}", event.value
                    )

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def export_payload(self) -> TelemetryPayload:
        """The run's merged telemetry, picklable."""
        return self.bus.export_payload(
            anomalies=tuple(self.anomalies.events),
            meta={
                "run": self.run_name,
                "interval": self.interval,
                "samples": self.samples_taken,
                "flight_dumps": [dump.to_json_dict() for dump in self.recorder.dumps],
                "flight_events": self.recorder.events_recorded,
            },
        )

    def publish(self) -> None:
        """Stop sampling and deposit the payload for the scenario driver."""
        self.stop()
        runtime.publish(self.run_name, self.export_payload())

    def __repr__(self) -> str:
        return (
            f"TelemetryProbe(interval={self.interval:g}, "
            f"series={len(self.bus)}, samples={self.samples_taken})"
        )


def attach_telemetry(testbed: Any) -> TelemetryProbe:
    """Create, start and register a probe on ``testbed``.

    Also points the traffic generator's ``flight_recorder`` at the
    probe's recorder so client retransmission/give-up events feed the
    black box.  Interval and capacity come from the runtime's environment
    knobs so every ``jobs`` worker samples identically.
    """
    probe = TelemetryProbe(
        testbed,
        interval=runtime.sampling_interval(),
        capacity=runtime.ring_capacity(),
    )
    testbed.telemetry = probe
    testbed.client.flight_recorder = probe.recorder
    probe.start()
    return probe
