"""The telemetry probe: periodic in-sim sampling of a whole testbed.

``attach_telemetry`` hangs one :class:`TelemetryProbe` off a testbed
(:func:`repro.experiments.platform.build_testbed` does this when the
testbed's config sets ``telemetry``).  The probe stops at the run's
horizon, and the run's result carries its :meth:`~TelemetryProbe.export_payload`.
It owns the run's :class:`~repro.telemetry.bus.TelemetryBus`, its
:class:`~repro.telemetry.recorder.FlightRecorder`, and an
:class:`~repro.telemetry.anomaly.AnomalyMonitor`, and drives one
periodic sim task that records, each tick:

* every entry of :meth:`~repro.experiments.platform.Testbed.counters`,
  under its own ``<tier>.<counter>`` name (so the streamed series and
  the run's final counters share one vocabulary, and a series' tier is
  its name's prefix);
* three gauges the counters do not hold: the fleet's busy fraction
  (``server.busy_fraction``), its summed backlog depth
  (``server.backlog_depth``) and, in tier deployments, the ECMP edge's
  largest next-hop share (``edge.spread``).

The sampling callback only *reads* simulation state and draws no
randomness, so an attached probe never changes run outcomes — the
scenario goldens are re-checked with telemetry enabled in CI to pin
exactly this.
"""

from __future__ import annotations

from typing import Any

from repro.server.virtual_router import fleet_load
from repro.sim.engine import PeriodicTask
from repro.telemetry.anomaly import AnomalyMonitor
from repro.telemetry.bus import TelemetryBus, TelemetryPayload
from repro.telemetry.recorder import FlightRecorder

#: Simulated seconds between two samples.
SAMPLE_INTERVAL = 0.25

#: Series the anomaly monitor watches by default.
DEFAULT_WATCHED = ("server.busy_fraction", "server.backlog_depth")

#: The :meth:`Testbed.counters` entries that are levels, not running
#: totals: streamed as gauges.
LEVELS = frozenset({"flow.entries_live"})


class TelemetryProbe:
    """One testbed's streaming telemetry: bus + recorder + detectors."""

    def __init__(self, testbed: Any) -> None:
        self.testbed = testbed
        #: The run label of the payload's meta (the collector's name).
        self.run_name = getattr(testbed.collector, "name", "run") or "run"
        self.interval = SAMPLE_INTERVAL
        self.bus = TelemetryBus()
        self.recorder = FlightRecorder()
        self.anomalies = AnomalyMonitor()
        for series in DEFAULT_WATCHED:
            self.anomalies.watch(series)
        self.samples_taken = 0
        self._task = PeriodicTask(
            simulator=testbed.simulator,
            interval=SAMPLE_INTERVAL,
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

    # ------------------------------------------------------------------
    # the sampling tick
    # ------------------------------------------------------------------
    def sample(self) -> None:
        """Record the testbed's counters and gauges (read-only, no RNG)."""
        testbed = self.testbed
        now = testbed.simulator.now
        bus = self.bus
        self.samples_taken += 1

        for name, value in testbed.counters().items():
            bus.record(
                name, now, value, kind="gauge" if name in LEVELS else "counter"
            )

        busy, slots, backlog = fleet_load(testbed.servers)
        bus.record("server.busy_fraction", now, busy / slots if slots else 0.0)
        bus.record("server.backlog_depth", now, float(backlog))
        tier = testbed.lb_tier
        if tier is not None:
            shares = tier.router.stats.per_next_hop
            total = sum(shares.values())
            bus.record(
                "edge.spread", now, max(shares.values()) / total if total else 0.0
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

    def __repr__(self) -> str:
        return (
            f"TelemetryProbe(interval={self.interval:g}, "
            f"series={len(self.bus)}, samples={self.samples_taken})"
        )


def attach_telemetry(testbed: Any) -> TelemetryProbe:
    """Create, start and register a probe on ``testbed``.

    Also points the traffic generator's ``flight_recorder`` at the
    probe's recorder so client retransmission/give-up events feed the
    black box, and registers the probe's stop (a final sample) at the
    testbed's horizon.  Re-attaching replaces the previous probe; it is
    closed first, so its sampling task cannot keep rescheduling past the
    horizon and hold the run open.
    """
    if testbed.telemetry is not None:
        testbed.telemetry.close()
    probe = TelemetryProbe(testbed)
    testbed.telemetry = probe
    testbed.client.flight_recorder = probe.recorder
    testbed.at_horizon(probe.stop)
    probe.start()
    return probe
