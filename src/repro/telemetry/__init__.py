"""Streaming telemetry plane: in-sim counters, flight recorder, anomaly
detection, and run dashboards.

See docs/architecture.md ("Telemetry plane") for the cast:

* :mod:`repro.telemetry.bus` — named per-tier series in fixed-size ring
  buffers, with the picklable :class:`TelemetryPayload` export;
* :mod:`repro.telemetry.recorder` — the bounded flight recorder that
  dumps the last N simulated seconds on a watchdog quarantine;
* :mod:`repro.telemetry.anomaly` — EWMA-residual detectors emitting
  typed :class:`AnomalyEvent` objects;
* :mod:`repro.telemetry.probe` — the periodic sampling task wired onto
  a testbed whose :class:`~repro.experiments.config.TestbedConfig` sets
  ``telemetry``, stopped at the run's horizon; its payload comes home in
  the run's result (``RunResult.telemetry``);
* :mod:`repro.telemetry.render` — terminal sparklines and the
  self-contained HTML dashboard.

Telemetry is strictly opt-in and purely observational: with it off, a
run imports nothing from this package; with it on, sampling draws no
randomness and the goldens still hold (re-checked in CI by
``make telemetry-smoke``, which runs them with every testbed's
``telemetry`` set).
"""
