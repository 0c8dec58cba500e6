"""Spans, counters and profile buckets -- all installed from outside ``src/``.

The traced run calls the same ``repro.cli.main(argv)`` as the timed run,
after :meth:`Tracer.install` has wrapped the public callables of the
``ScenarioSpec`` pipeline (``make_trace`` -> ``build_testbed`` ->
``Testbed.run_trace`` / ``Simulator.run`` -> ``run_once`` -> ``aggregate``
-> the renderers) with timing spans.  A span records name, phase, start,
end and the span that was open when it started; a phase's time is the sum
of its spans' *self* times (duration minus the children), so nested spans
never count twice and the phases add up to the wall.

Counts are read from the repository's own ``snapshot()`` APIs and stats
objects when each cell's ``run_once`` returns; a speed-only change leaves
every one of them identical.

The traced run is serial (``--jobs 1`` / ``--partitions 1``): spans of
one process add up, spans of two overlapping processes do not.  What the
multi-process run adds -- shipping payloads between processes -- is
measured here by pickling each payload the way ``multiprocessing`` does
(:class:`~multiprocessing.reduction.ForkingPickler`).
"""

from __future__ import annotations

import functools
import sys
import time
from multiprocessing.reduction import ForkingPickler
from typing import Any, Callable, Dict, List, Optional

#: The phase each span name belongs to (per-layer metric name).
PHASES = (
    "cli.parse_s",
    "workload.trace_gen_s",
    "experiments.build_testbed_s",
    "experiments.replay_s",
    "experiments.export_s",
    "experiments.transport_s",
    "experiments.aggregate_s",
    "experiments.render_s",
)

#: Packages a profile's self time is bucketed into; ``experiments`` takes
#: ``repro.cli`` and the package's top-level modules too, ``other`` is
#: everything outside ``repro`` (builtins, stdlib, numpy).
PROFILE_BUCKETS = (
    "sim", "net", "server", "core", "workload", "metrics",
    "telemetry", "control", "experiments", "other",
)  # fmt: skip


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self, transport: Optional[str] = None) -> None:
        #: ``pool`` / ``partition`` / ``None``: which payloads the real
        #: (multi-process) argv of this workload ships between processes.
        self.transport = transport
        self.spans: List[Dict[str, Any]] = []
        self._open: List[int] = []
        self.transport_bytes = 0
        #: Seconds spent reading counters inside the traced wall.
        self.bookkeeping_s = 0.0
        self.cells: List[Dict[str, Any]] = []
        self._testbeds: List[Any] = []
        self._trace_queries = 0
        self.partition_busy_s = 0.0
        self.partition_wall_s = 0.0

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def span(self, name: str, phase: str, func: Callable, after=None, before=None):
        """``func`` wrapped in a span; ``before(args)``/``after(result, args)`` hooks."""

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            index = len(self.spans)
            record = {
                "name": name,
                "phase": phase,
                "parent": self._open[-1] if self._open else None,
                "start": time.perf_counter(),
                "end": None,
            }
            self.spans.append(record)
            self._open.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                record["end"] = time.perf_counter()
                self._open.pop()
            if after is not None:
                replaced = after(result, args)
                if replaced is not None:
                    result = replaced
            return result

        return wrapper

    def _timed(self, name: str, phase: str, body: Callable[[], Any]) -> Any:
        return self.span(name, phase, body)()

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def _patch_function(self, original: Callable, wrapper: Callable) -> None:
        """Rebind every ``repro`` module global that is ``original``."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    def _patch_method(self, cls: type, attr: str, name: str, phase: str, **hooks) -> None:
        setattr(cls, attr, self.span(name, phase, getattr(cls, attr), **hooks))

    def install(self) -> None:
        """Wrap the pipeline's public callables (call after importing ``repro.cli``)."""
        import repro.cli as cli
        from repro.experiments import figures, platform, registry, scale_experiment
        from repro.experiments import wikipedia_experiment
        from repro.metrics import reporting
        from repro.sim import engine, partition
        from repro.telemetry import render as telemetry_render

        # cli.parse: building the parser and parsing argv.
        build_parser = cli.build_parser

        def traced_build_parser():
            parser = self._timed("cli.build_parser", "cli.parse_s", build_parser)
            parser.parse_args = self.span(
                "cli.parse_args", "cli.parse_s", parser.parse_args
            )
            return parser

        cli.build_parser = traced_build_parser

        # workload.trace_gen: the two generators called outside ``make_trace``.
        self._patch_function(
            wikipedia_experiment.make_wikipedia_trace,
            self.span(
                "make_wikipedia_trace",
                "workload.trace_gen_s",
                wikipedia_experiment.make_wikipedia_trace,
            ),
        )
        self._patch_function(
            scale_experiment.make_pod_trace,
            self.span(
                "make_pod_trace",
                "workload.trace_gen_s",
                scale_experiment.make_pod_trace,
                after=self._count_pod_trace,
            ),
        )

        # experiments.build_testbed
        self._patch_function(
            platform.build_testbed,
            self.span(
                "build_testbed",
                "experiments.build_testbed_s",
                platform.build_testbed,
                after=lambda testbed, args: self._testbeds.append(testbed),
            ),
        )

        # experiments.replay: run_trace for the framework families,
        # Simulator.run for the windows the scale pods drive themselves.
        self._patch_method(
            platform.Testbed,
            "run_trace",
            "Testbed.run_trace",
            "experiments.replay_s",
            before=self._count_trace,
        )
        self._patch_method(engine.Simulator, "run", "Simulator.run", "experiments.replay_s")

        # The spec pipeline itself.
        for spec in registry.specs():
            cls = type(spec)
            self._patch_method(cls, "make_trace", f"{spec.name}.make_trace", "workload.trace_gen_s")
            self._patch_method(
                cls, "run_once", f"{spec.name}.run_once", "experiments.export_s",
                after=self._after_run_once,
            )  # fmt: skip
            self._patch_method(
                cls, "aggregate", f"{spec.name}.aggregate", "experiments.aggregate_s",
                after=self._after_aggregate,
            )  # fmt: skip
            self._patch_method(cls, "render", f"{spec.name}.render", "experiments.render_s")

        # experiments.transport (partitioned families): the frames a pod
        # would have sent over its pipe.
        if self.transport == "partition":
            self._patch_function(
                partition.run_partition_serially,
                self.span(
                    "run_partition_serially",
                    "experiments.replay_s",
                    partition.run_partition_serially,
                    after=lambda frames, args: [self._ship(frame) for frame in frames],
                ),
            )

        # experiments.render: every table and figure the CLI prints.
        renderers = [reporting.format_table, telemetry_render.render_summary]
        renderers += [
            value
            for attr, value in vars(figures).items()
            if attr.startswith("render_") and callable(value)
        ]
        for function in renderers:
            self._patch_function(
                function, self.span(function.__name__, "experiments.render_s", function)
            )
        # The CLI's wikipedia and poisson handlers compute their summary
        # lines between the tables.
        from repro.experiments.wikipedia_experiment import WikipediaRunResult
        from repro.metrics.collector import ResponseTimeCollector

        self._patch_method(
            WikipediaRunResult, "wiki_quartiles", "wiki_quartiles", "experiments.render_s"
        )
        self._patch_method(
            ResponseTimeCollector, "summary", "collector.summary", "experiments.render_s"
        )

    # ------------------------------------------------------------------
    # hooks
    # ------------------------------------------------------------------
    def _count_trace(self, args) -> None:
        self._trace_queries += len(args[1])

    def _count_pod_trace(self, result, args) -> None:
        self._trace_queries += len(result[0])

    def _ship(self, payload: Any) -> Any:
        """Pickle round trip, as a pool or pipe would do it."""

        def body():
            blob = ForkingPickler.dumps(payload)
            self.transport_bytes += len(blob)
            return ForkingPickler.loads(blob)

        return self._timed("pickle-roundtrip", "experiments.transport_s", body)

    def _after_run_once(self, payload, args):
        started = time.perf_counter()
        cell = args[2]
        counters = collect_counters(self._testbeds)
        counters["workload.trace_queries"] = self._trace_queries
        self.cells.append({"key": str(cell.key), "counters": counters})
        self._testbeds = []
        self._trace_queries = 0
        self.bookkeeping_s += time.perf_counter() - started
        if self.transport == "pool":
            return self._ship(payload)
        return None

    def _after_aggregate(self, result, args) -> None:
        run = getattr(result, "run", None)
        if hasattr(run, "busy_seconds"):  # ScaleRunResult
            self.partition_busy_s = run.busy_seconds
            self.partition_wall_s = run.wall_seconds

    # ------------------------------------------------------------------
    # report
    # ------------------------------------------------------------------
    def phase_seconds(self) -> Dict[str, float]:
        """Self time of every span, summed by phase."""
        children = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                children[span["parent"]] += span["end"] - span["start"]
        totals = {phase: 0.0 for phase in PHASES}
        for span, covered in zip(self.spans, children):
            totals[span["phase"]] += span["end"] - span["start"] - covered
        return totals

    def report(self, wall_s: float) -> Dict[str, Any]:
        phases = self.phase_seconds()
        totals: Dict[str, float] = {}
        for cell in self.cells:
            for name, value in cell["counters"].items():
                totals[name] = totals.get(name, 0) + value
        return {
            "wall_s": wall_s,
            "bookkeeping_s": self.bookkeeping_s,
            "phases": phases,
            "unattributed_s": wall_s - self.bookkeeping_s - sum(phases.values()),
            "transport_bytes": self.transport_bytes,
            "cells": self.cells,
            "counters": totals,
            "partition_busy_s": self.partition_busy_s,
            "partition_wall_s": self.partition_wall_s,
            "spans": len(self.spans),
        }


def collect_counters(testbeds: List[Any]) -> Dict[str, float]:
    """Exact-repeat counts of one cell, summed over its testbeds.

    Read-only: every value comes from a public stats object or
    ``snapshot()``; nothing here draws randomness or touches the heap.
    """
    counts: Dict[str, float] = {
        name: 0
        for name in (
            "sim.events", "sim.batches", "sim.simulated_s",
            "net.packets_delivered", "net.packets_dropped", "net.fault_drops",
            "net.fault_delays", "net.ecmp_packets",
            "core.syn_dispatched", "core.steering_packets", "core.steering_misses",
            "core.offers", "core.optional_accepts", "core.optional_refusals",
            "server.connections_received", "server.connections_reset",
            "server.connections_shed", "server.requests_served",
            "workload.client_retransmits", "workload.client_gave_up",
            "metrics.outcomes_recorded", "metrics.failed_outcomes",
            "telemetry.samples", "telemetry.series", "telemetry.payload_bytes",
        )
    }  # fmt: skip
    for testbed in testbeds:
        simulator = testbed.simulator
        counts["sim.events"] += simulator.events_executed
        counts["sim.batches"] += simulator.batch_stats.batches
        counts["sim.simulated_s"] += simulator.now

        fabric = testbed.fabric.stats.snapshot()
        counts["net.packets_delivered"] += fabric["packets_delivered"]
        counts["net.packets_dropped"] += fabric["packets_dropped"]
        if testbed.fault_pipeline is not None:
            faults = testbed.fault_pipeline.stats.snapshot()
            counts["net.fault_drops"] += faults["packets_dropped"]
            counts["net.fault_delays"] += (
                faults["packets_delayed_jitter"] + faults["packets_reordered"]
            )
        if testbed.lb_tier is not None:
            edge = testbed.lb_tier.router.stats.snapshot()
            counts["net.ecmp_packets"] += edge["forward_packets"] + edge["return_packets"]

        for balancer in testbed.load_balancers():
            stats = balancer.stats.snapshot()
            counts["core.syn_dispatched"] += stats["syn_dispatched"]
            counts["core.steering_packets"] += stats["steering_packets"]
            counts["core.steering_misses"] += stats["steering_misses"]
        for server in testbed.servers:
            hunting = server.hunting.stats
            counts["core.offers"] += hunting.offers_received
            counts["core.optional_accepts"] += hunting.accepted_by_choice
            counts["core.optional_refusals"] += hunting.refused
            app = server.app.stats.snapshot()
            counts["server.connections_received"] += app["connections_received"]
            counts["server.connections_reset"] += app["connections_reset"]
            counts["server.connections_shed"] += app["connections_shed"]
            counts["server.requests_served"] += app["requests_served"]

        client = testbed.client
        counts["workload.client_retransmits"] += client.syn_retransmits
        counts["workload.client_gave_up"] += client.queries_gave_up
        totals = testbed.collector.totals
        counts["metrics.outcomes_recorded"] += totals.completed
        counts["metrics.failed_outcomes"] += totals.failed

        probe = testbed.telemetry
        if probe is not None:
            counts["telemetry.samples"] += probe.samples_taken
            counts["telemetry.series"] += len(probe.bus)
            counts["telemetry.payload_bytes"] += len(
                ForkingPickler.dumps(probe.export_payload())
            )
    return counts


def bucket_profile(profiler) -> Dict[str, float]:
    """Self seconds of a ``cProfile`` pass, by ``repro`` package."""
    import pstats

    buckets = {name: 0.0 for name in PROFILE_BUCKETS}
    marker = "/src/repro/"
    for (filename, _line, _name), row in pstats.Stats(profiler).stats.items():
        self_seconds = row[2]
        position = filename.rfind(marker)
        bucket = "other"
        if position >= 0:
            package = filename[position + len(marker) :].split("/", 1)[0]
            # Top-level modules (cli.py, errors.py) and repro.analysis,
            # which only the calibration helper calls, go to experiments.
            bucket = package if package in buckets else "experiments"
        buckets[bucket] += self_seconds
    return buckets
