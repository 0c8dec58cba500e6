"""The ``scale`` scenario: one partitioned run replaying millions of clients.

Every other family runs one testbed in one process, which caps a single
run at the engine's serial throughput.  This family models the next
tier up: a datacenter front end spreading one aggregate query stream
over ``pods`` identical load-balancer/server pods, with each pod an
independent simulator partition executed by :mod:`repro.sim.partition`.

**Slicing rule.**  The testbed is cut at the edge-router boundary.  The
front-end ECMP stage is modeled *offline* by the same pure hash the live
router uses (:func:`repro.net.ecmp.select_next_hop_name`): query ``i``
of the aggregate stream carries the modeled upstream source port
``EPHEMERAL_PORT_BASE + (i % EPHEMERAL_PORT_RANGE)``, and the 5-tuple
hash of that flow key assigns it to a pod.  Flows (ports) are pinned to
pods, exactly as a real per-flow ECMP stage would, and the assignment is
a pure function of the config — independent of how many processes
execute the run.  Inside a pod the replay uses the pod's own traffic
generator (with pod-local ephemeral ports), so no packet ever crosses a
partition: a pod is an independent run, and its whole output goes home
as one :class:`PodResult` — three outcome columns and a summary.

**Determinism.**  ``partitions`` (worker processes) never changes
results: pods, traces, and seeds depend only on the config, and the
coordinator merges the pods' columns into the one total order
``(time, pod, emission order)`` (:func:`merge_pods`).  The scale golden
test pins the fingerprint across ``partitions=1`` and ``partitions=2``.
"""

from __future__ import annotations

import hashlib
import time
from array import array
from dataclasses import dataclass
from functools import lru_cache
from math import nan
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import ExperimentError
from repro.experiments import registry
from repro.experiments.calibration import saturation_rate_for
from repro.experiments.config import ScaleConfig, TestbedConfig
from repro.experiments.platform import SETTLE_MARGIN, build_testbed
from repro.experiments.scenario import ScenarioCell, ScenarioSpec, TraceProvider
from repro.metrics.collector import ResponseTimeCollector
from repro.net.ecmp import HopScorer, five_tuple_key
from repro.net.packet import FlowKey
from repro.net.tcp import EPHEMERAL_PORT_BASE, EPHEMERAL_PORT_RANGE, HTTP_PORT
from repro.sim.partition import (
    PartitionTask,
    Tick,
    run_partitioned,
    run_to_horizon,
)
from repro.workload.requests import KIND_PHP
from repro.workload.trace import Trace

#: Synthetic endpoint addresses of the modeled upstream flow keys.  They
#: only feed the pure 5-tuple hash (never a live fabric), so plain
#: strings are sufficient and cheap.
_FRONTEND_CLIENT = "2001:db8:feed::1"
_FRONTEND_VIP = "2001:db8:100::80"

#: Rows per block :meth:`ScaleRunResult.fingerprint` hashes at a time.
_FINGERPRINT_ROWS = 4096


@lru_cache(maxsize=8)
def _pod_table_cached(
    pod_names: Tuple[str, ...], ecmp_hash: str, size: int
) -> np.ndarray:
    scorer = HopScorer(pod_names, ecmp_hash)
    # The scorer ranks hops in name order; translate to pod positions.
    pod_of_rank = [pod_names.index(name) for name in scorer.names]
    table = np.empty(size, dtype=np.int64)
    for offset in range(size):
        key = five_tuple_key(
            FlowKey(
                _FRONTEND_CLIENT,
                EPHEMERAL_PORT_BASE + offset,
                _FRONTEND_VIP,
                HTTP_PORT,
            )
        )
        table[offset] = pod_of_rank[scorer.index_for(key)]
    table.flags.writeable = False
    return table


def _pod_by_port_table(config: ScaleConfig) -> np.ndarray:
    """Pod assignment for every modeled port the stream uses.

    Only ``EPHEMERAL_PORT_RANGE`` distinct flow keys exist, so the
    per-query hash reduces to one table lookup — the difference between
    hashing 50k keys and hashing every query of a million-query run —
    and a stream shorter than the port range only hashes the ports it
    reaches.  The table depends only on the pod names, the hash scheme
    and that length, so it is memoized per process (every pod worker of
    a run shares it).
    """
    return _pod_table_cached(
        config.pod_names(),
        config.ecmp_hash,
        min(config.num_queries, EPHEMERAL_PORT_RANGE),
    )


@lru_cache(maxsize=2)
def make_scale_stream(
    config: ScaleConfig,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The aggregate query stream: ``(arrival times, demands, pod index)``.

    A pure function of the config (the RNG is seeded from the workload
    seed and the query count only), shared by every partition: each
    worker keeps only its pod's slice.  Memoized per process, so a
    worker running several pods generates the stream once; the arrays
    are read-only because every caller gets the same ones.
    """
    pod_rate = saturation_rate_for(
        config.saturation_rate, config.testbed, config.service_mean
    )
    rate = config.load_factor * config.pods * pod_rate
    rng = np.random.default_rng([config.workload_seed, config.num_queries])
    arrivals = np.cumsum(rng.exponential(1.0 / rate, size=config.num_queries))
    demands = rng.exponential(config.service_mean, size=config.num_queries)
    offsets = np.arange(config.num_queries, dtype=np.int64) % EPHEMERAL_PORT_RANGE
    pods = _pod_by_port_table(config)[offsets]
    for array in (arrivals, demands, pods):
        array.flags.writeable = False
    return arrivals, demands, pods


def make_pod_trace(config: ScaleConfig, pod_index: int) -> Tuple[Trace, float]:
    """One pod's slice of the stream, plus the *global* run horizon.

    Request ids and arrival times are the aggregate stream's, so the
    merged result reads as one deployment-wide run.  The horizon is the
    last aggregate arrival (not the pod's), so every pod replays the
    same span of simulated time.
    """
    if not 0 <= pod_index < config.pods:
        raise ExperimentError(
            f"pod index {pod_index!r} out of range for {config.pods} pods"
        )
    arrivals, demands, pods = make_scale_stream(config)
    rows = np.flatnonzero(pods == pod_index)
    trace = Trace.from_columns(
        rows + 1,
        arrivals[rows],
        demands[rows],
        np.zeros(rows.size, dtype=np.uint8),
        (KIND_PHP,),
        name=f"scale-pod-{pod_index}",
    )
    return trace, float(arrivals[-1]) + SETTLE_MARGIN


def _pod_seed(config: ScaleConfig, pod_index: int) -> int:
    """Per-pod simulator seed: distinct pods, deterministic config."""
    digest = hashlib.sha256(
        f"scale-pod:{config.testbed.seed}:{pod_index}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:4], "big")


@dataclass
class PodResult:
    """Everything one pod sends home: outcome columns plus its summary.

    One row per finished query, in the pod's emission order.  Columns,
    not objects: a pod's result pickles as three contiguous buffers
    (24 B per outcome) whatever the run length.
    """

    #: Simulator clock at which each outcome was recorded (``float64``).
    times: np.ndarray
    request_ids: np.ndarray
    #: Response time per outcome (``float64``); NaN marks a failed query.
    response_times: np.ndarray
    summary: Dict[str, Any]


class _ColumnCollector(ResponseTimeCollector):
    """Collector that also stamps every row with the simulator clock.

    Outcomes are recorded at their completion (or failure) event, so the
    clock column is non-decreasing: row order is emission order.
    """

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.simulator = None
        self.times = array("d")

    def record(self, outcome) -> None:
        super().record(outcome)
        self.times.append(self.simulator.now)


def simulate_pod(task: PartitionTask, tick: Tick) -> PodResult:
    """Run one pod end to end and return its columns.

    Module-level so :func:`repro.sim.partition.run_partitioned` can ship
    it to worker processes; the payload is ``(config, pod_index)``.
    """
    config, pod_index = task.payload
    trace, horizon = make_pod_trace(config, pod_index)
    collector = _ColumnCollector(name=f"pod-{pod_index}")
    with build_testbed(
        config.testbed.with_seed(_pod_seed(config, pod_index)),
        config.policy,
        collector=collector,
        run_name=f"pod-{pod_index}",
    ) as testbed:
        collector.simulator = testbed.simulator
        testbed.schedule_trace(trace)

        start = time.perf_counter()
        run_to_horizon(testbed.simulator, horizon, tick)
        # The telemetry probe's periodic sampler would keep the heap alive
        # forever — stop it (taking a final sample, at the horizon) before
        # the drain below.
        if testbed.telemetry is not None:
            testbed.telemetry.stop()
        # Stragglers past the horizon (idle-flow expiries, late timeouts).
        testbed.simulator.run()
        wall_seconds = time.perf_counter() - start

    totals = collector.totals
    summary = {
        "pod": pod_index,
        "queries": len(trace),
        "completed": totals.completed,
        "failed": totals.failed,
        "events_executed": testbed.simulator.events_executed,
        "simulated_seconds": testbed.simulator.now,
        "wall_seconds": wall_seconds,
    }
    if testbed.telemetry is not None:
        # The pod's payload rides home in the summary; the coordinator
        # merges pods in index order and publishes one deployment-wide
        # payload.
        summary["telemetry"] = testbed.telemetry.export_payload()
    table = collector.columns()
    return PodResult(
        times=np.array(collector.times, dtype=np.float64),
        request_ids=table.request_ids,
        response_times=np.where(table.succeeded, table.response_times, nan),
        summary=summary,
    )


def merge_pods(
    pods: Sequence[PodResult],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Merge per-pod columns into one deterministic outcome stream.

    ``pods[i]`` is pod ``i``'s result.  Returns ``(times, request ids,
    response times, pod indices)`` ordered by ``(time, pod, emission
    order within the pod)``: the pods' rows are concatenated in pod
    order, each pod's in emission order, so a stable sort on time alone
    breaks ties by pod and then by position.  Each column is gathered
    through that one order once.  A pure function of what the pods
    emitted — never of which process ran them or when their results
    arrived.
    """
    times = np.concatenate([pod.times for pod in pods])
    order = np.argsort(times, kind="stable")
    ends = np.cumsum([pod.times.size for pod in pods])
    return (
        times[order],
        np.concatenate([pod.request_ids for pod in pods])[order],
        np.concatenate([pod.response_times for pod in pods])[order],
        np.searchsorted(ends, order, side="right"),
    )


@dataclass
class ScaleRunResult:
    """The merged, deployment-wide outcome of one partitioned run."""

    partitions: int
    #: Completion/failure times of the merged outcome stream, in the
    #: deterministic merge order.
    times: np.ndarray
    request_ids: np.ndarray
    #: Response time per outcome; NaN marks a failed query.
    response_times: np.ndarray
    pod_indices: np.ndarray
    #: Per-pod worker summaries keyed by pod index.
    pod_summaries: Dict[int, Dict[str, Any]]
    #: Wall-clock seconds of the whole partitioned run (coordinator).
    wall_seconds: float

    @property
    def completed(self) -> int:
        return int(np.count_nonzero(~np.isnan(self.response_times)))

    @property
    def failed(self) -> int:
        return int(np.count_nonzero(np.isnan(self.response_times)))

    @property
    def events_executed(self) -> int:
        """Events executed across every partition simulator."""
        return int(
            sum(s.get("events_executed", 0) for s in self.pod_summaries.values())
        )

    @property
    def busy_seconds(self) -> float:
        """Summed per-partition replay wall-clock — the useful work.

        With N partitions on ≥N free cores this exceeds
        :attr:`wall_seconds` by roughly the parallel speedup (the
        ``busy_seconds / wall_seconds`` ratio is "cores of useful work").
        """
        return float(
            sum(s.get("wall_seconds", 0.0) for s in self.pod_summaries.values())
        )

    @property
    def events_per_sec(self) -> float:
        """Aggregate simulator throughput of the run."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.events_executed / self.wall_seconds

    def mean_and_p99(self) -> Tuple[float, float]:
        """Mean and 99th percentile of the successful response times."""
        ok = self.response_times[~np.isnan(self.response_times)]
        if not ok.size:
            return nan, nan
        return float(np.mean(ok)), float(np.percentile(ok, 99))

    def fingerprint(self) -> str:
        """SHA-256 over the merged outcome stream, bit-exact.

        Covers (time, request id, response time, pod) per outcome in the
        deterministic merge order, as rows of four ``float64``; NaN
        response times are canonicalised to ``-1`` so the digest is
        well-defined.  The rows are hashed in fixed blocks, so no
        whole-run matrix is built.  Identical for any ``partitions``
        value — the property the scale golden test and the
        ``scale-smoke`` CI job pin.
        """
        digest = hashlib.sha256()
        for start in range(0, self.times.size, _FINGERPRINT_ROWS):
            rows = slice(start, start + _FINGERPRINT_ROWS)
            responses = self.response_times[rows]
            block = np.empty((responses.size, 4), dtype=np.float64)
            block[:, 0] = self.times[rows]
            block[:, 1] = self.request_ids[rows]
            block[:, 2] = np.where(np.isnan(responses), -1.0, responses)
            block[:, 3] = self.pod_indices[rows]
            digest.update(block)
        return digest.hexdigest()


def run_scale(config: ScaleConfig, partitions: int = 1) -> ScaleRunResult:
    """Execute the partitioned run and merge it into one result.

    ``partitions`` is the number of *worker processes* executing the
    config's pods; it scales wall-clock on multi-core machines and is
    guaranteed not to change results.
    """
    if partitions < 1:
        raise ExperimentError(
            f"partitions must be positive, got {partitions!r}"
        )
    tasks = [
        PartitionTask(index=pod, payload=(config, pod))
        for pod in range(config.pods)
    ]
    start = time.perf_counter()
    pods = run_partitioned(simulate_pod, tasks, processes=partitions)
    wall_seconds = time.perf_counter() - start

    times, request_ids, response_times, pod_indices = merge_pods(pods)
    pod_summaries = {pod: result.summary for pod, result in enumerate(pods)}
    del pods  # merged: the per-pod columns need not outlive this line
    # Pods ship their telemetry payloads inside the summaries; pop them
    # out (the summaries stay plain numbers), merge in pod-index order —
    # deterministic for any ``partitions`` value — and publish one
    # deployment-wide payload for the scenario plumbing to collect.
    pod_payloads = [
        summary.pop("telemetry")
        for summary in pod_summaries.values()
        if "telemetry" in summary
    ]
    if pod_payloads:
        from repro.telemetry import runtime as telemetry_runtime
        from repro.telemetry.bus import TelemetryPayload

        telemetry_runtime.publish(
            "scale", TelemetryPayload.merge(pod_payloads)
        )

    return ScaleRunResult(
        partitions=partitions,
        times=times,
        request_ids=request_ids,
        response_times=response_times,
        pod_indices=pod_indices,
        pod_summaries=pod_summaries,
        wall_seconds=wall_seconds,
    )


@dataclass
class ScaleResult:
    """Aggregate of a ``scale`` scenario run (a single cell today)."""

    config: ScaleConfig
    run: ScaleRunResult


class ScaleScenario(ScenarioSpec):
    """The partitioned million-client replay as a scenario family."""

    name = "scale"

    def smoke_config(self) -> ScaleConfig:
        return ScaleConfig(
            testbed=TestbedConfig(
                num_servers=4, workers_per_server=8, backlog_capacity=16
            ),
            pods=4,
            num_queries=2_000,
        )

    def cells(self, config: ScaleConfig, partitions: int = 1) -> List[ScenarioCell]:
        return [ScenarioCell(key="scale", params={"partitions": partitions})]

    def make_trace(self, config: ScaleConfig, cell: ScenarioCell) -> Trace:
        # The aggregate stream is sharded *inside* the partition workers
        # (each regenerates its own slice); the framework-level trace is
        # intentionally empty.
        return Trace((), name="scale-frontend")

    def run_once(
        self, config: ScaleConfig, cell: ScenarioCell, trace: Trace
    ) -> ScaleRunResult:
        # The result is arrays and dicts: it is its own picklable payload.
        return run_scale(config, partitions=cell.param("partitions"))

    def aggregate(
        self,
        config: ScaleConfig,
        cells: Sequence[ScenarioCell],
        runs: Sequence[ScaleRunResult],
        trace_for: TraceProvider,
    ) -> ScaleResult:
        (run,) = runs
        return ScaleResult(config=config, run=run)

    def render(self, result: ScaleResult) -> str:
        run = result.run
        mean, p99 = run.mean_and_p99()
        lines = [
            "scale: partitioned replay "
            f"({result.config.num_queries} queries, {result.config.pods} pods, "
            f"partitions={run.partitions})",
            "",
            f"{'pod':>4} {'queries':>9} {'completed':>9} {'failed':>7} "
            f"{'events':>10} {'wall s':>8}",
        ]
        for pod, summary in run.pod_summaries.items():
            lines.append(
                f"{pod:>4} {summary.get('queries', 0):>9} "
                f"{summary.get('completed', 0):>9} {summary.get('failed', 0):>7} "
                f"{summary.get('events_executed', 0):>10} "
                f"{summary.get('wall_seconds', 0.0):>8.2f}"
            )
        lines.extend(
            [
                "",
                f"aggregate events/sec : {run.events_per_sec:,.0f}",
                f"cores of useful work : {run.busy_seconds / run.wall_seconds:.2f}"
                if run.wall_seconds > 0
                else "cores of useful work : n/a",
                f"mean response        : {mean:.4f} s",
                f"p99 response         : {p99:.4f} s",
                f"fingerprint          : {run.fingerprint()}",
            ]
        )
        return "\n".join(lines)


#: The registered spec instance (also reachable via ``registry.get``).
SCALE_SCENARIO = registry.register(ScaleScenario())
