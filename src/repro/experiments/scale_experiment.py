"""The ``scale`` scenario: one run of millions of clients, one cell per pod.

A datacenter front end spreads one aggregate query stream over ``pods``
identical load-balancer/server pods.  No packet crosses a pod, so each
pod is a scenario cell of its own, run like any family's cells — in
this process or over ``--jobs`` workers (``--partitions`` here).

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
pod: a pod's whole output goes home as one :class:`PodResult` — three
outcome columns and a summary.

**Determinism.**  The process count never changes results: pods,
traces, and seeds depend only on the config, and the aggregate merges
the pods' columns into the one total order ``(time, pod, emission
order)`` (:func:`merge_pods`).  The scale golden test pins the
fingerprint across one, two and eight processes.
"""

from __future__ import annotations

import hashlib
import os
import time
from array import array
from dataclasses import dataclass, field
from functools import lru_cache
from math import nan
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ExperimentError
from repro.experiments import registry
from repro.experiments.calibration import analytic_saturation_rate
from repro.experiments.config import ScaleConfig, TestbedConfig
from repro.experiments.platform import SETTLE_MARGIN, build_testbed
from repro.experiments.scenario import ScenarioCell, ScenarioSpec, TraceProvider, trace_rng
from repro.metrics.collector import ResponseTimeCollector
from repro.net.ecmp import HopScorer, five_tuple_key
from repro.net.packet import FlowKey, new_flow_key
from repro.net.tcp import EPHEMERAL_PORT_BASE, EPHEMERAL_PORT_RANGE, HTTP_PORT
from repro.workload.requests import KIND_PHP
from repro.workload.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.bus import TelemetryPayload

#: Synthetic endpoint addresses of the modeled upstream flow keys.  They
#: only feed the pure 5-tuple hash (never a live fabric), so plain
#: strings are sufficient and cheap.
_FRONTEND_CLIENT = "2001:db8:feed::1"
_FRONTEND_VIP = "2001:db8:100::80"

#: Rows per block :meth:`ScaleRunResult.fingerprint` hashes at a time.
_FINGERPRINT_ROWS = 4096


@lru_cache(maxsize=8)
def _pod_table(pod_names: Tuple[str, ...], ecmp_hash: str, size: int) -> np.ndarray:
    """Pod assignment for the first ``size`` modeled ports.

    Only ``EPHEMERAL_PORT_RANGE`` distinct flow keys exist, so the
    per-query hash reduces to one table lookup — the difference between
    hashing 50k keys and hashing every query of a million-query run —
    and a stream shorter than the port range only hashes the ports it
    reaches.  Memoized per process (every pod of a run shares it).
    """
    scorer = HopScorer(pod_names, ecmp_hash)
    # The scorer ranks hops in name order; translate to pod positions.
    pod_of_rank = [pod_names.index(name) for name in scorer.names]
    index_for = scorer.index_for
    table = np.fromiter(
        (
            pod_of_rank[index_for(five_tuple_key(new_flow_key(
                FlowKey, (_FRONTEND_CLIENT, port, _FRONTEND_VIP, HTTP_PORT)
            )))]
            for port in range(EPHEMERAL_PORT_BASE, EPHEMERAL_PORT_BASE + size)
        ),
        dtype=np.int64,
        count=size,
    )  # fmt: skip
    table.flags.writeable = False
    return table


@lru_cache(maxsize=2)
def make_scale_stream(
    config: ScaleConfig,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The aggregate query stream: ``(arrival times, demands, pod index)``.

    A pure function of the config (the RNG is salted with the query
    count only), shared by every pod: each cell
    keeps only its pod's slice.  Memoized per process, so a
    worker running several pods generates the stream once; the arrays
    are read-only because every caller gets the same ones.
    """
    pod_rate = analytic_saturation_rate(config.testbed, config.service_mean)
    rate = config.load_factor * config.pods * pod_rate
    rng = trace_rng(config, config.num_queries)
    arrivals = np.cumsum(rng.exponential(1.0 / rate, size=config.num_queries))
    demands = rng.exponential(config.service_mean, size=config.num_queries)
    offsets = np.arange(config.num_queries, dtype=np.int64) % EPHEMERAL_PORT_RANGE
    table = _pod_table(
        config.pod_names(), config.ecmp_hash, min(config.num_queries, EPHEMERAL_PORT_RANGE)
    )
    pods = table[offsets]
    for array in (arrivals, demands, pods):
        array.flags.writeable = False
    return arrivals, demands, pods


def _pod_slice(config: ScaleConfig, pod_index: int) -> Trace:
    """One pod's slice of the stream, with the stream's ids and times,
    so the merged result reads as one deployment-wide run."""
    if not 0 <= pod_index < config.pods:
        raise ExperimentError(
            f"pod index {pod_index!r} out of range for {config.pods} pods"
        )
    arrivals, demands, pods = make_scale_stream(config)
    rows = np.flatnonzero(pods == pod_index)
    return Trace.from_columns(
        rows + 1,
        arrivals[rows],
        demands[rows],
        np.zeros(rows.size, dtype=np.uint8),
        (KIND_PHP,),
        name=f"scale-pod-{pod_index}",
    )


def _horizon(config: ScaleConfig) -> float:
    """Where every pod's probe stops: the *global* last arrival plus
    :data:`SETTLE_MARGIN`, so every pod replays the same span."""
    return float(make_scale_stream(config)[0][-1]) + SETTLE_MARGIN


def make_pod_trace(config: ScaleConfig, pod_index: int) -> Tuple[Trace, float]:
    """One pod's slice of the stream, plus the global run horizon.

    Only the repository benchmark's tracer calls it; the family slices
    through :func:`_pod_slice`, so a pod's queries are counted once.
    """
    return _pod_slice(config, pod_index), _horizon(config)


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
    (24 B per outcome) whatever the run length, plus the probe's payload
    when the testbed's ``telemetry`` is set.
    """

    #: Simulator clock at which each outcome was recorded (``float64``).
    times: np.ndarray
    request_ids: np.ndarray
    #: Response time per outcome (``float64``); NaN marks a failed query.
    response_times: np.ndarray
    summary: Dict[str, Any]
    telemetry: Optional[TelemetryPayload] = field(default=None, kw_only=True)


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
    """The merged, deployment-wide outcome of one ``scale`` run."""

    config: ScaleConfig
    #: Completion/failure times of the merged outcome stream, in the
    #: deterministic merge order.
    times: np.ndarray
    request_ids: np.ndarray
    #: Response time per outcome; NaN marks a failed query.
    response_times: np.ndarray
    pod_indices: np.ndarray
    #: Per-pod summaries keyed by pod index.
    pod_summaries: Dict[int, Dict[str, Any]]
    #: The pods' telemetry payloads merged in pod order (``None`` when off).
    telemetry: Optional[TelemetryPayload] = None

    def telemetry_items(self) -> List[Tuple[str, TelemetryPayload]]:
        """One deployment-wide ``("scale", payload)`` entry, or none."""
        return [] if self.telemetry is None else [("scale", self.telemetry)]

    @property
    def run(self) -> "ScaleRunResult":
        """Itself: the benchmark's tracer reads the wall-clock here."""
        return self

    @property
    def completed(self) -> int:
        return int(np.count_nonzero(~np.isnan(self.response_times)))

    @property
    def failed(self) -> int:
        return int(np.count_nonzero(np.isnan(self.response_times)))

    @property
    def wall_seconds(self) -> float:
        """Wall-clock seconds from the first pod replay's start to the
        last one's end."""
        summaries = self.pod_summaries.values()
        return max(s["started"] + s["wall_seconds"] for s in summaries) - min(
            s["started"] for s in summaries
        )

    @property
    def busy_seconds(self) -> float:
        """Summed per-pod replay wall-clock — the useful work.

        With N processes on ≥N free cores this exceeds
        :attr:`wall_seconds` by roughly the parallel speedup (the
        ``busy_seconds / wall_seconds`` ratio is "cores of useful work").
        """
        return float(sum(s["wall_seconds"] for s in self.pod_summaries.values()))

    def fingerprint(self) -> str:
        """SHA-256 over the merged outcome stream, bit-exact.

        Covers (time, request id, response time, pod) per outcome in the
        deterministic merge order, as rows of four ``float64``; NaN
        response times are canonicalised to ``-1`` so the digest is
        well-defined.  The rows are hashed in fixed blocks, so no
        whole-run matrix is built.  Identical for any process count —
        the property the scale golden test and the ``scale-smoke`` CI
        job pin.
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


class ScaleScenario(ScenarioSpec):
    """The million-client front end as a scenario family: one cell per pod."""

    name = "scale"

    def smoke_config(self) -> ScaleConfig:
        return ScaleConfig(
            testbed=TestbedConfig(
                num_servers=4, workers_per_server=8, backlog_capacity=16
            ),
            pods=4,
            num_queries=2_000,
        )

    def cells(self, config: ScaleConfig) -> List[ScenarioCell]:
        # Keyed by the pod index, which a failed pod's message names.
        return [ScenarioCell(pod) for pod in range(config.pods)]

    def trace_key(self, config: ScaleConfig, cell: ScenarioCell) -> int:
        return cell.key

    def make_trace(self, config: ScaleConfig, cell: ScenarioCell) -> Trace:
        return _pod_slice(config, cell.key)

    def run_once(
        self, config: ScaleConfig, cell: ScenarioCell, trace: Trace
    ) -> PodResult:
        pod = cell.key
        collector = _ColumnCollector(name=f"pod-{pod}")
        with build_testbed(
            config.testbed.with_seed(_pod_seed(config, pod)),
            config.policy,
            collector=collector,
            run_name=f"pod-{pod}",
        ) as testbed:
            collector.simulator = testbed.simulator
            started = time.time()
            clock = time.perf_counter()
            testbed.run_trace(trace, until=_horizon(config))
            wall_seconds = time.perf_counter() - clock

        totals = collector.totals
        table = collector.columns()
        return PodResult(
            times=np.array(collector.times, dtype=np.float64),
            request_ids=table.request_ids,
            response_times=np.where(table.succeeded, table.response_times, nan),
            summary={
                "queries": len(trace),
                "completed": totals.completed,
                "failed": totals.failed,
                "events_executed": testbed.simulator.events_executed,
                "wall_seconds": wall_seconds,
                # When the replay started (Unix time, comparable across
                # processes) and which process ran it.
                "started": started,
                "pid": os.getpid(),
            },
            telemetry=testbed.telemetry_payload(),
        )

    def aggregate(
        self,
        config: ScaleConfig,
        cells: Sequence[ScenarioCell],
        runs: Sequence[PodResult],
        trace_for: TraceProvider,
    ) -> ScaleRunResult:
        payloads = [run.telemetry for run in runs if run.telemetry is not None]
        telemetry = None
        if payloads:
            from repro.telemetry.bus import TelemetryPayload

            telemetry = TelemetryPayload.merge(payloads)
        return ScaleRunResult(
            config,
            *merge_pods(runs),
            pod_summaries={cell.key: run.summary for cell, run in zip(cells, runs)},
            telemetry=telemetry,
        )

    def render(self, result: ScaleRunResult) -> str:
        ok = result.response_times[~np.isnan(result.response_times)]
        mean, p99 = (np.mean(ok), np.percentile(ok, 99)) if ok.size else (nan, nan)
        summaries = result.pod_summaries.values()
        events = sum(summary["events_executed"] for summary in summaries)
        wall = result.wall_seconds
        lines = [
            "scale: partitioned replay "
            f"({result.config.num_queries} queries, {result.config.pods} pods, "
            f"partitions={len({summary['pid'] for summary in summaries})})",
            "",
            f"{'pod':>4} {'queries':>9} {'completed':>9} {'failed':>7} "
            f"{'events':>10} {'wall s':>8}",
        ]
        for pod, summary in result.pod_summaries.items():
            lines.append(
                f"{pod:>4} {summary['queries']:>9} "
                f"{summary['completed']:>9} {summary['failed']:>7} "
                f"{summary['events_executed']:>10} "
                f"{summary['wall_seconds']:>8.2f}"
            )
        lines.extend(
            [
                "",
                f"aggregate events/sec : {events / wall if wall > 0 else 0.0:,.0f}",
                f"cores of useful work : {result.busy_seconds / wall:.2f}"
                if wall > 0
                else "cores of useful work : n/a",
                f"mean response        : {mean:.4f} s",
                f"p99 response         : {p99:.4f} s",
                f"fingerprint          : {result.fingerprint()}",
            ]
        )
        return "\n".join(lines)


#: The registered spec instance (also reachable via ``registry.get``).
SCALE_SCENARIO = registry.register(ScaleScenario())
