"""Response-time collection.

The traffic generator hands every finished query to a
:class:`ResponseTimeCollector`; the experiment harness then asks the
collector for exactly the series the paper's figures plot: response-time
arrays (optionally filtered by request kind), success/failure counts,
per-bin series for the Wikipedia replay, and summary statistics.

A collector is also its own wire format: it pickles as a
:class:`CollectorPayload` (parallel arrays and scalars instead of one
object per query), so a run result that holds one crosses a
``multiprocessing`` pipe compactly with no help from its owner.  The
round trip keeps every :class:`~repro.workload.client.RequestOutcome`
field except ``url``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ReproError
from repro.metrics.binning import TimeBinner
from repro.metrics.stats import SummaryStatistics, summarize
from repro.workload.client import RequestOutcome


@dataclass
class CollectorTotals:
    """Success/failure counts of a run."""

    completed: int
    failed: int

    @property
    def total(self) -> int:
        """All finished queries, successful or not."""
        return self.completed + self.failed


@dataclass
class CollectorPayload:
    """Compact, picklable export of a :class:`ResponseTimeCollector`.

    Outcomes are stored as parallel :mod:`numpy` arrays (one row per
    query, successes and failures separately) plus small string tables
    for the request kinds and failure reasons, so a 20k-query run
    crosses a ``multiprocessing`` pipe as a handful of contiguous
    buffers instead of tens of thousands of Python objects.  Request
    URLs are not round-tripped (nothing downstream of the collector
    reads them); a rebuilt collector reports every URL as ``""``.
    Every other outcome field is.
    """

    name: str
    kinds: Tuple[str, ...]
    failure_reasons: Tuple[str, ...]
    #: Successful queries: ids, kind codes and the three timestamps.
    ok_request_ids: np.ndarray
    ok_kind_codes: np.ndarray
    ok_sent_at: np.ndarray
    ok_established_at: np.ndarray
    ok_completed_at: np.ndarray
    #: Failed queries: ids, kind codes, timestamps and reason codes
    #: (an index into :attr:`failure_reasons`; -1 means no reason).
    fail_request_ids: np.ndarray
    fail_kind_codes: np.ndarray
    fail_sent_at: np.ndarray
    fail_established_at: np.ndarray
    fail_reason_codes: np.ndarray
    #: Sparse retry accounting, empty unless the client's retries are
    #: armed: the rows with ``retries > 0`` and their counts, and the
    #: rows that ``gave_up``.  Rows number the successes, then the failures.
    retried_rows: np.ndarray
    retry_counts: np.ndarray
    gave_up_rows: np.ndarray


def _encode_outcomes(
    outcomes: Sequence[RequestOutcome],
    kind_codes: Dict[str, int],
    kinds: List[str],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(ids, kind codes, sent_at, established_at)`` arrays for one side."""
    ids = np.empty(len(outcomes), dtype=np.int64)
    codes = np.empty(len(outcomes), dtype=np.int32)
    sent = np.empty(len(outcomes), dtype=np.float64)
    established = np.empty(len(outcomes), dtype=np.float64)
    for row, outcome in enumerate(outcomes):
        ids[row] = outcome.request_id
        code = kind_codes.get(outcome.kind)
        if code is None:
            code = kind_codes[outcome.kind] = len(kinds)
            kinds.append(outcome.kind)
        codes[row] = code
        sent[row] = outcome.sent_at
        established[row] = (
            np.nan if outcome.established_at is None else outcome.established_at
        )
    return ids, codes, sent, established


def _float_or_none(value: float) -> Optional[float]:
    return None if np.isnan(value) else float(value)


class ResponseTimeCollector:
    """Accumulates per-query outcomes for one experiment run."""

    def __init__(self, name: str = "run") -> None:
        self.name = name
        self._outcomes: List[RequestOutcome] = []
        self._failed: List[RequestOutcome] = []

    # ------------------------------------------------------------------
    # recording (OutcomeSink protocol)
    # ------------------------------------------------------------------
    def record(self, outcome: RequestOutcome) -> None:
        """Store one finished query (called by the traffic generator)."""
        # RequestOutcome.succeeded, inlined: one record per query.
        if outcome.completed_at is not None and not outcome.failed:
            self._outcomes.append(outcome)
        else:
            self._failed.append(outcome)

    # ------------------------------------------------------------------
    # retrieval
    # ------------------------------------------------------------------
    @property
    def totals(self) -> CollectorTotals:
        """Success/failure counts."""
        return CollectorTotals(completed=len(self._outcomes), failed=len(self._failed))

    def outcomes(self, kind: Optional[str] = None) -> List[RequestOutcome]:
        """Successful outcomes, optionally filtered by request kind."""
        if kind is None:
            return list(self._outcomes)
        return [outcome for outcome in self._outcomes if outcome.kind == kind]

    def failures(self, kind: Optional[str] = None) -> List[RequestOutcome]:
        """Failed outcomes, optionally filtered by request kind."""
        if kind is None:
            return list(self._failed)
        return [outcome for outcome in self._failed if outcome.kind == kind]

    def response_times(self, kind: Optional[str] = None) -> List[float]:
        """Response times (seconds) of successful queries.

        Iterates the stored outcomes directly instead of materialising
        the intermediate :meth:`outcomes` copy — the summary/CDF paths
        call this once per figure series over runs with tens of
        thousands of outcomes.
        """
        return [
            outcome.response_time
            for outcome in self._outcomes
            if outcome.response_time is not None
            and (kind is None or outcome.kind == kind)
        ]

    def summary(self, kind: Optional[str] = None) -> SummaryStatistics:
        """Summary statistics of the response times."""
        times = self.response_times(kind)
        if not times:
            raise ReproError(
                f"collector {self.name!r} has no successful outcomes"
                + (f" of kind {kind!r}" if kind else "")
            )
        return summarize(times)

    def binned(
        self,
        bin_width: float = 600.0,
        kind: Optional[str] = None,
        through: Optional[float] = None,
    ) -> TimeBinner:
        """Response times binned by *arrival* time (Figures 6 and 7).

        ``through`` pre-binds the returned binner's horizon, so trailing
        empty bins up to that timestamp are materialised even when the
        caller never passes a horizon to :meth:`TimeBinner.bins` itself.
        """
        binner = TimeBinner(bin_width=bin_width, through=through)
        for outcome in self._outcomes:
            if outcome.response_time is not None and (
                kind is None or outcome.kind == kind
            ):
                binner.add(outcome.sent_at, outcome.response_time)
        return binner

    def mean_response_time(self, kind: Optional[str] = None) -> float:
        """Mean response time of successful queries (Figure 2's y-axis)."""
        return self.summary(kind).mean

    # ------------------------------------------------------------------
    # compact export / rebuild (the wire format of every run result)
    # ------------------------------------------------------------------
    def __reduce__(self):
        """Pickle as a :class:`CollectorPayload`, rebuilt by :meth:`from_payload`.

        The payload describes this class, so a subclass comes back as a
        plain collector of its outcomes; state it adds is its own to carry.
        """
        return (ResponseTimeCollector.from_payload, (self.export_payload(),))

    def export_payload(self) -> CollectorPayload:
        """Export the recorded outcomes as a :class:`CollectorPayload`."""
        kinds: List[str] = []
        kind_codes: Dict[str, int] = {}
        ok_ids, ok_codes, ok_sent, ok_established = _encode_outcomes(
            self._outcomes, kind_codes, kinds
        )
        ok_completed = np.array(
            [outcome.completed_at for outcome in self._outcomes], dtype=np.float64
        )
        fail_ids, fail_codes, fail_sent, fail_established = _encode_outcomes(
            self._failed, kind_codes, kinds
        )
        reasons: List[str] = []
        reason_codes: Dict[str, int] = {}
        fail_reasons = np.empty(len(self._failed), dtype=np.int32)
        for row, outcome in enumerate(self._failed):
            if outcome.failure_reason is None:
                fail_reasons[row] = -1
                continue
            code = reason_codes.get(outcome.failure_reason)
            if code is None:
                code = reason_codes[outcome.failure_reason] = len(reasons)
                reasons.append(outcome.failure_reason)
            fail_reasons[row] = code
        rows = self._outcomes + self._failed
        retried = [row for row, outcome in enumerate(rows) if outcome.retries]
        gave_up = [row for row, outcome in enumerate(rows) if outcome.gave_up]
        return CollectorPayload(
            name=self.name,
            kinds=tuple(kinds),
            failure_reasons=tuple(reasons),
            ok_request_ids=ok_ids,
            ok_kind_codes=ok_codes,
            ok_sent_at=ok_sent,
            ok_established_at=ok_established,
            ok_completed_at=ok_completed,
            fail_request_ids=fail_ids,
            fail_kind_codes=fail_codes,
            fail_sent_at=fail_sent,
            fail_established_at=fail_established,
            fail_reason_codes=fail_reasons,
            retried_rows=np.array(retried, dtype=np.int64),
            retry_counts=np.array(
                [rows[row].retries for row in retried], dtype=np.int32
            ),
            gave_up_rows=np.array(gave_up, dtype=np.int64),
        )

    @classmethod
    def from_payload(cls, payload: CollectorPayload) -> "ResponseTimeCollector":
        """Rebuild a collector from :meth:`export_payload`'s output.

        The rebuilt collector is interchangeable with the original:
        only request URLs are lost in the round trip.
        """
        collector = cls(name=payload.name)
        for row in range(len(payload.ok_request_ids)):
            collector._outcomes.append(
                RequestOutcome(
                    request_id=int(payload.ok_request_ids[row]),
                    kind=payload.kinds[int(payload.ok_kind_codes[row])],
                    url="",
                    sent_at=float(payload.ok_sent_at[row]),
                    established_at=_float_or_none(payload.ok_established_at[row]),
                    completed_at=float(payload.ok_completed_at[row]),
                )
            )
        for row in range(len(payload.fail_request_ids)):
            reason_code = int(payload.fail_reason_codes[row])
            collector._failed.append(
                RequestOutcome(
                    request_id=int(payload.fail_request_ids[row]),
                    kind=payload.kinds[int(payload.fail_kind_codes[row])],
                    url="",
                    sent_at=float(payload.fail_sent_at[row]),
                    established_at=_float_or_none(payload.fail_established_at[row]),
                    failed=True,
                    failure_reason=(
                        None
                        if reason_code < 0
                        else payload.failure_reasons[reason_code]
                    ),
                )
            )
        rows = collector._outcomes + collector._failed
        for row, count in zip(
            payload.retried_rows.tolist(), payload.retry_counts.tolist()
        ):
            rows[row].retries = count
        for row in payload.gave_up_rows.tolist():
            rows[row].gave_up = True
        return collector

    def __len__(self) -> int:
        return len(self._outcomes) + len(self._failed)

    def __repr__(self) -> str:
        totals = self.totals
        return (
            f"ResponseTimeCollector(name={self.name!r}, "
            f"completed={totals.completed}, failed={totals.failed})"
        )


class ServerLoadSampler:
    """Periodic sampler of per-server busy-thread counts (Figure 4).

    The sampler polls a set of scoreboard-like objects at a fixed period
    and stores ``(time, [busy counts])`` rows; the experiment harness
    turns them into the mean-load and fairness-index series.
    """

    def __init__(self, interval: float = 0.5) -> None:
        if interval <= 0:
            raise ReproError(f"sampling interval must be positive, got {interval!r}")
        self.interval = interval
        self._times: List[float] = []
        self._samples: List[List[int]] = []

    def sample(self, time: float, busy_counts: Sequence[int]) -> None:
        """Record one snapshot of per-server busy counts."""
        if self._samples and len(busy_counts) != len(self._samples[0]):
            raise ReproError(
                "inconsistent number of servers across load samples "
                f"({len(busy_counts)} != {len(self._samples[0])})"
            )
        self._times.append(time)
        self._samples.append([int(count) for count in busy_counts])

    @property
    def times(self) -> List[float]:
        """Sample timestamps."""
        return list(self._times)

    @property
    def samples(self) -> List[List[int]]:
        """Per-sample busy-count vectors."""
        return [list(row) for row in self._samples]

    def mean_load_series(self) -> List[Tuple[float, float]]:
        """``(time, mean busy threads across servers)`` series."""
        return [
            (time, sum(row) / len(row) if row else 0.0)
            for time, row in zip(self._times, self._samples)
        ]

    def fairness_series(self) -> List[Tuple[float, float]]:
        """``(time, Jain fairness index of per-server loads)`` series."""
        from repro.metrics.fairness import jain_fairness_index

        return [
            (time, jain_fairness_index(row))
            for time, row in zip(self._times, self._samples)
        ]

    def __len__(self) -> int:
        return len(self._samples)
