"""Response-time collection.

The traffic generator hands every finished query to a
:class:`ResponseTimeCollector`; the experiment harness then asks the
collector for exactly the series the paper's figures plot: response-time
arrays (optionally filtered by request kind), success/failure counts,
per-bin series for the Wikipedia replay, and summary statistics.

A collector is one table in record order, built from :mod:`array`
columns: request id, kind code and status; ``sent_at``,
``established_at`` and ``completed_at`` (NaN for none); the failure
reason code; and sparse retry and give-up rows.  That is 37 B per query
where a :class:`~repro.workload.client.RequestOutcome` plus its boxed
floats was about 190 B.  Series are computed on numpy views of the
columns, and outcome objects are built only when :meth:`outcomes` or
:meth:`failures` asks for them.  Code that needs whole columns reads
:meth:`~ResponseTimeCollector.columns`, which decodes the table into
dense per-query arrays, so the storage format stays in this module.  The
table keeps no request URL (nothing reads one): every outcome it returns
has ``url=""``.

The table is also the collector's wire format: a collector pickles as a
:class:`CollectorPayload`, one numpy array per column, so a run result
that holds one crosses a ``multiprocessing`` pipe compactly with no help
from its owner, and comes back with every field it left with.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from math import nan
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ReproError
from repro.metrics.binning import TimeBinner
from repro.metrics.stats import SummaryStatistics, summarize_or_nan
from repro.workload.client import RequestOutcome

#: Codes of the status column.  A query that neither failed nor received
#: a response (recorded while still open) is ``_UNANSWERED``; only
#: ``_SUCCEEDED`` rows have a response time.
_SUCCEEDED = 0
_FAILED = 1
_UNANSWERED = 2


@dataclass
class CollectorTotals:
    """Success/failure counts of a run."""

    completed: int
    failed: int


@dataclass
class CollectorPayload:
    """A :class:`ResponseTimeCollector`'s table as numpy arrays.

    One element per recorded query, in record order, plus the string
    tables the kind and reason codes index into.  It is what a collector
    pickles as; callers that need whole columns read
    :meth:`ResponseTimeCollector.columns` instead.
    """

    name: str
    kinds: Tuple[str, ...]
    failure_reasons: Tuple[str, ...]
    request_ids: np.ndarray
    #: Index into :attr:`kinds`.
    kind_codes: np.ndarray
    #: One of the status codes (succeeded, failed, unanswered).
    status: np.ndarray
    sent_at: np.ndarray
    #: NaN where the handshake never completed.
    established_at: np.ndarray
    #: NaN where no response arrived.
    completed_at: np.ndarray
    #: Index into :attr:`failure_reasons`; -1 means no reason.
    reason_codes: np.ndarray
    #: Sparse retry accounting: the rows with ``retries > 0`` and their
    #: counts, and the rows that ``gave_up``.
    retried_rows: np.ndarray
    retry_counts: np.ndarray
    gave_up_rows: np.ndarray


@dataclass
class OutcomeColumns:
    """Every recorded query as dense numpy arrays, in record order."""

    request_ids: np.ndarray
    sent_at: np.ndarray
    #: ``completed_at - sent_at``; NaN where no response arrived.
    response_times: np.ndarray
    #: A response arrived and the query did not fail.
    succeeded: np.ndarray
    failed: np.ndarray
    retries: np.ndarray
    gave_up: np.ndarray


def _code(value: str, codes: Dict[str, int], names: List[str]) -> int:
    """``value``'s index in ``names``, appended on first sight."""
    code = codes.get(value)
    if code is None:
        code = codes[value] = len(names)
        names.append(value)
    return code


def _view(column: array) -> np.ndarray:
    """A numpy view of ``column``; it must not outlive the caller's frame
    (an exported buffer blocks the column from growing)."""
    return np.frombuffer(column, column.typecode)


def _load(column: array, values: np.ndarray) -> None:
    column.frombytes(np.ascontiguousarray(values, column.typecode).tobytes())


class ResponseTimeCollector:
    """Accumulates per-query outcomes for one experiment run."""

    def __init__(self, name: str = "run") -> None:
        self.name = name
        self._kinds: List[str] = []
        self._kind_codes: Dict[str, int] = {}
        self._reasons: List[str] = []
        self._reason_codes: Dict[str, int] = {}
        self._request_id = array("q")
        self._kind = array("h")
        self._status = array("B")
        self._sent_at = array("d")
        self._established_at = array("d")
        self._completed_at = array("d")
        self._reason = array("h")
        self._retried_rows = array("q")
        self._retry_counts = array("q")
        self._gave_up_rows = array("q")

    # ------------------------------------------------------------------
    # recording (OutcomeSink protocol)
    # ------------------------------------------------------------------
    def record(self, outcome: RequestOutcome) -> None:
        """Append one finished query's row (called by the traffic generator)."""
        kind = self._kind_codes.get(outcome.kind)
        if kind is None:
            kind = _code(outcome.kind, self._kind_codes, self._kinds)
        if outcome.retries or outcome.gave_up:
            row = len(self._request_id)
            if outcome.retries:
                self._retried_rows.append(row)
                self._retry_counts.append(outcome.retries)
            if outcome.gave_up:
                self._gave_up_rows.append(row)
        self._request_id.append(outcome.request_id)
        self._kind.append(kind)
        self._sent_at.append(outcome.sent_at)
        established = outcome.established_at
        self._established_at.append(nan if established is None else established)
        completed = outcome.completed_at
        if outcome.failed:
            self._status.append(_FAILED)
        else:
            self._status.append(_UNANSWERED if completed is None else _SUCCEEDED)
        self._completed_at.append(nan if completed is None else completed)
        reason = outcome.failure_reason
        self._reason.append(
            -1 if reason is None else _code(reason, self._reason_codes, self._reasons)
        )

    # ------------------------------------------------------------------
    # retrieval
    # ------------------------------------------------------------------
    @property
    def totals(self) -> CollectorTotals:
        """Success/failure counts."""
        completed = int(np.count_nonzero(_view(self._status) == _SUCCEEDED))
        return CollectorTotals(completed=completed, failed=len(self) - completed)

    def _rows(self, succeeded: bool, kind: Optional[str]) -> np.ndarray:
        """Boolean row mask: (un)successful queries, optionally of one kind."""
        status = _view(self._status)
        mask = status == _SUCCEEDED if succeeded else status != _SUCCEEDED
        if kind is not None:
            mask &= _view(self._kind) == self._kind_codes.get(kind, -1)
        return mask

    def _materialise(self, mask: np.ndarray) -> List[RequestOutcome]:
        rows = np.flatnonzero(mask)
        retries = dict(zip(self._retried_rows, self._retry_counts))
        gave_up = set(self._gave_up_rows)
        kinds, reasons = self._kinds, self._reasons
        return [
            RequestOutcome(
                request_id,
                kinds[kind],
                "",
                sent_at,
                None if established != established else established,
                None if completed != completed else completed,
                status == _FAILED,
                None if reason < 0 else reasons[reason],
                retries.get(row, 0),
                row in gave_up,
            )
            for row, request_id, kind, status, sent_at, established, completed, reason in zip(
                rows.tolist(),
                _view(self._request_id)[rows].tolist(),
                _view(self._kind)[rows].tolist(),
                _view(self._status)[rows].tolist(),
                _view(self._sent_at)[rows].tolist(),
                _view(self._established_at)[rows].tolist(),
                _view(self._completed_at)[rows].tolist(),
                _view(self._reason)[rows].tolist(),
            )
        ]

    def outcomes(self, kind: Optional[str] = None) -> List[RequestOutcome]:
        """Successful outcomes, optionally filtered by request kind."""
        return self._materialise(self._rows(True, kind))

    def response_times(self, kind: Optional[str] = None) -> np.ndarray:
        """Response times (seconds) of successful queries, in record order."""
        mask = self._rows(True, kind)
        return _view(self._completed_at)[mask] - _view(self._sent_at)[mask]

    def columns(self) -> OutcomeColumns:
        """Every recorded query as dense arrays (copies), in record order."""
        count = len(self)
        status = _view(self._status)
        sent_at = _view(self._sent_at).copy()
        retries = np.zeros(count, dtype=np.int64)
        retries[_view(self._retried_rows)] = _view(self._retry_counts)
        gave_up = np.zeros(count, dtype=bool)
        gave_up[_view(self._gave_up_rows)] = True
        return OutcomeColumns(
            request_ids=_view(self._request_id).copy(),
            sent_at=sent_at,
            response_times=_view(self._completed_at) - sent_at,
            succeeded=status == _SUCCEEDED,
            failed=status == _FAILED,
            retries=retries,
            gave_up=gave_up,
        )

    def summary(self, kind: Optional[str] = None) -> SummaryStatistics:
        """Summary statistics of the response times.

        NaN statistics when no query (of that kind) completed, so a
        results table still prints its other columns.
        """
        return summarize_or_nan(self.response_times(kind))

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
        mask = self._rows(True, kind)
        sent_at = _view(self._sent_at)[mask]
        binner = TimeBinner(bin_width=bin_width, through=through)
        binner.extend(sent_at, _view(self._completed_at)[mask] - sent_at)
        return binner

    def mean_response_time(self) -> float:
        """Mean response time of successful queries (Figure 2's y-axis)."""
        return self.summary().mean

    # ------------------------------------------------------------------
    # the table as arrays (the wire format of every run result)
    # ------------------------------------------------------------------
    def __reduce__(self):
        """Pickle as a :class:`CollectorPayload`, rebuilt by :meth:`from_payload`.

        The payload describes this class, so a subclass comes back as a
        plain collector of its outcomes; state it adds is its own to carry.
        """
        return (ResponseTimeCollector.from_payload, (self.export_payload(),))

    def export_payload(self) -> CollectorPayload:
        """A copy of the table as a :class:`CollectorPayload`."""
        return CollectorPayload(
            name=self.name,
            kinds=tuple(self._kinds),
            failure_reasons=tuple(self._reasons),
            request_ids=_view(self._request_id).copy(),
            kind_codes=_view(self._kind).copy(),
            status=_view(self._status).copy(),
            sent_at=_view(self._sent_at).copy(),
            established_at=_view(self._established_at).copy(),
            completed_at=_view(self._completed_at).copy(),
            reason_codes=_view(self._reason).copy(),
            retried_rows=_view(self._retried_rows).copy(),
            retry_counts=_view(self._retry_counts).copy(),
            gave_up_rows=_view(self._gave_up_rows).copy(),
        )

    @classmethod
    def from_payload(cls, payload: CollectorPayload) -> "ResponseTimeCollector":
        """Rebuild a collector from :meth:`export_payload`'s output.

        The rebuilt collector is interchangeable with the original.
        """
        collector = cls(name=payload.name)
        for kind in payload.kinds:
            _code(kind, collector._kind_codes, collector._kinds)
        for reason in payload.failure_reasons:
            _code(reason, collector._reason_codes, collector._reasons)
        for column, values in (
            (collector._request_id, payload.request_ids),
            (collector._kind, payload.kind_codes),
            (collector._status, payload.status),
            (collector._sent_at, payload.sent_at),
            (collector._established_at, payload.established_at),
            (collector._completed_at, payload.completed_at),
            (collector._reason, payload.reason_codes),
            (collector._retried_rows, payload.retried_rows),
            (collector._retry_counts, payload.retry_counts),
            (collector._gave_up_rows, payload.gave_up_rows),
        ):
            _load(column, values)
        return collector

    def __len__(self) -> int:
        return len(self._request_id)

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
