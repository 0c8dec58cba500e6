"""Statistical helpers used by the evaluation pipeline.

Everything the paper's figures report — means, medians, deciles,
quartiles, empirical CDFs — is computed here, in one place, so that the
experiment harness, the benchmarks and the tests all agree on the exact
definitions (e.g. deciles are the 10th..90th percentiles with linear
interpolation, matching gnuplot's default used by the paper's plots).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import ReproError


@dataclass
class SummaryStatistics:
    """Summary of a sample of response times (or any positive metric)."""

    count: int
    mean: float
    std: float
    minimum: float
    median: float
    p75: float
    p90: float
    p99: float
    maximum: float


def summarize(values: Sequence[float]) -> SummaryStatistics:
    """Summary statistics of ``values`` (which must be non-empty)."""
    if len(values) == 0:
        raise ReproError("cannot summarize an empty sample")
    array = np.asarray(values, dtype=float)
    return SummaryStatistics(
        count=int(array.size),
        mean=float(np.mean(array)),
        std=float(np.std(array)),
        minimum=float(np.min(array)),
        median=float(np.percentile(array, 50)),
        p75=float(np.percentile(array, 75)),
        p90=float(np.percentile(array, 90)),
        p99=float(np.percentile(array, 99)),
        maximum=float(np.max(array)),
    )


def summarize_or_nan(values: Sequence[float]) -> SummaryStatistics:
    """:func:`summarize`, or a count-0 summary of NaNs for an empty sample.

    What every results table prints for a cell (or request kind) in which
    no query completed: ``nan`` in the response-time columns.
    """
    if len(values) == 0:
        nan = float("nan")
        return SummaryStatistics(0, nan, nan, nan, nan, nan, nan, nan, nan)
    return summarize(values)


def cdf_at(values: Sequence[float], thresholds: Sequence[float]) -> List[float]:
    """Fraction of samples at or below each threshold."""
    if len(values) == 0:
        raise ReproError("cannot evaluate the CDF of an empty sample")
    array = np.sort(np.asarray(values, dtype=float))
    return [
        float(np.searchsorted(array, threshold, side="right")) / array.size
        for threshold in thresholds
    ]


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation."""
    if len(values) == 0:
        raise ReproError("cannot compute a percentile of an empty sample")
    if not 0 <= q <= 100:
        raise ReproError(f"percentile must be in [0, 100], got {q!r}")
    return float(np.percentile(np.asarray(values, dtype=float), q))


def deciles(values: Sequence[float]) -> List[float]:
    """Deciles 1 through 9 (the paper's Figure 7 bands)."""
    return [percentile(values, 10 * k) for k in range(1, 10)]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """First quartile, median and third quartile."""
    return (
        percentile(values, 25),
        percentile(values, 50),
        percentile(values, 75),
    )


def median_or_nan(values: Sequence[float]) -> float:
    """Median of ``values``, or NaN for an empty sample (binned series)."""
    if len(values) == 0:
        return float("nan")
    return float(np.median(np.asarray(values, dtype=float)))
