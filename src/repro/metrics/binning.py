"""Time binning of per-request samples.

The Wikipedia-replay figures aggregate per-request response times into
10-minute bins: Figure 6 plots the per-bin query rate and median load
time, and Figure 7 the per-bin deciles 1–9.  :class:`TimeBinner` groups
samples into fixed-width bins and computes those per-bin series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ReproError
from repro.metrics.stats import deciles, median_or_nan


@dataclass
class TimeBin:
    """One bin of samples."""

    start: float
    end: float
    values: Sequence[float]

    @property
    def center(self) -> float:
        """Mid-point of the bin (the x coordinate used for plotting)."""
        return (self.start + self.end) / 2.0

    @property
    def count(self) -> int:
        """Number of samples in the bin."""
        return len(self.values)

    @property
    def rate(self) -> float:
        """Samples per second over the bin width."""
        return self.count / (self.end - self.start)

    @property
    def median(self) -> float:
        """Median of the bin's samples (NaN when empty)."""
        return median_or_nan(self.values)

    def deciles(self) -> List[float]:
        """Deciles 1–9 of the bin's samples (NaNs when empty)."""
        if not len(self.values):
            return [float("nan")] * 9
        return deciles(self.values)


class TimeBinner:
    """Fixed-width time binning of ``(timestamp, value)`` samples.

    Samples are kept as arrays grouped by bin; a bin's values keep the
    order they were added in.

    Parameters
    ----------
    bin_width:
        Width of each bin in seconds (the paper uses 600 s).
    start:
        Start of the first bin; samples before it are rejected.
    through:
        Default horizon for :meth:`bins` and the derived series: the
        materialised range always covers this timestamp, even when the
        trailing bins are empty.  A ``through=`` argument at a call site
        overrides it.
    """

    def __init__(
        self,
        bin_width: float = 600.0,
        start: float = 0.0,
        through: Optional[float] = None,
    ) -> None:
        if bin_width <= 0:
            raise ReproError(f"bin width must be positive, got {bin_width!r}")
        self.bin_width = bin_width
        self.start = start
        self.through = through
        #: Every sample's bin index and value, sorted by bin.
        self._indices = np.empty(0, dtype=np.int64)
        self._values = np.empty(0, dtype=np.float64)

    def add(self, timestamp: float, value: float) -> None:
        """Add one sample."""
        self.extend([timestamp], [value])

    def extend(self, timestamps: Sequence[float], values: Sequence[float]) -> None:
        """Add samples: ``values[i]`` arrived at ``timestamps[i]``.

        The samples are grouped by bin here, once per call; the stable
        sort keeps the values of one bin in the order they were added.
        """
        timestamps = np.asarray(timestamps, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        if timestamps.shape != values.shape:
            raise ReproError(
                f"{timestamps.size} timestamps for {values.size} values"
            )
        early = timestamps < self.start
        if early.any():
            raise ReproError(
                f"sample at {float(timestamps[early][0])!r} precedes the binning "
                f"origin {self.start!r}"
            )
        added = ((timestamps - self.start) // self.bin_width).astype(np.int64)
        indices = np.concatenate((self._indices, added))
        values = np.concatenate((self._values, values))
        order = np.argsort(indices, kind="stable")
        self._indices, self._values = indices[order], values[order]

    def bins(self, through: Optional[float] = None) -> List[TimeBin]:
        """Materialise the bins, including empty ones, in time order.

        ``through`` extends the range to cover that timestamp even if the
        trailing bins are empty (so series from different runs align);
        when omitted, the binner's own :attr:`through` horizon applies.
        """
        if through is None:
            through = self.through
        indices, values = self._indices, self._values
        if not indices.size and through is None:
            return []
        last_index = int(indices[-1]) if indices.size else 0
        if through is not None:
            last_index = max(
                last_index, int((through - self.start) // self.bin_width)
            )
        edges = np.searchsorted(indices, np.arange(last_index + 2)).tolist()
        result = []
        for index in range(0, last_index + 1):
            bin_start = self.start + index * self.bin_width
            result.append(
                TimeBin(
                    start=bin_start,
                    end=bin_start + self.bin_width,
                    values=values[edges[index] : edges[index + 1]],
                )
            )
        return result

    # ------------------------------------------------------------------
    # derived series (what the figures plot)
    # ------------------------------------------------------------------
    def rate_series(self, through: Optional[float] = None) -> List[Tuple[float, float]]:
        """Per-bin arrival rate: ``(bin center, samples per second)``."""
        return [(bin_.center, bin_.rate) for bin_ in self.bins(through)]

    def median_series(self, through: Optional[float] = None) -> List[Tuple[float, float]]:
        """Per-bin median value: ``(bin center, median)``."""
        return [(bin_.center, bin_.median) for bin_ in self.bins(through)]

    def decile_series(
        self, through: Optional[float] = None
    ) -> List[Tuple[float, List[float]]]:
        """Per-bin deciles 1–9: ``(bin center, [d1..d9])``."""
        return [(bin_.center, bin_.deciles()) for bin_ in self.bins(through)]

    def __len__(self) -> int:
        """Number of non-empty bins."""
        return int(np.unique(self._indices).size)
