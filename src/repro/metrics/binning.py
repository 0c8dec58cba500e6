"""Time binning of per-request samples.

The Wikipedia-replay figures aggregate per-request response times into
10-minute bins: Figure 6 plots the per-bin query rate and median load
time, and Figure 7 the per-bin deciles 1–9.  :class:`TimeBinner` groups
samples into fixed-width bins and computes those per-bin series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


from repro.errors import ReproError
from repro.metrics.stats import deciles, median_or_nan


@dataclass
class TimeBin:
    """One bin of samples."""

    start: float
    end: float
    values: List[float]

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
        if not self.values:
            return [float("nan")] * 9
        return deciles(self.values)


class TimeBinner:
    """Fixed-width time binning of ``(timestamp, value)`` samples.

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
        self._bins: Dict[int, List[float]] = {}

    def add(self, timestamp: float, value: float) -> None:
        """Add one sample."""
        if timestamp < self.start:
            raise ReproError(
                f"sample at {timestamp!r} precedes the binning origin {self.start!r}"
            )
        index = int((timestamp - self.start) // self.bin_width)
        self._bins.setdefault(index, []).append(value)

    def bins(self, through: Optional[float] = None) -> List[TimeBin]:
        """Materialise the bins, including empty ones, in time order.

        ``through`` extends the range to cover that timestamp even if the
        trailing bins are empty (so series from different runs align);
        when omitted, the binner's own :attr:`through` horizon applies.
        """
        if through is None:
            through = self.through
        if not self._bins and through is None:
            return []
        last_index = max(self._bins) if self._bins else 0
        if through is not None:
            last_index = max(
                last_index, int((through - self.start) // self.bin_width)
            )
        result = []
        for index in range(0, last_index + 1):
            bin_start = self.start + index * self.bin_width
            result.append(
                TimeBin(
                    start=bin_start,
                    end=bin_start + self.bin_width,
                    values=self._bins.get(index, []),
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
        return len(self._bins)
