"""Exponential Window Moving Average smoothing.

The paper smooths the instantaneous-load time series of Figure 4
"through an Exponential Window Moving Average filter, of parameter
α = 1 − exp(−δt) where δt is the interval of time in seconds between two
successive data points".  This module implements exactly that filter,
both as an online accumulator and as a one-shot series transform.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from repro.errors import MetricsValidationError, ReproError


def alpha_from_interval(delta_t: float, time_constant: float = 1.0) -> float:
    """The paper's EWMA coefficient for a sampling interval ``delta_t``.

    ``time_constant`` generalises the formula to α = 1 − exp(−δt/τ); the
    paper uses τ = 1 s.

    Degenerate inputs raise :class:`ValueError` instead of silently
    producing a useless coefficient: ``delta_t <= 0`` would yield α = 0
    (the sample is discarded — never what a caller wants from a
    *sampling interval*), and a NaN or infinite interval, or a
    non-positive or non-finite time constant, would propagate NaN/garbage
    alphas into every downstream smoothed series.
    """
    if not math.isfinite(delta_t) or delta_t <= 0:
        raise MetricsValidationError(
            f"sampling interval must be positive and finite, got {delta_t!r}"
        )
    if not math.isfinite(time_constant) or time_constant <= 0:
        raise MetricsValidationError(
            f"time constant must be positive and finite, got {time_constant!r}"
        )
    return 1.0 - math.exp(-delta_t / time_constant)


class EWMAFilter:
    """Online exponentially weighted moving average with time-aware alpha."""

    def __init__(self, time_constant: float = 1.0) -> None:
        if not math.isfinite(time_constant) or time_constant <= 0:
            raise MetricsValidationError(
                f"time constant must be positive and finite, got {time_constant!r}"
            )
        self.time_constant = time_constant
        self._value: Optional[float] = None
        self._last_time: Optional[float] = None

    @property
    def value(self) -> Optional[float]:
        """Current smoothed value (``None`` before the first update)."""
        return self._value

    def update(self, time: float, sample: float) -> float:
        """Fold in a new sample observed at ``time``; returns the new value."""
        if self._value is None or self._last_time is None:
            if not math.isfinite(time):
                # Guard the first sample too: a NaN timestamp stored as
                # _last_time would make every later (valid) update fail
                # the ordering check with a misleading message.
                raise ReproError(
                    f"EWMA sample timestamps must be finite, got {time!r}"
                )
            self._value = sample
        else:
            if not time > self._last_time:
                # Catches reordered samples, duplicates *and* NaN
                # timestamps — all of which would otherwise reach
                # alpha_from_interval with a non-positive interval.
                raise ReproError(
                    f"EWMA samples must be strictly time-ordered "
                    f"({time!r} <= {self._last_time!r})"
                )
            alpha = alpha_from_interval(time - self._last_time, self.time_constant)
            self._value = alpha * sample + (1.0 - alpha) * self._value
        self._last_time = time
        return self._value


def smooth_series(
    times: Sequence[float],
    values: Sequence[float],
    time_constant: float = 1.0,
) -> List[float]:
    """Smooth an entire (times, values) series with the paper's EWMA filter."""
    if len(times) != len(values):
        raise ReproError(
            f"times and values must have equal length "
            f"({len(times)} != {len(values)})"
        )
    ewma = EWMAFilter(time_constant)
    return [ewma.update(time, value) for time, value in zip(times, values)]


def smooth_timeseries(
    series: Sequence[Tuple[float, float]], time_constant: float = 1.0
) -> List[Tuple[float, float]]:
    """Convenience wrapper for a list of ``(time, value)`` pairs."""
    times = [time for time, _ in series]
    values = [value for _, value in series]
    smoothed = smooth_series(times, values, time_constant)
    return list(zip(times, smoothed))
