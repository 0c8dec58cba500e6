"""Pluggable scaling policies: the deciding half of the control plane.

A scaling policy maps the monitor's smoothed fleet signal to a desired
capacity step: +1 (provision a server), −1 (drain one), or 0.  Bounds
(min/max fleet size) and cooldown are enforced by the
:class:`~repro.control.autoscaler.Autoscaler`, so policies stay pure
signal→step functions — mirroring how the paper keeps the acceptance
*policy* separate from the Service Hunting *mechanism*.

Two built-ins:

* :class:`ReactiveThresholdPolicy` — classic threshold rule with
  hysteresis: scale up above ``high``, down below ``low``; the gap
  between the watermarks is what keeps the fleet from oscillating.
* :class:`PredictiveEwmaPolicy` — EWMA-slope extrapolation: forecast
  the busy fraction ``horizon`` seconds ahead from the smoothed signal's
  trend and apply the thresholds to the *forecast*, so the fleet starts
  provisioning while the diurnal ramp is still climbing (absorbing the
  provisioning delay instead of paying for it in latency).
"""

from __future__ import annotations

import abc
from typing import Optional

from repro.control.monitor import FleetSample
from repro.errors import ReproError
from repro.metrics.ewma import EWMAFilter


class ScalingPolicy(abc.ABC):
    """Maps a fleet sample to a desired capacity step (+1 / 0 / −1)."""

    #: Short name used in reports and scenario cell keys.
    name: str = "scaling-policy"

    @abc.abstractmethod
    def desired_step(self, sample: FleetSample) -> int:
        """The capacity step this sample calls for.

        Called once per control tick, with samples in strictly
        increasing time order.  Policies may keep internal state (the
        predictive policy tracks the signal's slope).
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


def _validate_watermarks(low: float, high: float) -> None:
    if not 0.0 <= low < high <= 1.0:
        raise ReproError(
            f"watermarks must satisfy 0 <= low < high <= 1, got "
            f"low={low!r} high={high!r}"
        )


class ReactiveThresholdPolicy(ScalingPolicy):
    """Threshold rule with hysteresis on the smoothed busy fraction.

    Scale up when the smoothed busy fraction exceeds ``high``; scale
    down when it falls below ``low``.  The dead band between the
    watermarks is the hysteresis: after a scale-up dilutes the busy
    fraction, the signal lands *inside* the band and the policy holds
    steady instead of immediately draining what it just provisioned.
    """

    def __init__(self, low: float = 0.35, high: float = 0.7) -> None:
        _validate_watermarks(low, high)
        self.low = low
        self.high = high
        self.name = f"reactive[{low:g},{high:g}]"

    def desired_step(self, sample: FleetSample) -> int:
        signal = sample.smoothed_busy_fraction
        if signal > self.high:
            return 1
        if signal < self.low:
            return -1
        return 0


class PredictiveEwmaPolicy(ScalingPolicy):
    """EWMA-slope extrapolation of the busy fraction.

    Maintains an EWMA of the smoothed signal's derivative and applies
    the reactive watermarks to ``signal + slope * horizon`` — the
    forecast at the moment a server provisioned *now* would come online.
    A rising ramp therefore triggers the scale-up one provisioning delay
    early, and a falling ramp holds capacity a little longer (the
    forecast undershoots), which is exactly the asymmetry a diurnal
    pattern wants.
    """

    def __init__(
        self,
        low: float = 0.35,
        high: float = 0.7,
        horizon: float = 15.0,
        slope_time_constant: float = 10.0,
    ) -> None:
        _validate_watermarks(low, high)
        if horizon <= 0:
            raise ReproError(f"forecast horizon must be positive, got {horizon!r}")
        self.low = low
        self.high = high
        self.horizon = horizon
        self.slope_time_constant = slope_time_constant
        self._slope = EWMAFilter(slope_time_constant)
        self._previous: Optional[FleetSample] = None
        self.name = f"predictive[{low:g},{high:g},+{horizon:g}s]"

    def forecast(self, sample: FleetSample) -> float:
        """The busy fraction expected ``horizon`` seconds after ``sample``."""
        slope = self._slope.value or 0.0
        return sample.smoothed_busy_fraction + slope * self.horizon

    def desired_step(self, sample: FleetSample) -> int:
        if self._previous is not None:
            delta_t = sample.time - self._previous.time
            if delta_t > 0:
                instantaneous = (
                    sample.smoothed_busy_fraction
                    - self._previous.smoothed_busy_fraction
                ) / delta_t
                self._slope.update(sample.time, instantaneous)
        self._previous = sample
        forecast = self.forecast(sample)
        if forecast > self.high:
            return 1
        if forecast < self.low and sample.smoothed_busy_fraction < self.high:
            return -1
        return 0


def make_scaling_policy(
    name: str,
    low: float = 0.35,
    high: float = 0.7,
    horizon: float = 15.0,
    slope_time_constant: float = 10.0,
) -> ScalingPolicy:
    """Factory for scaling policies, keyed by a configuration string.

    Recognised names: ``reactive`` and ``predictive``.  (``static`` —
    no autoscaler at all — is a provisioning *mode* of the autoscale
    scenario, not a policy.)
    """
    if name == "reactive":
        return ReactiveThresholdPolicy(low=low, high=high)
    if name == "predictive":
        return PredictiveEwmaPolicy(
            low=low,
            high=high,
            horizon=horizon,
            slope_time_constant=slope_time_constant,
        )
    raise ReproError(f"unknown scaling policy {name!r}")
