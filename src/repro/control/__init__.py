"""Elastic control plane: monitoring, scaling policies, server lifecycle.

The paper's data plane (SRv6 Service Hunting over a *fixed* server pool)
composes naturally with the elastic control planes real deployments of
this architecture run: a monitor samples fleet load, a scaling policy
decides when capacity should grow or shrink, and a lifecycle machine
walks each server through provisioning → warm-up → active → graceful
drain → detach, reprogramming the load-balancer layer at every step.

The pieces, each usable on its own:

* :class:`~repro.control.monitor.FleetMonitor` — periodic sampling of
  scoreboard busy-fraction and backlog depth, smoothed through the
  paper's :class:`~repro.metrics.ewma.EWMAFilter`;
* :mod:`repro.control.policy` — pluggable scaling policies: a reactive
  threshold rule with hysteresis, and a predictive EWMA-slope rule;
* :class:`~repro.control.lifecycle.ServerLifecycle` — the per-server
  state machine, including capacity-seconds accounting via
  :class:`~repro.metrics.capacity.CapacityTracker`;
* :class:`~repro.control.autoscaler.Autoscaler` — the control loop
  tying the three together over a
  :class:`~repro.experiments.platform.Testbed`.

The ``autoscale`` scenario family
(:mod:`repro.experiments.autoscale_experiment`) runs this control plane
against a diurnal workload and compares it to static over-provisioning.
"""

from repro._lazy import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        "autoscaler": ("Autoscaler",),
        "gray_failure": (
            "GrayFailureInjector",
            "GrayFailureWatchdog",
            "QuarantineEvent",
        ),
        "lifecycle": ("ManagedServer", "ServerLifecycle", "ServerState"),
        "monitor": ("FleetMonitor", "FleetSample"),
        "policy": (
            "PredictiveEwmaPolicy",
            "ReactiveThresholdPolicy",
            "ScalingPolicy",
            "make_scaling_policy",
        ),
    },
)
