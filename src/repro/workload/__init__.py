"""Workload generators and the traffic-generator client.

Provides the paper's two workloads — the Poisson stream of CPU-bound PHP
queries (§V) and the 24-hour Wikipedia replay (§VI, synthesised per the
substitution recorded in DESIGN.md) — plus the columnar trace data model
and the open-loop client node that replays traces against the load
balancer.
"""

from repro._lazy import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        "client": ("OutcomeSink", "RequestOutcome", "TrafficGeneratorNode", "stable_user_port"),
        "diurnal": ("DiurnalWorkload",),
        "flash_crowd": ("RatePhase", "SteppedPoissonWorkload"),
        "hostile": (
            "HeavyTailWorkload",
            "SynFloodAttacker",
            "UserConcentration",
            "find_colliding_flow_keys",
            "spoofed_source_flows",
            "user_concentration",
        ),
        "poisson": ("PoissonWorkload",),
        "requests": (
            "KIND_HEAVY",
            "KIND_PHP",
            "KIND_SESSION",
            "KIND_STATIC",
            "KIND_WIKI",
            "Request",
        ),
        "service_models": (
            "BoundedParetoServiceTime",
            "DeterministicServiceTime",
            "ExponentialServiceTime",
            "LognormalServiceTime",
            "ServiceTimeModel",
            "StaticPageServiceTime",
            "WikiPageServiceTime",
        ),
        "trace": ("Trace", "TraceSummary"),
        "wikipedia": (
            "DiurnalRateCurve",
            "SECONDS_PER_DAY",
            "SyntheticWikipediaWorkload",
        ),
    },
)
