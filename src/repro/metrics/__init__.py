"""Measurement and reporting pipeline.

Contains the response-time collector fed by the traffic generator, the
per-server load sampler, and the statistics the paper's figures are
built from: summary statistics and CDFs, Jain's fairness index, the EWMA
filter used to smooth Figure 4, 10-minute time binning for the Wikipedia
replay, capacity-seconds accounting for the elastic control plane, and
plain-text table rendering for the benchmark output.
"""

from repro._lazy import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        "binning": ("TimeBin", "TimeBinner"),
        "capacity": ("CapacityTracker", "ScalingEvent"),
        "collector": ("CollectorTotals", "ResponseTimeCollector", "ServerLoadSampler"),
        "ewma": (
            "EWMAFilter",
            "alpha_from_interval",
            "smooth_series",
            "smooth_timeseries",
        ),
        "fairness": ("jain_fairness_index",),
        "reporting": ("format_comparison", "format_table"),
        "stats": (
            "SummaryStatistics",
            "cdf_at",
            "deciles",
            "median_or_nan",
            "percentile",
            "quartiles",
            "summarize",
        ),
    },
)
