"""Analytic models used for calibration, validation and ablations.

Contains the Mitzenmacher power-of-d-choices (supermarket) model that
motivates SRLB's two-candidate SR lists, and classic M/M/c / M/M/c/K
queueing formulas used to estimate the testbed's saturation rate and to
cross-check the simulator.
"""

from repro._lazy import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        "power_of_choices": (
            "improvement_over_random",
            "mean_queue_length",
            "mean_time_in_system",
            "tail_probabilities",
        ),
        "queueing": (
            "MMcMetrics",
            "erlang_c",
            "mmc_metrics",
            "mmck_blocking_probability",
            "saturation_rate",
        ),
    },
)
