"""Shared configuration and helpers for the reproduction benchmarks.

Every benchmark regenerates one figure of the paper (or an ablation) at a
reduced-but-same-shape scale, prints the resulting series as a text
table, and writes the same table under ``benchmarks/output/`` so that
EXPERIMENTS.md can reference the measured numbers.

Scale knobs (environment variables):

* ``REPRO_BENCH_QUERIES`` — queries per Poisson run (default 2000; the
  paper uses 20000).
* ``REPRO_BENCH_RHO_POINTS`` — number of load factors swept by the
  Figure 2 benchmark (default 4; the paper uses 24).
* ``REPRO_BENCH_WIKI_DURATION`` — compressed duration, in seconds, of the
  synthetic Wikipedia day (default 480; the paper replays 86400).
* ``REPRO_BENCH_JOBS`` — worker processes for independent runs within a
  sweep (default 1 = in-process; 0 = all cores).  Results are identical
  for any value (see ``repro.experiments.scenario``), so this is purely a
  wall-clock knob.

Setting these to the paper-scale values reproduces the full evaluation;
the defaults keep the whole benchmark suite in the ten-minute range.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

#: Directory where rendered figure tables are written.
OUTPUT_DIR = Path(__file__).parent / "output"

#: Reduced default scales (see module docstring).
DEFAULT_QUERIES = 2_000
DEFAULT_RHO_POINTS = 4
DEFAULT_WIKI_DURATION = 480.0
DEFAULT_JOBS = 1


def scale_queries() -> int:
    """Queries per Poisson run for the benchmark suite."""
    return int(os.environ.get("REPRO_BENCH_QUERIES", DEFAULT_QUERIES))


def scale_rho_points() -> int:
    """Number of load factors swept by the Figure 2 benchmark."""
    return int(os.environ.get("REPRO_BENCH_RHO_POINTS", DEFAULT_RHO_POINTS))


def scale_wiki_duration() -> float:
    """Compressed duration of the synthetic Wikipedia day, in seconds."""
    return float(os.environ.get("REPRO_BENCH_WIKI_DURATION", DEFAULT_WIKI_DURATION))


def scale_jobs() -> int:
    """Worker processes for independent runs within a sweep."""
    return int(os.environ.get("REPRO_BENCH_JOBS", DEFAULT_JOBS))


def write_output(name: str, text: str) -> None:
    """Print a rendered figure and persist it under ``benchmarks/output/``."""
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUTPUT_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
    print(f"\n{text}\n")


@pytest.fixture(scope="session")
def output_writer():
    """Fixture exposing :func:`write_output` to the benchmarks."""
    return write_output


def run_once(benchmark, function):
    """Run ``function`` exactly once under pytest-benchmark timing.

    The experiments are far too expensive for statistical repetition; a
    single timed round per figure keeps the harness honest about cost
    while still producing a benchmark table.
    """
    return benchmark.pedantic(function, rounds=1, iterations=1)


#: Share of a run's response times, the first in record order, dropped as
#: the fleet's filling transient before its mean is set against the
#: mean-field model's steady state (``tests/test_analysis_oracle.py``
#: drops its leading 500 of 4,000 the same way).
WARM_UP_SHARE = 0.2


def steady_mean_response(run) -> float:
    """Mean response time of ``run`` past its warm-up (:data:`WARM_UP_SHARE`)."""
    times = run.response_times()
    return float(times[int(times.size * WARM_UP_SHARE) :].mean())


def mean_field_response(config, load: float, threshold: int, choices: int) -> float:
    """:func:`sr_mean_field` on a Poisson sweep's fleet at nominal load ``load``."""
    # Imported here: benchmarks/perf's tests can load this conftest without src/ on the path.
    from repro.analysis.queueing import sr_mean_field
    from repro.experiments.calibration import analytic_saturation_rate

    fleet = config.testbed
    return sr_mean_field(
        load * analytic_saturation_rate(fleet, config.service_mean) / fleet.num_servers,
        1.0 / config.service_mean,
        fleet.cores_per_server,
        fleet.workers_per_server + fleet.backlog_capacity,
        threshold,
        choices,
    )
