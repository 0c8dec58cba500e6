"""Shared Wikipedia-replay run for the Figure 6/7/8 benchmarks.

The three Wikipedia figures are different views of the *same* replay
(per-bin medians, per-bin deciles, whole-day CDF), so the replay is run
once and cached at module scope; the first benchmark that needs it pays
the cost, the others reuse the result and only measure their series
extraction.  Setting ``REPRO_BENCH_WIKI_DURATION`` rescales the
compressed day for all three.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache

from benchmarks.conftest import scale_wiki_duration
from repro.experiments.config import WikipediaReplayConfig
from repro.experiments.scenario import ScenarioResult, run_scenario
from repro.experiments.wikipedia_experiment import make_wikipedia_trace


@lru_cache(maxsize=1)
def replay_config() -> WikipediaReplayConfig:
    """The benchmark-scale replay configuration (compressed day)."""
    base = dataclasses.replace(WikipediaReplayConfig(), static_per_wiki=0.5)
    return base.compressed(duration=scale_wiki_duration())


@lru_cache(maxsize=1)
def replay_result() -> ScenarioResult:
    """Run the replay once (RR and SR4) and cache the result."""
    config = replay_config()
    trace = make_wikipedia_trace(config)
    return run_scenario("wikipedia", config, trace=trace)
