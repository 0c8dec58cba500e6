"""Wikipedia-replay experiments (paper §VI, Figures 6–8).

The replay generates one synthetic 24-hour trace (see
:mod:`repro.workload.wikipedia` and the substitution note in DESIGN.md)
and replays it under the RR baseline and the SR4 policy — the comparison
the paper runs after SR4 came out best in the Poisson experiments.

Results are reported exactly as the paper does:

* Figure 6 — per-bin wiki-page query rate and median load time;
* Figure 7 — per-bin deciles 1–9 of the wiki-page load time;
* Figure 8 — whole-day CDF of wiki-page load times (plus the quartile
  comparison quoted in the text).

The replay is the ``wikipedia``
:class:`~repro.experiments.scenario.ScenarioSpec` (one cell per policy,
one shared trace), run through
:func:`~repro.experiments.scenario.run_scenario`; its result is a
:class:`~repro.experiments.scenario.ScenarioResult` keyed by policy name,
with the trace summary in ``meta["trace_summary"]``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import nan
from typing import Dict, List, Tuple

import numpy as np

from repro.experiments import registry
from repro.experiments.config import TestbedConfig, WikipediaReplayConfig
from repro.experiments.platform import build_testbed
from repro.experiments.scenario import (
    RunResult,
    ScenarioCell,
    ScenarioResult,
    ScenarioSpec,
    TraceProvider,
    policy_named,
)
from repro.metrics.binning import TimeBinner
from repro.metrics.stats import quartiles
from repro.workload.requests import KIND_WIKI
from repro.workload.trace import Trace
from repro.workload.wikipedia import SyntheticWikipediaWorkload


def make_wikipedia_trace(config: WikipediaReplayConfig) -> Trace:
    """Generate the synthetic replay trace described by ``config``."""
    workload = SyntheticWikipediaWorkload(
        replay_fraction=config.replay_fraction,
        static_per_wiki=config.static_per_wiki,
        duration=config.duration,
    )
    rng = np.random.default_rng(config.workload_seed)
    return workload.generate(rng)


@dataclass
class WikipediaRunResult(RunResult):
    """One policy's replay, with the binning its figures read."""

    bin_width: float
    trace_duration: float

    def wiki_binned(self) -> TimeBinner:
        """Wiki-page response times binned by arrival time."""
        return self.collector.binned(bin_width=self.bin_width, kind=KIND_WIKI)

    def wiki_response_times(self) -> np.ndarray:
        """All wiki-page response times (Figure 8's CDF input)."""
        return self.collector.response_times(kind=KIND_WIKI)

    def median_series(self) -> List[Tuple[float, float]]:
        """Per-bin median wiki-page load time (Figure 6, bottom panel)."""
        return self.wiki_binned().median_series(through=self.trace_duration)

    def rate_series(self) -> List[Tuple[float, float]]:
        """Per-bin wiki-page query rate (Figure 6, top panel)."""
        return self.wiki_binned().rate_series(through=self.trace_duration)

    def decile_series(self) -> List[Tuple[float, List[float]]]:
        """Per-bin deciles 1–9 of the wiki-page load time (Figure 7)."""
        return self.wiki_binned().decile_series(through=self.trace_duration)

    def wiki_quartiles(self) -> Tuple[float, float, float]:
        """Whole-day quartiles of the wiki-page load time (Figure 8 text).

        NaNs when no wiki query completed (a replay too short to hold
        one), as every results table prints an empty sample.
        """
        times = self.wiki_response_times()
        if times.size == 0:
            return (nan, nan, nan)
        return quartiles(times)


class WikipediaScenario(ScenarioSpec):
    """The synthetic Wikipedia replay as a declarative scenario."""

    name = "wikipedia"

    def smoke_config(self) -> WikipediaReplayConfig:
        return replace(
            WikipediaReplayConfig(
                testbed=TestbedConfig(
                    num_servers=4, workers_per_server=8, backlog_capacity=16
                )
            ),
            static_per_wiki=0.2,
        ).compressed(duration=40.0)

    def config_from_flags(
        self, config: WikipediaReplayConfig, flags
    ) -> WikipediaReplayConfig:
        # ``--duration`` compresses the day: the bins shrink with it, so
        # the figures keep the paper's 144.
        day = self.default_config().duration
        return replace(config, duration=day).compressed(config.duration)

    # trace_key: the default (one shared trace for every policy).

    def make_trace(
        self, config: WikipediaReplayConfig, cell: ScenarioCell
    ) -> Trace:
        return make_wikipedia_trace(config)

    def run_once(
        self, config: WikipediaReplayConfig, cell: ScenarioCell, trace: Trace
    ) -> WikipediaRunResult:
        policy = policy_named(config, cell.key)
        with build_testbed(
            config.testbed, policy, run_name=f"wikipedia-{policy.name}"
        ) as testbed:
            duration = testbed.run_trace(trace)
        return WikipediaRunResult.of(
            testbed,
            duration,
            bin_width=config.bin_width,
            trace_duration=trace.duration,
        )

    def meta(
        self, config: WikipediaReplayConfig, trace_for: TraceProvider
    ) -> Dict[str, object]:
        summary = trace_for(self.cells(config)[0]).summary()
        return {
            "trace_summary": {
                "requests": float(summary.num_requests),
                "duration": summary.duration,
                "mean_rate": summary.mean_rate,
                "mean_demand": summary.mean_demand,
            }
        }

    def render(self, result: ScenarioResult) -> str:
        from repro.experiments import figures

        return figures.render_figure6(result)

    def report(self, result: ScenarioResult) -> str:
        """Figure 6 between the trace banner and the whole-day quartiles."""
        summary = result.meta["trace_summary"]
        lines = [
            "generated synthetic trace: "
            f"{int(summary['requests'])} requests over "
            f"{summary['duration']:.0f} s "
            f"(replay fraction {result.config.replay_fraction:g})",
            "",
            self.render(result),
            "",
        ]
        for name in result.keys():
            _q1, median, q3 = result.run(name).wiki_quartiles()
            lines.append(
                f"{name}: whole-day median={median:.3f} s, third quartile={q3:.3f} s"
            )
        return "\n".join(lines)


#: The registered spec instance (also reachable via ``registry.get``).
WIKIPEDIA_SCENARIO = registry.register(WikipediaScenario())
