"""Integration tests: reduced-scale versions of the paper's experiments.

These runs use the full paper topology (12 servers, 32 workers, 2 cores)
but far fewer queries than the paper, so they finish in seconds while
still exercising every moving part end to end.  Assertions target the
*qualitative* findings of the paper: SR4 beats RR under heavy load, high
thresholds bring little benefit under light load, SRdyn tracks the best
static policy, the fairness index improves, and overload produces resets
rather than hangs.
"""

import dataclasses

import pytest

from repro.errors import ExperimentError
from repro.experiments.calibration import (
    analytic_saturation_rate,
    find_empirical_saturation_rate,
)
from repro.experiments.config import (
    PoissonSweepConfig,
    TestbedConfig,
    WikipediaReplayConfig,
    rr_policy,
    sr_policy,
    srdyn_policy,
)
from repro.experiments.scenario import run_scenario
from repro.experiments.wikipedia_experiment import make_wikipedia_trace
from repro.experiments import figures
from repro.metrics.fairness import jain_fairness_index
from repro.workload.requests import KIND_STATIC

#: Queries per run: small enough for CI, large enough for stable means.
NUM_QUERIES = 2_500


def _poisson_runs(policies, load_factor, num_queries, sample_load=False):
    """One run per policy at ``load_factor`` on the paper's testbed, by name."""
    config = PoissonSweepConfig(
        load_factors=(load_factor,), num_queries=num_queries, policies=tuple(policies)
    )
    sweep = run_scenario("poisson", config, sample_load=sample_load)
    return {policy.name: sweep.run((policy.name, load_factor)) for policy in policies}


@pytest.fixture(scope="module")
def heavy_load_runs():
    """RR, SR4 and SRdyn at the paper's heavy load factor (shared by tests)."""
    return _poisson_runs(
        (rr_policy(), sr_policy(4), srdyn_policy()), 0.88, NUM_QUERIES, sample_load=True
    )


class TestHeavyLoadComparison:
    def test_all_queries_complete_without_drops(self, heavy_load_runs):
        for name, run in heavy_load_runs.items():
            assert run.collector.totals.completed == NUM_QUERIES, name
            assert run.collector.totals.failed == 0, name

    def test_sr4_beats_rr_substantially(self, heavy_load_runs):
        rr_mean = heavy_load_runs["RR"].mean_response_time
        sr4_mean = heavy_load_runs["SR4"].mean_response_time
        assert sr4_mean < 0.75 * rr_mean

    def test_srdyn_tracks_the_best_static_policy(self, heavy_load_runs):
        rr_mean = heavy_load_runs["RR"].mean_response_time
        sr4_mean = heavy_load_runs["SR4"].mean_response_time
        dyn_mean = heavy_load_runs["SRdyn"].mean_response_time
        assert dyn_mean < rr_mean
        # Within 50% of SR4: "close to the best static policy" without
        # requiring it to win.
        assert dyn_mean < 1.5 * sr4_mean

    def test_response_time_tail_is_shorter_with_sr4(self, heavy_load_runs):
        rr_p90 = heavy_load_runs["RR"].collector.summary().p90
        sr4_p90 = heavy_load_runs["SR4"].collector.summary().p90
        assert sr4_p90 < rr_p90

    def test_sr4_spreads_load_more_fairly(self, heavy_load_runs):
        def mean_fairness(run):
            samples = [
                jain_fairness_index(row)
                for row in run.load_sampler.samples
                if sum(row) > 0
            ]
            return sum(samples) / len(samples)

        assert mean_fairness(heavy_load_runs["SR4"]) > mean_fairness(heavy_load_runs["RR"])

    def test_every_query_is_accounted_for_at_the_servers(self, heavy_load_runs):
        for run in heavy_load_runs.values():
            assert run.counters["server.requests_served"] == NUM_QUERIES
            assert sum(run.acceptance_counts.values()) == NUM_QUERIES


class TestLightLoadComparison:
    def test_high_thresholds_bring_no_benefit_under_light_load(self):
        runs = _poisson_runs((rr_policy(), sr_policy(4), sr_policy(16)), 0.3, NUM_QUERIES)
        results = {name: run.mean_response_time for name, run in runs.items()}
        # SR16 is essentially RR at this load (within 15 %), while SR4
        # still helps.
        assert results["SR16"] == pytest.approx(results["RR"], rel=0.15)
        assert results["SR4"] <= results["RR"] * 1.05


class TestOverload:
    def test_overload_produces_resets_not_hangs(self):
        run = _poisson_runs((rr_policy(),), 1.6, 4_000)["RR"]
        totals = run.collector.totals
        # Every query terminated (served or reset): nothing hangs.
        assert totals.total == 4_000
        assert totals.failed > 0
        assert run.counters["server.connections_reset"] == totals.failed

    def test_no_resets_below_saturation(self):
        run = _poisson_runs((sr_policy(4),), 0.7, NUM_QUERIES)["SR4"]
        assert run.counters["server.connections_reset"] == 0


class TestPoissonSweep:
    def test_sweep_produces_figure2_series(self):
        config = PoissonSweepConfig(
            load_factors=(0.5, 0.88),
            num_queries=1_200,
            policies=(rr_policy(), sr_policy(4)),
        )
        sweep = run_scenario("poisson", config)
        series = figures.figure2_series(sweep)
        assert set(series) == {"RR", "SR4"}
        assert [rho for rho, _ in series["RR"]] == [0.5, 0.88]
        # Response times grow with load for both policies.
        assert series["RR"][1][1] > series["RR"][0][1]
        # SR4 is no worse than RR at the heavy point.
        assert series["SR4"][1][1] <= series["RR"][1][1]
        text = figures.render_figure2(sweep)
        assert "Figure 2" in text and "SR4" in text

    def test_cdf_and_figure4_renderers(self):
        runs = _poisson_runs((rr_policy(), sr_policy(4)), 0.88, 800, sample_load=True)
        cdf_text = figures.render_figure_cdf(runs, title="Figure 3")
        assert "Figure 3" in cdf_text
        fig4 = figures.figure4_series(runs)
        assert set(fig4) == {"RR", "SR4"}
        assert len(fig4["RR"].mean_load) > 0
        fig4_text = figures.render_figure4(runs)
        assert "fairness" in fig4_text


class TestCalibrationProcedure:
    def test_empirical_rate_brackets_the_analytic_estimate(self):
        config = dataclasses.replace(TestbedConfig(), num_servers=4)
        result = find_empirical_saturation_rate(
            config, num_queries=1_500, num_iterations=3
        )
        analytic = analytic_saturation_rate(config)
        assert result.analytic_rate == pytest.approx(analytic)
        assert 0.7 * analytic <= result.saturation_rate <= 1.6 * analytic
        assert len(result.probes) >= 2

    def test_a_negative_iteration_count_is_refused_before_any_probe(self):
        with pytest.raises(ExperimentError, match=r"num_iterations must be non-negative, got -1"):
            find_empirical_saturation_rate(num_iterations=-1)

    def test_zero_iterations_probes_the_bracket_only(self):
        config = TestbedConfig(num_servers=2, workers_per_server=4)
        result = find_empirical_saturation_rate(config, num_queries=100, num_iterations=0)
        assert 1 <= len(result.probes) <= 2


class TestWikipediaReplay:
    @pytest.fixture(scope="class")
    def replay_result(self):
        config = dataclasses.replace(
            WikipediaReplayConfig(), static_per_wiki=0.25
        ).compressed(duration=240.0)
        trace = make_wikipedia_trace(config)
        return run_scenario("wikipedia", config, trace=trace), trace

    def test_replay_completes_for_both_policies(self, replay_result):
        result, trace = replay_result
        for name in ("RR", "SR4"):
            run = result.run(name)
            totals = run.collector.totals
            assert totals.total == len(trace)

    def test_static_pages_are_fast_for_both_policies(self, replay_result):
        result, _ = replay_result
        for name in ("RR", "SR4"):
            static_times = result.run(name).collector.response_times(kind=KIND_STATIC)
            assert static_times.size, "static requests must be present"
            assert sorted(static_times)[len(static_times) // 2] < 0.2

    def test_figure_series_have_consistent_shapes(self, replay_result):
        result, trace = replay_result
        fig6 = figures.figure6_series(result)
        assert set(fig6) == {"RR", "SR4"}
        assert len(fig6["RR"]["rate"]) == len(fig6["SR4"]["median"])
        fig7 = figures.figure7_series(result)
        assert all(len(deciles) == 9 for _, deciles in fig7["RR"])
        assert "Figure 6" in figures.render_figure6(result)
        assert "Figure 7" in figures.render_figure7(result, "SR4")
        assert "Figure 8" in figures.render_figure8(result)

    def test_sr4_whole_day_distribution_is_no_worse_than_rr(self, replay_result):
        result, _ = replay_result
        rr_q3 = result.run("RR").wiki_quartiles()[2]
        sr4_q3 = result.run("SR4").wiki_quartiles()[2]
        assert sr4_q3 <= rr_q3 * 1.05
