"""Golden bit-identity tests for the scenario-framework port.

``tests/data/scenario_golden.json`` holds fingerprints (full-precision
float reprs and SHA-256 hashes of float64 series) captured from the
*pre-refactor* experiment code — the bespoke per-family sweep drivers
that predate :mod:`repro.experiments.scenario`.  These tests re-run the
same configurations through the framework, with ``jobs=1`` and
``jobs=2``, and require byte-for-byte identical mean-response series,
CDFs, and churn observations.

If one of these fails, the scenario port (or a later change to the
shared pipeline) altered experiment *results*, not just structure —
which the refactor explicitly promises never to do.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.config import (
    ChurnEvent,
    PoissonSweepConfig,
    ResilienceConfig,
    TestbedConfig,
    WikipediaReplayConfig,
    rr_policy,
    sr_policy,
)
from repro.experiments.scenario import run_scenario
from repro.metrics.stats import empirical_cdf

GOLDEN_PATH = Path(__file__).parent / "data" / "scenario_golden.json"

#: The exact testbed the fingerprints were captured on.
SMALL_TESTBED = TestbedConfig(
    num_servers=4, workers_per_server=8, cores_per_server=2, backlog_capacity=16
)

JOBS = (1, 2)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def _series_hash(values) -> str:
    """SHA-256 of the float64 byte representation — bitwise, not approx."""
    return hashlib.sha256(
        np.asarray(values, dtype=np.float64).tobytes()
    ).hexdigest()


class TestPoissonGolden:
    @pytest.fixture(scope="class", params=JOBS)
    def sweep(self, request):
        config = PoissonSweepConfig(
            testbed=SMALL_TESTBED,
            load_factors=(0.4, 0.75),
            num_queries=250,
            policies=(rr_policy(), sr_policy(4)),
        )
        return run_scenario("poisson", config, jobs=request.param)

    @pytest.mark.parametrize("policy", ["RR", "SR4"])
    def test_mean_response_series_bitwise(self, golden, sweep, policy):
        expected = golden["poisson"][policy]["mean_series"]
        got = [[rho, repr(mean)] for rho, mean in sweep.mean_response_series(policy)]
        assert got == expected

    @pytest.mark.parametrize("policy", ["RR", "SR4"])
    @pytest.mark.parametrize("rho", [0.4, 0.75])
    def test_response_times_and_cdf_bitwise(self, golden, sweep, policy, rho):
        expected = golden["poisson"][policy]
        run = sweep.run(policy, rho)
        assert _series_hash(run.response_times()) == expected["response_times"][repr(rho)]
        cdf = np.asarray(empirical_cdf(run.response_times())).ravel()
        assert _series_hash(cdf) == expected["cdf"][repr(rho)]


class TestWikipediaGolden:
    @pytest.fixture(scope="class", params=JOBS)
    def replay(self, request):
        config = WikipediaReplayConfig(testbed=SMALL_TESTBED).compressed(
            duration=60.0
        )
        return run_scenario("wikipedia", config, jobs=request.param)

    def test_trace_summary_bitwise(self, golden, replay):
        expected = golden["wikipedia"]["trace_summary"]
        got = {key: repr(value) for key, value in replay.meta["trace_summary"].items()}
        assert got == expected

    @pytest.mark.parametrize("policy", ["RR", "SR4"])
    def test_series_bitwise(self, golden, replay, policy):
        expected = golden["wikipedia"][policy]
        run = replay.run(policy)
        assert _series_hash(run.wiki_response_times()) == expected["wiki_response_times"]
        assert (
            _series_hash([v for pair in run.median_series() for v in pair])
            == expected["median_series"]
        )
        assert (
            _series_hash([v for pair in run.rate_series() for v in pair])
            == expected["rate_series"]
        )
        assert run.requests_served == expected["requests_served"]
        assert run.connections_reset == expected["connections_reset"]


class TestAutoscaleGolden:
    @pytest.fixture(scope="class", params=JOBS)
    def result(self, request):
        from repro.experiments.autoscale_experiment import AUTOSCALE_SCENARIO

        return run_scenario(
            "autoscale", AUTOSCALE_SCENARIO.smoke_config(), jobs=request.param
        )

    @pytest.mark.parametrize("mode", ["static", "reactive", "predictive"])
    def test_run_results_bitwise(self, golden, result, mode):
        expected = golden["autoscale"][mode]
        run = result.run(mode)
        assert _series_hash(run.collector.response_times()) == expected["response_times"]
        assert repr(run.capacity_seconds) == expected["capacity_seconds"]
        capacity_steps = [
            [repr(time), repr(value)] for time, value in run.capacity.series()
        ]
        assert capacity_steps == expected["capacity_steps"]
        events = [
            [repr(event.time), event.action, event.servers_before, event.servers_after]
            for event in run.capacity.events
        ]
        assert events == expected["scaling_events"]
        assert [repr(d) for d in run.capacity.drain_durations] == expected[
            "drain_durations"
        ]
        assert run.requests_served == expected["requests_served"]
        assert run.connections_reset == expected["connections_reset"]


class TestHeavyTailGolden:
    @pytest.fixture(scope="class", params=JOBS)
    def comparison(self, request):
        from repro.experiments.heavy_tail_experiment import HEAVY_TAIL_SCENARIO

        return run_scenario(
            "heavy-tail", HEAVY_TAIL_SCENARIO.smoke_config(), jobs=request.param
        )

    def test_user_concentration_bitwise(self, golden, comparison):
        expected = golden["heavy-tail"]["users"]
        users = comparison.meta["users"]
        assert users.num_requests == expected["num_requests"]
        assert users.num_sessions == expected["num_sessions"]
        assert users.num_heavy == expected["num_heavy"]
        assert users.distinct_users == expected["distinct_users"]
        assert repr(users.top_user_share) == expected["top_user_share"]
        assert users.max_user_requests == expected["max_user_requests"]

    @pytest.mark.parametrize("policy", ["RR", "SR4", "SRdyn"])
    def test_run_results_bitwise(self, golden, comparison, policy):
        from repro.workload.requests import KIND_HEAVY, KIND_SESSION

        expected = golden["heavy-tail"][policy]
        run = comparison.run(policy)
        assert _series_hash(run.collector.response_times()) == expected["response_times"]
        assert repr(run.summary.mean) == expected["mean"]
        assert repr(run.summary.p99) == expected["p99"]
        assert repr(run.kind_summary(KIND_SESSION).p99) == expected["p99_session"]
        assert repr(run.kind_summary(KIND_HEAVY).p99) == expected["p99_heavy"]
        totals = run.collector.totals
        assert totals.completed == expected["completed"]
        assert totals.failed == expected["failed"]
        assert run.queries_hung == expected["queries_hung"]
        assert run.requests_served == expected["requests_served"]
        assert run.connections_reset == expected["connections_reset"]
        assert run.affinity_hits == expected["affinity_hits"]
        assert run.affinity_fallbacks == expected["affinity_fallbacks"]


class TestAdversarialGolden:
    @pytest.fixture(scope="class", params=JOBS)
    def comparison(self, request):
        from repro.experiments.adversarial_experiment import ADVERSARIAL_SCENARIO

        return run_scenario(
            "adversarial", ADVERSARIAL_SCENARIO.smoke_config(), jobs=request.param
        )

    @pytest.mark.parametrize(
        "mode", ["baseline", "syn-flood", "hash-collision", "gray-failure"]
    )
    def test_run_results_bitwise(self, golden, comparison, mode):
        expected = golden["adversarial"][mode]
        run = comparison.run(mode)
        assert _series_hash(run.collector.response_times()) == expected["response_times"]
        assert repr(run.summary.mean) == expected["mean"]
        assert repr(run.summary.p99) == expected["p99"]
        assert repr(run.completion_rate) == expected["completion_rate"]
        assert run.requests_served == expected["requests_served"]
        assert run.connections_reset == expected["connections_reset"]
        assert run.connections_timed_out == expected["connections_timed_out"]
        assert run.queries_hung == expected["queries_hung"]
        assert run.steering_misses == expected["steering_misses"]
        assert run.recovery_hunts == expected["recovery_hunts"]
        assert run.attack_syns_sent == expected["attack_syns_sent"]
        got_bucket = (
            None
            if run.attack_bucket_share is None
            else repr(run.attack_bucket_share)
        )
        assert got_bucket == expected["attack_bucket_share"]
        assert run.flow_entries_created == expected["flow_entries_created"]
        assert run.flow_entries_expired == expected["flow_entries_expired"]
        assert run.flow_entries_live == expected["flow_entries_live"]
        got_delay = (
            None if run.quarantine_delay is None else repr(run.quarantine_delay)
        )
        assert got_delay == expected["quarantine_delay"]
        assert list(run.quarantined) == expected["quarantined"]

    def test_collision_concentrates_on_one_bucket(self, comparison):
        # Acceptance criterion: the offline 5-tuple search must land at
        # least 90% of attack flows on the targeted ECMP bucket when
        # checked against the *live* router.
        run = comparison.run("hash-collision")
        assert run.attack_bucket_share is not None
        assert run.attack_bucket_share >= 0.9

    def test_legit_traffic_survives_attacks(self, comparison):
        # The attacks degrade but must not extinguish legitimate
        # service: under either flood at least 40% of legitimate
        # queries still complete, and the gray-failure mode (with the
        # watchdog quarantining the slow server) stays lossless.
        assert comparison.run("baseline").completion_rate == 1.0
        assert comparison.run("syn-flood").completion_rate >= 0.4
        assert comparison.run("hash-collision").completion_rate >= 0.4
        assert comparison.run("gray-failure").completion_rate == 1.0


class TestChaosGolden:
    @pytest.fixture(scope="class", params=JOBS)
    def comparison(self, request):
        from repro.experiments.chaos_experiment import CHAOS_SCENARIO

        return run_scenario("chaos", CHAOS_SCENARIO.smoke_config(), jobs=request.param)

    @pytest.mark.parametrize("mode", ["baseline", "loss", "flap", "jitter"])
    def test_run_results_bitwise(self, golden, comparison, mode):
        expected = golden["chaos"][mode]
        run = comparison.run(mode)
        assert run.fingerprint == expected["fingerprint"]
        assert run.collector.totals.completed == expected["completed"]
        assert run.collector.totals.failed == expected["failed"]
        assert run.requests_served == expected["requests_served"]
        assert run.connections_reset == expected["connections_reset"]
        assert run.connections_shed == expected["connections_shed"]
        assert run.queries_retried == expected["queries_retried"]
        assert run.queries_gave_up == expected["queries_gave_up"]
        assert run.queries_swept == expected["queries_swept"]
        assert run.syn_retransmits == expected["syn_retransmits"]
        assert run.fault_packets_seen == expected["fault_packets_seen"]
        assert run.fault_packets_dropped == expected["fault_packets_dropped"]
        assert run.fault_dropped_loss == expected["fault_dropped_loss"]
        assert run.fault_dropped_burst == expected["fault_dropped_burst"]
        assert run.fault_dropped_corrupted == expected["fault_dropped_corrupted"]
        assert run.fault_dropped_link_down == expected["fault_dropped_link_down"]
        assert run.fault_delayed_jitter == expected["fault_delayed_jitter"]
        assert run.fault_reordered == expected["fault_reordered"]
        assert repr(run.summary.mean) == expected["mean"]
        assert repr(run.summary.p99) == expected["p99"]

    def test_baseline_is_bit_identical_to_no_fault_plane(self, comparison):
        # The ``baseline`` cell installs the pipeline with every injector
        # disabled; it must fingerprint identically to a run with no
        # pipeline installed at all.
        from repro.experiments.chaos_experiment import (
            CHAOS_SCENARIO,
            outcome_fingerprint,
        )
        from repro.experiments.platform import build_testbed

        config = CHAOS_SCENARIO.smoke_config()
        (cell, *_) = CHAOS_SCENARIO.cells(config)
        testbed = build_testbed(config.testbed, config.policy, run_name="chaos-baseline")
        testbed.run_trace(CHAOS_SCENARIO.make_trace(config, cell))
        bare = outcome_fingerprint(testbed.collector)
        assert comparison.run("baseline").fingerprint == bare

    def test_loss_cell_recovers_queries(self, comparison):
        # Acceptance criterion: under the 1% loss cell the client's
        # retransmission/retry path must recover at least 99% of the
        # queries, and every query that did not complete must be
        # accounted for by the give-up counter (no silent leaks).
        run = comparison.run("loss")
        assert run.completion_rate >= 0.99
        assert run.queries_gave_up == run.collector.totals.failed
        assert (
            run.collector.totals.completed + run.collector.totals.failed
            == run.config.num_queries
        )

    def test_fault_drop_counters_reconcile(self, comparison):
        # Every drop is counted once in the unified total and once in
        # exactly one reason counter, for every cell.
        for mode in comparison.keys():
            run = comparison.run(mode)
            assert run.fault_packets_dropped == (
                run.fault_dropped_loss
                + run.fault_dropped_burst
                + run.fault_dropped_corrupted
                + run.fault_dropped_link_down
            )


class TestResilienceGolden:
    @pytest.fixture(scope="class", params=JOBS)
    def comparison(self, request):
        config = ResilienceConfig(
            testbed=TestbedConfig(
                num_servers=6,
                workers_per_server=8,
                num_load_balancers=4,
                request_spread=1.5,
                request_chunks=4,
            ),
            load_factor=0.6,
            num_queries=500,
            service_mean=0.05,
            churn=(ChurnEvent(at_fraction=0.5),),
        )
        return run_scenario("resilience", config, jobs=request.param)

    @pytest.mark.parametrize("scheme", ["random", "consistent-hash"])
    def test_churn_results_bitwise(self, golden, comparison, scheme):
        expected = golden["resilience"][scheme]
        run = comparison.run(scheme)
        assert run.broken_flows == expected["broken_flows"]
        assert run.in_flight_at_churn == expected["in_flight_at_churn"]
        assert run.recovery_hunts == expected["recovery_hunts"]
        assert run.steering_misses == expected["steering_misses"]
        assert _series_hash(run.collector.response_times()) == expected["response_times"]
        observations = [
            [repr(obs.at_time), obs.instance, sorted(obs.in_flight_ids)]
            for obs in run.observations
        ]
        assert observations == expected["observations"]
