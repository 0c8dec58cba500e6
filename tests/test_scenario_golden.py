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
from repro.experiments.scenario import ScenarioCell, run_scenario

GOLDEN_PATH = Path(__file__).parent / "data" / "scenario_golden.json"

#: The exact testbed the fingerprints were captured on.
SMALL_TESTBED = TestbedConfig(
    num_servers=4, workers_per_server=8, cores_per_server=2, backlog_capacity=16
)

JOBS = (1, 2)


def _run(request, observe, scenario, config):
    """``scenario`` at the fixture's ``jobs``; under ``pytest --telemetry``
    (``make telemetry-smoke``) every testbed attaches the probe, and
    every run must then carry its payload home."""
    config = observe(config)
    result = run_scenario(scenario, config, jobs=request.param)
    observed = config.testbed.telemetry
    for key in result.keys():
        assert (result.run(key).telemetry is not None) == observed, key
    return result


def _empirical_cdf(values):
    """``(x, p)``: the sorted sample and the fraction at or below each value."""
    x = np.sort(np.asarray(values, dtype=float))
    return x, np.arange(1, x.size + 1) / x.size


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


#: Golden counter name -> the ``Testbed.counters()`` key it pins.
GOLDEN_COUNTERS = {
    "requests_served": "server.requests_served",
    "connections_reset": "server.connections_reset",
    "connections_shed": "server.connections_shed",
    "connections_timed_out": "server.connections_timed_out",
    "queries_hung": "client.queries_swept",
    "queries_swept": "client.queries_swept",
    "queries_retried": "client.queries_retried",
    "queries_gave_up": "client.queries_gave_up",
    "syn_retransmits": "client.syn_retransmits",
    "affinity_hits": "client.affinity_hits",
    "affinity_fallbacks": "client.affinity_fallbacks",
    "steering_misses": "lb.steering_misses",
    "recovery_hunts": "lb.recovery_hunts",
    "flow_entries_created": "flow.entries_created",
    "flow_entries_expired": "flow.entries_expired",
    "flow_entries_live": "flow.entries_live",
    "fault_packets_seen": "fault.packets_sent",
    "fault_packets_dropped": "fault.packets_dropped",
    "fault_dropped_loss": "fault.packets_dropped_loss",
    "fault_dropped_burst": "fault.packets_dropped_burst",
    "fault_dropped_corrupted": "fault.packets_dropped_corrupted",
    "fault_dropped_link_down": "fault.packets_dropped_link_down",
    "fault_delayed_jitter": "fault.packets_delayed_jitter",
    "fault_reordered": "fault.packets_reordered",
}


def _assert_golden_counters(run, expected) -> None:
    """Every golden counter of a cell equals its ``counters()`` entry."""
    pinned = {name: expected[name] for name in GOLDEN_COUNTERS if name in expected}
    assert {name: run.counters[GOLDEN_COUNTERS[name]] for name in pinned} == pinned


def _assert_accounting_identities(run, queries: int, policy: str = "SR8") -> None:
    """Identities between a finished cell's outcomes and its counters.

    ``policy`` names the cell's policy: RR hands each SYN one candidate,
    every other policy two.
    """
    counters = run.counters
    totals = run.collector.totals
    # Each query of the trace ends in exactly one outcome, and the client
    # counts the same outcomes the collector holds.
    assert totals.completed + totals.failed == queries
    assert counters["client.queries_started"] == queries
    assert counters["client.queries_completed"] == totals.completed
    assert counters["client.queries_failed"] == totals.failed
    # A query the client gave up on is a failed one, and a query the
    # final sweep closed was given up on; the collector's per-outcome
    # columns hold the same give-ups and retries the client counted.
    columns = run.collector.columns()
    assert counters["client.queries_gave_up"] <= counters["client.queries_failed"]
    assert counters["client.queries_swept"] <= counters["client.queries_gave_up"]
    assert counters["client.queries_gave_up"] == int(columns.gave_up.sum())
    assert counters["client.queries_retried"] == int(columns.retries.sum())
    # Every flow entry the LBs made is still live or left one way.
    assert counters["flow.entries_created"] == (
        counters["flow.entries_expired"]
        + counters["flow.entries_evicted"]
        + counters["flow.entries_live"]
    )
    # Every accepted connection ends exactly one way, or is still open
    # when the run ends.  Only a churn leaves one open: the client gives
    # up on a flow whose LB died with its steering state, and with no
    # request timeout the server holds that connection to the end.
    assert counters["server.connections_received"] == (
        counters["server.requests_served"]
        + counters["server.connections_reset"]
        + counters["server.connections_shed"]
        + counters["server.connections_timed_out"]
        + getattr(run, "broken_flows", 0)
    )
    if not any(name.startswith("fault.") for name in counters):
        # Without a fault plane nothing is lost, so nothing is served
        # twice: every served request is one completed query.
        assert counters["server.requests_served"] == totals.completed
        # Every dispatched SYN lands on exactly one server: the last
        # candidate must accept (the paper's satisfiability, section II-A).
        assert counters["lb.syn_dispatched"] == counters["server.connections_received"]
        # Every admitted connection's SYN-ACK teaches an LB its binding.
        assert counters["lb.acceptances_learned"] == (
            counters["server.connections_received"]
            - counters["server.connections_reset"]
            - counters["server.connections_shed"]
        )
        # Every SYN a server receives is one it accepted by choice or
        # was forced to accept; a refusal sends the SYN on to the second
        # and last candidate, which is forced.  RR's one candidate is
        # always forced, so nothing is refused.
        assert counters["hunt.accepted_by_choice"] + counters["hunt.accepted_forced"] == (
            counters["server.connections_received"]
        )
        refused = 0 if policy == "RR" else counters["hunt.accepted_forced"]
        assert counters["hunt.refused"] == refused
    else:
        # Every fault drop is filed under exactly one reason.
        assert counters["fault.packets_dropped"] == sum(
            value
            for name, value in counters.items()
            if name.startswith("fault.packets_dropped_")
        )
        # The pipeline wraps the fabric's channel: it is offered every
        # packet the fabric counts as delivered (before it may drop it).
        assert counters["fault.packets_sent"] == counters["fabric.packets_delivered"]


def _series_hash(values) -> str:
    """SHA-256 of the float64 byte representation — bitwise, not approx."""
    return hashlib.sha256(
        np.asarray(values, dtype=np.float64).tobytes()
    ).hexdigest()


class TestPoissonGolden:
    @pytest.fixture(scope="class", params=JOBS)
    def sweep(self, request, observe):
        config = PoissonSweepConfig(
            testbed=SMALL_TESTBED,
            load_factors=(0.4, 0.75),
            num_queries=250,
            policies=(rr_policy(), sr_policy(4)),
        )
        return _run(request, observe, "poisson", config)

    @pytest.mark.parametrize("policy", ["RR", "SR4"])
    def test_mean_response_series_bitwise(self, golden, sweep, policy):
        expected = golden["poisson"][policy]["mean_series"]
        from repro.experiments.figures import figure2_series

        got = [[rho, repr(mean)] for rho, mean in figure2_series(sweep)[policy]]
        assert got == expected

    @pytest.mark.parametrize("policy", ["RR", "SR4"])
    @pytest.mark.parametrize("rho", [0.4, 0.75])
    def test_response_times_and_cdf_bitwise(self, golden, sweep, policy, rho):
        expected = golden["poisson"][policy]
        run = sweep.run((policy, rho))
        assert _series_hash(run.response_times()) == expected["response_times"][repr(rho)]
        cdf = np.asarray(_empirical_cdf(run.response_times())).ravel()
        assert _series_hash(cdf) == expected["cdf"][repr(rho)]

    @pytest.mark.parametrize("policy", ["RR", "SR4"])
    @pytest.mark.parametrize("rho", [0.4, 0.75])
    def test_accounting_identities(self, sweep, policy, rho):
        _assert_accounting_identities(
            sweep.run((policy, rho)), sweep.config.num_queries, policy
        )


class TestWikipediaGolden:
    @pytest.fixture(scope="class", params=JOBS)
    def replay(self, request, observe):
        config = WikipediaReplayConfig(testbed=SMALL_TESTBED).compressed(
            duration=60.0
        )
        return _run(request, observe, "wikipedia", config)

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
        _assert_golden_counters(run, expected)

    @pytest.mark.parametrize("policy", ["RR", "SR4"])
    def test_accounting_identities(self, replay, policy):
        queries = int(replay.meta["trace_summary"]["requests"])
        _assert_accounting_identities(replay.run(policy), queries, policy)


class TestAutoscaleGolden:
    @pytest.fixture(scope="class", params=JOBS)
    def result(self, request, observe):
        from repro.experiments.autoscale_experiment import AUTOSCALE_SCENARIO

        return _run(request, observe, "autoscale", AUTOSCALE_SCENARIO.smoke_config())

    @pytest.mark.parametrize("mode", ["static", "reactive", "predictive"])
    def test_run_results_bitwise(self, golden, result, mode):
        expected = golden["autoscale"][mode]
        run = result.run(mode)
        assert _series_hash(run.collector.response_times()) == expected["response_times"]
        capacity_seconds = run.capacity.capacity_seconds(through=result.config.duration)
        assert repr(capacity_seconds) == expected["capacity_seconds"]
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
        _assert_golden_counters(run, expected)

    @pytest.mark.parametrize("mode", ["static", "reactive", "predictive"])
    def test_accounting_identities(self, result, mode):
        from repro.experiments.autoscale_experiment import AUTOSCALE_SCENARIO

        queries = len(AUTOSCALE_SCENARIO.make_trace(result.config, ScenarioCell(mode)))
        _assert_accounting_identities(result.run(mode), queries)


class TestHeavyTailGolden:
    @pytest.fixture(scope="class", params=JOBS)
    def comparison(self, request, observe):
        from repro.experiments.heavy_tail_experiment import HEAVY_TAIL_SCENARIO

        return _run(request, observe, "heavy-tail", HEAVY_TAIL_SCENARIO.smoke_config())

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
        assert repr(run.collector.summary().mean) == expected["mean"]
        assert repr(run.collector.summary().p99) == expected["p99"]
        assert repr(run.collector.summary(KIND_SESSION).p99) == expected["p99_session"]
        assert repr(run.collector.summary(KIND_HEAVY).p99) == expected["p99_heavy"]
        totals = run.collector.totals
        assert totals.completed == expected["completed"]
        assert totals.failed == expected["failed"]
        _assert_golden_counters(run, expected)

    @pytest.mark.parametrize("policy", ["RR", "SR4", "SRdyn"])
    def test_accounting_identities(self, comparison, policy):
        _assert_accounting_identities(
            comparison.run(policy), comparison.config.num_arrivals, policy
        )


class TestAdversarialGolden:
    @pytest.fixture(scope="class", params=JOBS)
    def comparison(self, request, observe):
        from repro.experiments.adversarial_experiment import ADVERSARIAL_SCENARIO

        return _run(request, observe, "adversarial", ADVERSARIAL_SCENARIO.smoke_config())

    @pytest.mark.parametrize(
        "mode", ["baseline", "syn-flood", "hash-collision", "gray-failure"]
    )
    def test_run_results_bitwise(self, golden, comparison, mode):
        expected = golden["adversarial"][mode]
        run = comparison.run(mode)
        assert _series_hash(run.collector.response_times()) == expected["response_times"]
        queries = comparison.config.num_queries
        assert repr(run.collector.summary().mean) == expected["mean"]
        assert repr(run.collector.summary().p99) == expected["p99"]
        assert repr(run.completion_rate(queries)) == expected["completion_rate"]
        _assert_golden_counters(run, expected)
        assert run.attack_syns_sent == expected["attack_syns_sent"]
        got_bucket = (
            None
            if run.attack_bucket_share is None
            else repr(run.attack_bucket_share)
        )
        assert got_bucket == expected["attack_bucket_share"]
        got_delay = (
            None if run.quarantine_delay is None else repr(run.quarantine_delay)
        )
        assert got_delay == expected["quarantine_delay"]
        assert list(run.quarantined) == expected["quarantined"]

    @pytest.mark.parametrize(
        "mode", ["baseline", "syn-flood", "hash-collision", "gray-failure"]
    )
    def test_accounting_identities(self, comparison, mode):
        _assert_accounting_identities(
            comparison.run(mode), comparison.config.num_queries
        )

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
        queries = comparison.config.num_queries
        assert comparison.run("baseline").completion_rate(queries) == 1.0
        assert comparison.run("syn-flood").completion_rate(queries) >= 0.4
        assert comparison.run("hash-collision").completion_rate(queries) >= 0.4
        assert comparison.run("gray-failure").completion_rate(queries) == 1.0


class TestChaosGolden:
    @pytest.fixture(scope="class", params=JOBS)
    def comparison(self, request, observe):
        from repro.experiments.chaos_experiment import CHAOS_SCENARIO

        return _run(request, observe, "chaos", CHAOS_SCENARIO.smoke_config())

    @pytest.mark.parametrize("mode", ["baseline", "loss", "flap", "jitter"])
    def test_run_results_bitwise(self, golden, comparison, mode):
        from repro.experiments.chaos_experiment import outcome_fingerprint

        expected = golden["chaos"][mode]
        run = comparison.run(mode)
        assert outcome_fingerprint(run.collector) == expected["fingerprint"]
        assert run.collector.totals.completed == expected["completed"]
        assert run.collector.totals.failed == expected["failed"]
        _assert_golden_counters(run, expected)
        assert repr(run.collector.summary().mean) == expected["mean"]
        assert repr(run.collector.summary().p99) == expected["p99"]

    @pytest.mark.parametrize("mode", ["baseline", "loss", "flap", "jitter"])
    def test_accounting_identities(self, comparison, mode):
        # Also reconciles the fault plane's drop counters on every cell:
        # each drop is counted once in the total and once by reason.
        _assert_accounting_identities(
            comparison.run(mode), comparison.config.num_queries
        )

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
        assert outcome_fingerprint(comparison.run("baseline").collector) == bare

    def test_loss_cell_recovers_queries(self, comparison):
        # Acceptance criterion: under the 1% loss cell the client's
        # retransmission/retry path must recover at least 99% of the
        # queries, and every query that did not complete must be
        # accounted for by the give-up counter (no silent leaks).
        run = comparison.run("loss")
        assert run.completion_rate(comparison.config.num_queries) >= 0.99
        assert run.counters["client.queries_gave_up"] == run.collector.totals.failed


class TestResilienceGolden:
    @pytest.fixture(scope="class", params=JOBS)
    def comparison(self, request, observe):
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
        return _run(request, observe, "resilience", config)

    @pytest.mark.parametrize("scheme", ["random", "consistent-hash"])
    def test_churn_results_bitwise(self, golden, comparison, scheme):
        expected = golden["resilience"][scheme]
        run = comparison.run(scheme)
        assert run.broken_flows == expected["broken_flows"]
        assert run.in_flight_at_churn == expected["in_flight_at_churn"]
        _assert_golden_counters(run, expected)
        assert _series_hash(run.collector.response_times()) == expected["response_times"]
        observations = [
            [repr(obs.at_time), obs.instance, sorted(obs.in_flight_ids)]
            for obs in run.observations
        ]
        assert observations == expected["observations"]

    @pytest.mark.parametrize("scheme", ["random", "consistent-hash"])
    def test_accounting_identities(self, comparison, scheme):
        _assert_accounting_identities(
            comparison.run(scheme), comparison.config.num_queries
        )


def _assert_cell_bitwise(run, expected) -> None:
    """Outcomes, summary and counters of a smoke-config cell."""
    assert _series_hash(run.collector.response_times()) == expected["response_times"]
    assert repr(run.collector.summary().mean) == expected["mean"]
    assert repr(run.collector.summary().p99) == expected["p99"]
    assert run.collector.totals.completed == expected["completed"]
    assert run.collector.totals.failed == expected["failed"]
    _assert_golden_counters(run, expected)


class TestFlashCrowdGolden:
    @pytest.fixture(scope="class", params=JOBS)
    def comparison(self, request, observe):
        from repro.experiments.flash_crowd_experiment import FLASH_CROWD_SCENARIO

        return _run(request, observe, "flash-crowd", FLASH_CROWD_SCENARIO.smoke_config())

    def test_saturation_rate_bitwise(self, golden, comparison):
        expected = golden["flash-crowd"]["saturation_rate"]
        assert repr(comparison.meta["saturation_rate"]) == expected

    @pytest.mark.parametrize("policy", ["RR", "SR4"])
    def test_run_results_bitwise(self, golden, comparison, policy):
        from repro.experiments.flash_crowd_experiment import PHASES, phase_summary

        expected = golden["flash-crowd"][policy]
        config = comparison.config
        run = comparison.run(policy)
        _assert_cell_bitwise(run, expected)
        means = {phase: repr(phase_summary(run, config, phase).mean) for phase in PHASES}
        assert means == expected["phase_means"]
        binned = run.collector.binned(bin_width=config.bin_width)
        medians = binned.median_series(through=config.total_duration)
        assert _series_hash([v for pair in medians for v in pair]) == expected["median_series"]

    @pytest.mark.parametrize("policy", ["RR", "SR4"])
    def test_accounting_identities(self, comparison, policy):
        from repro.experiments.flash_crowd_experiment import FLASH_CROWD_SCENARIO

        queries = len(FLASH_CROWD_SCENARIO.make_trace(comparison.config, ScenarioCell(policy)))
        _assert_accounting_identities(comparison.run(policy), queries, policy)


class TestHeterogeneousFleetGolden:
    @pytest.fixture(scope="class", params=JOBS)
    def comparison(self, request, observe):
        from repro.experiments.heterogeneous_experiment import HETEROGENEOUS_SCENARIO

        return _run(
            request, observe, "heterogeneous-fleet", HETEROGENEOUS_SCENARIO.smoke_config()
        )

    def test_saturation_rate_bitwise(self, golden, comparison):
        expected = golden["heterogeneous-fleet"]["saturation_rate"]
        assert repr(comparison.meta["saturation_rate"]) == expected

    @pytest.mark.parametrize("policy", ["RR", "SR4"])
    def test_run_results_bitwise(self, golden, comparison, policy):
        (rho,) = comparison.config.load_factors
        expected = golden["heterogeneous-fleet"][f"{policy}@{rho!r}"]
        run = comparison.run((policy, rho))
        _assert_cell_bitwise(run, expected)
        assert run.acceptance_counts == expected["acceptance_counts"]

    @pytest.mark.parametrize("policy", ["RR", "SR4"])
    def test_accounting_identities(self, comparison, policy):
        (rho,) = comparison.config.load_factors
        _assert_accounting_identities(
            comparison.run((policy, rho)), comparison.config.num_queries, policy
        )
