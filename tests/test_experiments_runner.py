"""Tests for the ``jobs`` fan-out and its compact result payloads.

The load-bearing property is the determinism contract documented in
:mod:`repro.experiments.scenario`: ``jobs`` is purely a wall-clock knob,
so a sweep run with ``jobs=1`` (the historical in-process path) and the
same sweep run with ``jobs>1`` (worker processes plus the payload round
trip) must produce bit-for-bit identical series.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExperimentError
from repro.experiments.chaos_experiment import CHAOS_SCENARIO, outcome_fingerprint
from repro.experiments.config import (
    ChurnEvent,
    PoissonSweepConfig,
    ResilienceConfig,
    TestbedConfig,
    WikipediaReplayConfig,
    rr_policy,
    sr_policy,
)
from repro.experiments.figures import figure2_series
from repro.experiments.scenario import resolve_jobs, run_scenario
from repro.experiments.wikipedia_experiment import make_wikipedia_trace
from repro.metrics.collector import (
    CollectorTotals,
    ResponseTimeCollector,
    ServerLoadSampler,
)
from repro.workload.client import RequestOutcome
from repro.workload.trace import Trace

SMALL_TESTBED = TestbedConfig(
    num_servers=4, workers_per_server=8, cores_per_server=2, backlog_capacity=16
)


def _failures(collector: ResponseTimeCollector):
    """The collector's failed outcomes as records (``outcomes()`` lists the rest)."""
    return collector._materialise(collector._rows(False, None))


def _first_seconds(trace: Trace, end: float) -> Trace:
    """The requests of ``trace`` arriving before ``end`` seconds."""
    return Trace([request for request in trace if request.arrival_time < end])


def _small_sweep_config(**overrides) -> PoissonSweepConfig:
    defaults = dict(
        testbed=SMALL_TESTBED,
        load_factors=(0.4, 0.75),
        num_queries=250,
        policies=(rr_policy(), sr_policy(4)),
    )
    defaults.update(overrides)
    return PoissonSweepConfig(**defaults)


# ----------------------------------------------------------------------
# the jobs knob
# ----------------------------------------------------------------------
class TestResolveJobs:
    def test_resolve_jobs_defaults_to_cpu_count(self):
        import os

        assert resolve_jobs(None) == (os.cpu_count() or 1)
        assert resolve_jobs(0) == (os.cpu_count() or 1)
        assert resolve_jobs(3) == 3

    def test_negative_jobs_rejected(self):
        with pytest.raises(ExperimentError):
            resolve_jobs(-1)


# ----------------------------------------------------------------------
# compact payload round trips
# ----------------------------------------------------------------------
class TestCollectorPayload:
    def test_round_trip_preserves_every_series(self):
        collector = ResponseTimeCollector(name="round-trip")
        collector.record(
            RequestOutcome(
                request_id=1,
                kind="wiki",
                url="/w/1",
                sent_at=0.5,
                established_at=0.6,
                completed_at=1.25,
            )
        )
        collector.record(
            RequestOutcome(
                request_id=2,
                kind="static",
                url="/s/2",
                sent_at=0.75,
                completed_at=0.9,
            )
        )
        collector.record(
            RequestOutcome(
                request_id=3,
                kind="wiki",
                url="/w/3",
                sent_at=2.0,
                failed=True,
                failure_reason="connection reset",
            )
        )
        rebuilt = ResponseTimeCollector.from_payload(collector.export_payload())

        assert rebuilt.name == collector.name
        assert rebuilt.totals.completed == 2
        assert rebuilt.totals.failed == 1
        assert rebuilt.response_times().tolist() == collector.response_times().tolist()
        assert (
            rebuilt.response_times(kind="wiki").tolist()
            == collector.response_times(kind="wiki").tolist()
        )
        assert [o.request_id for o in rebuilt.outcomes()] == [1, 2]
        assert rebuilt.outcomes()[0].established_at == 0.6
        assert rebuilt.outcomes()[1].established_at is None
        assert _failures(rebuilt)[0].failure_reason == "connection reset"
        assert _failures(rebuilt)[0].response_time is None

    def test_empty_collector_round_trips(self):
        rebuilt = ResponseTimeCollector.from_payload(
            ResponseTimeCollector(name="empty").export_payload()
        )
        assert len(rebuilt) == 0
        assert (rebuilt.totals.completed, rebuilt.totals.failed) == (0, 0)

    def test_binned_series_survive_the_round_trip(self):
        collector = ResponseTimeCollector()
        for index in range(10):
            collector.record(
                RequestOutcome(
                    request_id=index,
                    kind="wiki",
                    url="/",
                    sent_at=index * 1.0,
                    completed_at=index * 1.0 + 0.2,
                )
            )
        rebuilt = ResponseTimeCollector.from_payload(collector.export_payload())
        assert (
            rebuilt.binned(bin_width=2.0).median_series()
            == collector.binned(bin_width=2.0).median_series()
        )


    def test_subclass_pickles_as_a_plain_collector_of_its_outcomes(self):
        from repro.experiments.scale_experiment import _ColumnCollector
        from repro.sim.engine import Simulator

        collector = _ColumnCollector(name="pod-0")
        collector.simulator = Simulator()  # live state that must not ship
        collector.record(
            RequestOutcome(request_id=7, kind="wiki", url="", sent_at=0.5, completed_at=0.75)
        )
        rebuilt = pickle.loads(pickle.dumps(collector))
        assert type(rebuilt) is ResponseTimeCollector
        assert rebuilt.outcomes() == collector.outcomes()

    @given(
        rows=st.lists(
            st.tuples(
                st.booleans(),  # succeeded
                st.floats(min_value=0.0, max_value=1e6),  # sent_at
                st.none() | st.floats(min_value=0.0, max_value=5.0),  # handshake
                st.sampled_from(["wiki", "static", "heavy"]),
                st.none() | st.sampled_from(["connection reset", "client timeout"]),
                st.integers(min_value=0, max_value=4),  # retries
                st.booleans(),  # gave_up (failures only)
            ),
            max_size=25,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_property_pickle_keeps_every_field(self, rows):
        collector = ResponseTimeCollector(name="property")
        recorded = []
        for request_id, row in enumerate(rows):
            succeeded, sent_at, handshake, kind, reason, retries, gave_up = row
            outcome = RequestOutcome(
                request_id=request_id,
                kind=kind,
                url="",  # the table keeps no URL, in process or on the wire
                sent_at=sent_at,
                established_at=None if handshake is None else sent_at + handshake,
                retries=retries,
            )
            if succeeded:
                outcome.completed_at = sent_at + 6.0
            else:
                outcome.failed = True
                outcome.failure_reason = reason
                outcome.gave_up = gave_up
            collector.record(outcome)
            recorded.append(outcome)

        rebuilt = pickle.loads(pickle.dumps(collector))

        assert rebuilt.name == collector.name
        assert collector.outcomes() == [o for o in recorded if o.succeeded]
        assert _failures(collector) == [o for o in recorded if not o.succeeded]
        assert rebuilt.outcomes() == collector.outcomes()
        assert _failures(rebuilt) == _failures(collector)

    def test_odd_outcomes_keep_every_field(self):
        # Neither failed nor answered, and failed with a response time:
        # the status column and the timestamps keep them apart.
        odd = [
            RequestOutcome(1, "wiki", "", 0.5, failure_reason="late"),
            RequestOutcome(2, "wiki", "", 0.5, 0.6, 0.9, failed=True, retries=2),
        ]
        collector = ResponseTimeCollector()
        for outcome in odd:
            collector.record(outcome)
        assert _failures(collector) == odd
        assert _failures(pickle.loads(pickle.dumps(collector))) == odd
        assert collector.totals == CollectorTotals(completed=0, failed=2)


class TestLoadSamplerPayload:
    def test_round_trip_preserves_series(self):
        sampler = ServerLoadSampler(interval=0.25)
        sampler.sample(0.0, [1, 2, 3])
        sampler.sample(0.25, [4, 5, 6])
        rebuilt = pickle.loads(pickle.dumps(sampler))
        assert rebuilt.interval == 0.25
        assert rebuilt.times == sampler.times
        assert rebuilt.samples == sampler.samples
        assert rebuilt.mean_load_series() == sampler.mean_load_series()
        assert rebuilt.fairness_series() == sampler.fairness_series()

    def test_empty_sampler_round_trips(self):
        rebuilt = pickle.loads(pickle.dumps(ServerLoadSampler(interval=0.5)))
        assert len(rebuilt) == 0


# ----------------------------------------------------------------------
# determinism contract: jobs never changes results
# ----------------------------------------------------------------------
def _sweep_fingerprint(result):
    """Every figure-facing series of a sweep, as comparable objects."""
    return {
        key: (
            run.response_times().tolist(),
            run.counters,
            run.acceptance_counts,
            run.duration,
        )
        for key, run in result.runs.items()
    }


class TestPoissonSweepDeterminism:
    def test_jobs_do_not_change_results(self):
        config = _small_sweep_config()
        serial = run_scenario("poisson", config, jobs=1)
        parallel = run_scenario("poisson", config, jobs=2)
        assert _sweep_fingerprint(serial) == _sweep_fingerprint(parallel)
        assert figure2_series(serial) == figure2_series(parallel)

    def test_load_sampler_survives_the_pool(self):
        config = _small_sweep_config(
            testbed=dataclasses.replace(SMALL_TESTBED, sample_load=True),
            load_factors=(0.6,),
        )
        serial = run_scenario("poisson", config, jobs=1)
        parallel = run_scenario("poisson", config, jobs=2)
        for policy in ("RR", "SR4"):
            serial_sampler = serial.run((policy, 0.6)).load_sampler
            parallel_sampler = parallel.run((policy, 0.6)).load_sampler
            assert parallel_sampler is not None
            assert parallel_sampler.times == serial_sampler.times
            assert parallel_sampler.samples == serial_sampler.samples

    @given(
        workload_seed=st.integers(min_value=0, max_value=2**16),
        load_factor=st.sampled_from([0.35, 0.55, 0.8]),
    )
    @settings(max_examples=3, deadline=None)
    def test_property_mean_series_and_cdfs_identical(self, workload_seed, load_factor):
        """The ISSUE's determinism property: same seed, any jobs value →
        identical mean-response series and response-time CDFs."""
        config = _small_sweep_config(
            load_factors=(load_factor,),
            num_queries=150,
            workload_seed=workload_seed,
        )
        serial = run_scenario("poisson", config, jobs=1)
        parallel = run_scenario("poisson", config, jobs=2)
        assert figure2_series(serial) == figure2_series(parallel)
        for policy in ("RR", "SR4"):
            # Equal sorted samples: equal empirical CDFs.
            serial_times = np.sort(serial.run((policy, load_factor)).response_times())
            parallel_times = np.sort(parallel.run((policy, load_factor)).response_times())
            assert np.array_equal(serial_times, parallel_times)


class TestWikipediaReplayDeterminism:
    def test_jobs_do_not_change_results(self):
        config = WikipediaReplayConfig(testbed=SMALL_TESTBED).compressed(duration=60.0)
        serial = run_scenario("wikipedia", config, jobs=1)
        parallel = run_scenario("wikipedia", config, jobs=2)
        assert serial.meta["trace_summary"] == parallel.meta["trace_summary"]
        for name in serial.keys():
            serial_run = serial.run(name)
            parallel_run = parallel.run(name)
            assert (
                parallel_run.wiki_response_times().tolist()
                == serial_run.wiki_response_times().tolist()
            )
            assert parallel_run.median_series() == serial_run.median_series()
            assert parallel_run.rate_series() == serial_run.rate_series()
            assert parallel_run.counters == serial_run.counters

    def test_explicit_trace_is_shipped_to_workers(self):
        config = WikipediaReplayConfig(testbed=SMALL_TESTBED).compressed(duration=60.0)
        trace = _first_seconds(make_wikipedia_trace(config), 30.0)
        serial = run_scenario("wikipedia", config, jobs=1, trace=trace)
        parallel = run_scenario("wikipedia", config, jobs=2, trace=trace)
        for name in serial.keys():
            assert (
                parallel.run(name).wiki_response_times().tolist()
                == serial.run(name).wiki_response_times().tolist()
            )


class TestChaosDeterminism:
    def test_retry_accounting_survives_any_jobs_value(self):
        """What a pooled run brings home is what a serial run holds:
        per-outcome retries and give-ups add up to the client's counters."""
        config = dataclasses.replace(
            CHAOS_SCENARIO.smoke_config(), modes=("loss", "jitter")
        )
        by_jobs = {}
        for jobs in (1, 2):
            run = run_scenario("chaos", config, jobs=jobs).run("loss")
            outcomes = run.collector.outcomes() + _failures(run.collector)
            retried = run.counters["client.queries_retried"]
            assert retried > 0
            assert sum(outcome.retries for outcome in outcomes) == retried
            assert (
                sum(outcome.gave_up for outcome in outcomes)
                == run.counters["client.queries_gave_up"]
            )
            by_jobs[jobs] = outcomes
        assert by_jobs[1] == by_jobs[2]


def _fingerprint_of_objects(collector):
    """The chaos fingerprint as it was computed from outcome objects."""
    rows = sorted(
        (
            float(outcome.request_id),
            outcome.sent_at,
            outcome.response_time if outcome.response_time is not None else -1.0,
            float(outcome.retries),
            float(outcome.gave_up),
            float(outcome.failed),
        )
        for outcome in collector.outcomes() + _failures(collector)
    )
    return hashlib.sha256(np.asarray(rows, dtype=np.float64).tobytes()).hexdigest()


class TestChaosFingerprint:
    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from(["ok", "failed", "unanswered"]),
                st.floats(min_value=0.0, max_value=1e4),
                st.integers(min_value=0, max_value=3),  # retries
                st.booleans(),  # gave_up
            ),
            max_size=30,
        ),
        order=st.randoms(use_true_random=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_columns_give_the_object_digest(self, rows, order):
        ids = list(range(len(rows)))
        order.shuffle(ids)  # record order is completion order, not id order
        collector = ResponseTimeCollector()
        for request_id, (status, sent_at, retries, gave_up) in zip(ids, rows):
            collector.record(
                RequestOutcome(
                    request_id,
                    "wiki",
                    "",
                    sent_at,
                    completed_at=sent_at + 0.25 if status == "ok" else None,
                    failed=status == "failed",
                    retries=retries,
                    gave_up=gave_up,
                )
            )
        expected = _fingerprint_of_objects(collector)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                ResponseTimeCollector, "_materialise", lambda *a: pytest.fail("objects built")
            )
            assert outcome_fingerprint(collector) == expected


class TestResilienceDeterminism:
    def test_jobs_do_not_change_results(self):
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
        serial = run_scenario("resilience", config, jobs=1)
        parallel = run_scenario("resilience", config, jobs=2)
        for scheme in serial.keys():
            serial_run = serial.run(scheme)
            parallel_run = parallel.run(scheme)
            assert parallel_run.broken_flows == serial_run.broken_flows
            assert parallel_run.in_flight_at_churn == serial_run.in_flight_at_churn
            assert parallel_run.counters == serial_run.counters
            assert (
                parallel_run.collector.response_times().tolist()
                == serial_run.collector.response_times().tolist()
            )
            assert [
                (obs.at_time, obs.instance, obs.in_flight_ids)
                for obs in parallel_run.observations
            ] == [
                (obs.at_time, obs.instance, obs.in_flight_ids)
                for obs in serial_run.observations
            ]
