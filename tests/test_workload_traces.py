"""Unit tests for the trace container and the two workload generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.workload.poisson import PoissonWorkload
from repro.workload.requests import KIND_PHP, KIND_STATIC, KIND_WIKI, Request
from repro.workload.service_models import DeterministicServiceTime
from repro.workload.trace import Trace
from repro.workload.wikipedia import (
    DiurnalRateCurve,
    SECONDS_PER_DAY,
    SyntheticWikipediaWorkload,
)


def _arrival_rate_in(trace, kind, start, end):
    """Arrivals of ``kind`` per second over ``[start, end)``."""
    count = sum(
        1 for request in trace if request.kind == kind and start <= request.arrival_time < end
    )
    return count / (end - start)


def _request(request_id, arrival, demand=0.1, kind=KIND_PHP):
    return Request(
        request_id=request_id, arrival_time=arrival, service_demand=demand, kind=kind
    )


class TestTrace:
    def test_requests_sorted_by_arrival(self):
        trace = Trace([_request(1, 5.0), _request(2, 1.0), _request(3, 3.0)])
        assert [request.request_id for request in trace] == [2, 3, 1]
        assert trace.duration == 5.0

    def test_summary(self):
        trace = Trace([_request(1, 1.0, 0.2), _request(2, 2.0, 0.4, KIND_WIKI)])
        summary = trace.summary()
        assert summary.num_requests == 2
        assert summary.mean_demand == pytest.approx(0.3)
        assert summary.total_demand == pytest.approx(0.6)
        assert summary.kinds == {KIND_PHP: 1, KIND_WIKI: 1}

    def test_empty_trace_summary(self):
        summary = Trace([]).summary()
        assert summary.num_requests == 0
        assert summary.duration == 0.0

    def test_rows_are_checked_when_the_trace_is_built(self):
        with pytest.raises(WorkloadError, match="negative arrival time"):
            Trace([_request(1, -1.0)])
        with pytest.raises(WorkloadError, match="non-positive service demand"):
            Trace([_request(1, 0.0, 0.0)])
        with pytest.raises(WorkloadError, match="non-positive service demand"):
            Trace([_request(1, 0.0, float("nan"))])
        with pytest.raises(WorkloadError, match="duplicate request id 3"):
            Trace([_request(3, 0.0), _request(4, 1.0), _request(3, 2.0)])
        with pytest.raises(WorkloadError, match="is negative"):
            Trace([_request(-1, 0.0)])

    def test_columns_are_read_only(self):
        trace = Trace([_request(1, 0.5)])
        with pytest.raises(ValueError):
            trace.service_demands[0] = 1.0

    def test_user_ids_column_exists_only_when_a_row_has_a_user(self):
        assert Trace([_request(1, 0.5)]).user_ids is None
        mixed = Trace([Request(1, 0.1, 0.05, user_id=123), Request(2, 0.2, 0.07)])
        assert [request.user_id for request in mixed] == [123, None]


row_lists = st.lists(
    st.tuples(
        # Coarse arrival times, so ties are common.
        st.integers(min_value=0, max_value=5).map(float),
        st.floats(min_value=1e-6, max_value=10.0, allow_nan=False),
        st.sampled_from([KIND_PHP, KIND_WIKI, KIND_STATIC]),
        st.none() | st.integers(min_value=0, max_value=2**40),
    ),
    max_size=30,
)


@given(rows=row_lists, ids=st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_property_rows_round_trip_through_the_columns(rows, ids):
    """Rows -> ``Trace`` -> rows is equal field for field, in a stable
    arrival order: rows arriving together keep the order they were given."""
    request_ids = ids.sample(range(1, 10 * len(rows) + 2), len(rows))
    given_rows = [
        Request(request_id, arrival, demand, kind, user)
        for request_id, (arrival, demand, kind, user) in zip(request_ids, rows)
    ]
    trace = Trace(given_rows)
    expected = sorted(given_rows, key=lambda request: request.arrival_time)
    assert list(trace) == expected
    assert [trace[index] for index in range(len(trace))] == expected
    assert len(trace) == len(given_rows)


class TestPoissonWorkload:
    def test_generates_requested_number_of_queries(self, rng):
        workload = PoissonWorkload(rate=100.0, num_queries=500)
        trace = workload.generate(rng)
        assert len(trace) == 500
        assert all(request.kind == KIND_PHP for request in trace)

    def test_mean_rate_close_to_configured(self, rng):
        workload = PoissonWorkload(rate=200.0, num_queries=20_000)
        trace = workload.generate(rng)
        assert trace.summary().mean_rate == pytest.approx(200.0, rel=0.05)

    def test_service_demands_follow_configured_model(self, rng):
        workload = PoissonWorkload(
            rate=100.0, num_queries=200, service_model=DeterministicServiceTime(0.05)
        )
        trace = workload.generate(rng)
        assert all(request.service_demand == pytest.approx(0.05) for request in trace)

    def test_from_load_factor(self):
        workload = PoissonWorkload.from_load_factor(
            rho=0.5, saturation_rate=240.0, num_queries=100
        )
        assert workload.rate == pytest.approx(120.0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(WorkloadError):
            PoissonWorkload(rate=0.0)
        with pytest.raises(WorkloadError):
            PoissonWorkload(rate=10.0, num_queries=0)
        with pytest.raises(WorkloadError):
            PoissonWorkload.from_load_factor(rho=0.0, saturation_rate=100.0)

    def test_same_seed_same_trace(self):
        workload = PoissonWorkload(rate=100.0, num_queries=200)
        first = workload.generate(np.random.default_rng(5))
        second = workload.generate(np.random.default_rng(5))
        assert [r.arrival_time for r in first] == [r.arrival_time for r in second]
        assert [r.service_demand for r in first] == [r.service_demand for r in second]


class TestDiurnalCurve:
    def test_trough_and_peak_locations(self):
        curve = DiurnalRateCurve(mean_rate=85.0, amplitude=30.0, trough_hour=8.0,
                                 second_harmonic=0.0)
        trough = curve.rate_at(8.0 * 3600)
        peak = curve.rate_at(20.0 * 3600)
        assert trough == pytest.approx(55.0)
        assert peak == pytest.approx(115.0)

    def test_rate_never_negative(self):
        curve = DiurnalRateCurve(mean_rate=30.0, amplitude=29.0)
        rates = [curve.rate_at(t) for t in np.linspace(0, SECONDS_PER_DAY, 500)]
        assert min(rates) > 0

    def test_peak_rate_bounds_the_curve(self):
        curve = DiurnalRateCurve()
        rates = [curve.rate_at(t) for t in np.linspace(0, SECONDS_PER_DAY, 1_000)]
        assert max(rates) <= curve.peak_rate() + 1e-9

    def test_invalid_parameters(self):
        with pytest.raises(WorkloadError):
            DiurnalRateCurve(mean_rate=0.0)
        with pytest.raises(WorkloadError):
            DiurnalRateCurve(mean_rate=10.0, amplitude=20.0)


class TestSyntheticWikipediaWorkload:
    def test_generates_both_kinds(self, rng):
        workload = SyntheticWikipediaWorkload(
            duration=120.0, replay_fraction=0.5, static_per_wiki=1.0
        )
        trace = workload.generate(rng)
        kinds = trace.summary().kinds
        assert kinds.get(KIND_WIKI, 0) > 0
        assert kinds.get(KIND_STATIC, 0) > 0

    def test_request_count_matches_expectation(self, rng):
        workload = SyntheticWikipediaWorkload(
            duration=600.0, replay_fraction=0.5, static_per_wiki=1.0
        )
        trace = workload.generate(rng)
        # The day's mean wiki rate (the harmonics integrate to zero),
        # replayed in part, plus the static requests each page pulls.
        wiki = workload.curve.mean_rate * workload.replay_fraction * workload.duration
        assert len(trace) == pytest.approx(wiki * (1.0 + workload.static_per_wiki), rel=0.15)

    def test_diurnal_shape_visible_in_compressed_trace(self, rng):
        # Compress a day into 20 minutes and check the trough-vs-peak ratio
        # of wiki arrivals follows the configured curve.
        workload = SyntheticWikipediaWorkload(
            duration=1200.0, replay_fraction=1.0, static_per_wiki=0.0
        )
        trace = workload.generate(rng)
        trough_window = (8 / 24 * 1200.0 - 60.0, 8 / 24 * 1200.0 + 60.0)
        peak_window = (20 / 24 * 1200.0 - 60.0, 20 / 24 * 1200.0 + 60.0)
        trough_rate = _arrival_rate_in(trace, KIND_WIKI, *trough_window)
        peak_rate = _arrival_rate_in(trace, KIND_WIKI, *peak_window)
        assert peak_rate > 1.5 * trough_rate

    def test_replay_fraction_scales_rate(self, rng):
        full = SyntheticWikipediaWorkload(duration=300.0, replay_fraction=1.0,
                                          static_per_wiki=0.0)
        half = SyntheticWikipediaWorkload(duration=300.0, replay_fraction=0.5,
                                          static_per_wiki=0.0)
        full_count = len(full.generate(np.random.default_rng(1)))
        half_count = len(half.generate(np.random.default_rng(1)))
        assert half_count == pytest.approx(full_count / 2, rel=0.15)

    def test_rate_helpers(self):
        workload = SyntheticWikipediaWorkload(duration=SECONDS_PER_DAY, replay_fraction=0.5)
        assert workload.wiki_rate_at(8 * 3600.0) < workload.wiki_rate_at(20 * 3600.0)
        assert workload.static_rate_at(0.0) == pytest.approx(
            workload.wiki_rate_at(0.0) * workload.static_per_wiki
        )

    def test_invalid_parameters(self):
        with pytest.raises(WorkloadError):
            SyntheticWikipediaWorkload(replay_fraction=0.0)
        with pytest.raises(WorkloadError):
            SyntheticWikipediaWorkload(static_per_wiki=-1.0)
        with pytest.raises(WorkloadError):
            SyntheticWikipediaWorkload(duration=0.0)
