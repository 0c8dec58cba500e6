"""Unit tests for the hostile/heavy-tailed workload layer."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.net.addressing import CLIENT_PREFIX, VIP_PREFIX
from repro.workload.hostile import (
    HeavyTailWorkload,
    find_colliding_flow_keys,
    spoofed_source_flows,
    user_concentration,
)
from repro.workload.requests import KIND_HEAVY, KIND_SESSION, Request
from repro.workload.trace import Trace

VIP = VIP_PREFIX.address_at(1)


class TestHeavyTailWorkload:
    def _workload(self, **overrides):
        params = dict(
            rate=50.0, num_arrivals=300, num_users=1_000, heavy_fraction=0.3
        )
        params.update(overrides)
        return HeavyTailWorkload(**params)

    def test_generation_is_seed_deterministic(self):
        first = self._workload().generate(np.random.default_rng([11, 300]))
        second = self._workload().generate(np.random.default_rng([11, 300]))
        assert len(first) == len(second) == 300
        for left, right in zip(first, second):
            assert left == right

    def test_trace_structure(self):
        trace = self._workload().generate(np.random.default_rng(5))
        arrivals = [request.arrival_time for request in trace]
        assert arrivals == sorted(arrivals)
        assert [request.request_id for request in trace] == list(range(1, 301))
        kinds = {request.kind for request in trace}
        assert kinds == {KIND_HEAVY, KIND_SESSION}
        for request in trace:
            assert request.service_demand > 0
            assert 0 <= request.user_id < 1_000

    def test_sessions_aggregate_more_demand_than_single_requests(self):
        workload = self._workload(mean_session_length=8.0, heavy_fraction=0.0)
        trace = workload.generate(np.random.default_rng(3))
        mean_demand = np.mean([request.service_demand for request in trace])
        # Eight lognormal(median 0.04) requests per session on average.
        assert mean_demand > 0.04 * 2

    def test_from_load_factor_normalises_by_mixture_mean(self):
        workload = HeavyTailWorkload.from_load_factor(
            load_factor=0.7,
            capacity=8.0,
            num_arrivals=100,
            heavy_fraction=0.3,
            mean_session_length=4.0,
        )
        offered = workload.rate * workload.mean_arrival_demand()
        assert offered == pytest.approx(0.7 * 8.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(rate=0.0),
            dict(heavy_fraction=1.5),
            dict(mean_session_length=0.5),
            dict(num_users=0),
            dict(user_zipf=1.0),
            dict(size_median=0),
            dict(size_sigma=-1.0),
        ],
    )
    def test_invalid_parameters_are_refused(self, kwargs):
        with pytest.raises(WorkloadError):
            self._workload(**kwargs)


class TestUserConcentration:
    def test_counts_and_top_share(self):
        requests = [
            Request(1, 0.1, 0.05, kind=KIND_SESSION, user_id=7),
            Request(2, 0.2, 0.05, kind=KIND_SESSION, user_id=7),
            Request(3, 0.3, 0.05, kind=KIND_HEAVY, user_id=9),
            Request(4, 0.4, 0.05, kind=KIND_SESSION, user_id=7),
        ]
        users = user_concentration(Trace(requests, name="t"))
        assert users.num_requests == 4
        assert users.num_sessions == 3
        assert users.num_heavy == 1
        assert users.distinct_users == 2
        assert users.max_user_requests == 3
        assert users.top_user_share == pytest.approx(0.75)

    def test_refuses_traces_without_user_ids(self):
        trace = Trace([Request(1, 0.1, 0.05)], name="plain")
        with pytest.raises(WorkloadError, match="no user ids"):
            user_concentration(trace)


class TestFloodGenerators:
    def test_spoofed_flows_need_sources_and_positive_count(self):
        with pytest.raises(WorkloadError):
            spoofed_source_flows(VIP, [], 4)
        with pytest.raises(WorkloadError):
            spoofed_source_flows(VIP, [CLIENT_PREFIX.address_at(1)], 0)

    def test_collision_search_rejects_bad_arguments(self):
        sources = [CLIENT_PREFIX.address_at(1)]
        with pytest.raises(WorkloadError, match="hash scheme"):
            find_colliding_flow_keys(
                ["a", "b"], "a", VIP, sources, 1, hash_scheme="crc32"
            )
        with pytest.raises(WorkloadError, match="not in the ECMP group"):
            find_colliding_flow_keys(["a", "b"], "c", VIP, sources, 1)
        with pytest.raises(WorkloadError, match="at least one source"):
            find_colliding_flow_keys(["a", "b"], "a", VIP, [], 1)
        with pytest.raises(WorkloadError, match="positive"):
            find_colliding_flow_keys(["a", "b"], "a", VIP, sources, 0)

    def test_collision_search_reports_exhaustion(self):
        sources = [CLIENT_PREFIX.address_at(1)]
        with pytest.raises(WorkloadError, match="exhausted"):
            find_colliding_flow_keys(
                ["a", "b", "c", "d"], "a", VIP, sources, 50, max_candidates=8
            )
