"""Unit tests for the request model, catalog and service-time models."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workload.requests import (
    KIND_PHP,
    Request,
    RequestCatalog,
    next_request_id,
    sort_by_arrival,
    total_offered_demand,
)
from repro.workload.service_models import (
    BoundedParetoServiceTime,
    DeterministicServiceTime,
    ExponentialServiceTime,
    LognormalServiceTime,
    StaticPageServiceTime,
    WikiPageServiceTime,
)


class TestRequest:
    def test_valid_request(self):
        request = Request(request_id=1, arrival_time=0.5, service_demand=0.1)
        assert request.kind == KIND_PHP
        assert request.response_size > 0

    def test_negative_arrival_rejected(self):
        with pytest.raises(WorkloadError):
            Request(request_id=1, arrival_time=-1.0, service_demand=0.1)

    def test_non_positive_demand_rejected(self):
        with pytest.raises(WorkloadError):
            Request(request_id=1, arrival_time=0.0, service_demand=0.0)

    def test_negative_response_size_rejected(self):
        with pytest.raises(WorkloadError):
            Request(request_id=1, arrival_time=0.0, service_demand=0.1, response_size=-1)

    def test_next_request_id_is_monotonic(self):
        first = next_request_id()
        second = next_request_id()
        assert second > first


class TestRequestCatalog:
    def test_add_and_lookup(self):
        catalog = RequestCatalog()
        request = Request(request_id=101, arrival_time=0.0, service_demand=0.2)
        catalog.add(request)
        assert catalog.get(101) is request
        assert catalog.demand_of(101) == pytest.approx(0.2)
        assert 101 in catalog
        assert len(catalog) == 1

    def test_duplicate_id_rejected(self):
        catalog = RequestCatalog()
        catalog.add(Request(request_id=5, arrival_time=0.0, service_demand=0.2))
        with pytest.raises(WorkloadError):
            catalog.add(Request(request_id=5, arrival_time=1.0, service_demand=0.3))

    def test_unknown_id_rejected(self):
        with pytest.raises(WorkloadError):
            RequestCatalog().get(404)

    def test_init_from_iterable_and_iteration(self):
        requests = [
            Request(request_id=index, arrival_time=float(index), service_demand=0.1)
            for index in range(1, 4)
        ]
        catalog = RequestCatalog(requests)
        assert sorted(request.request_id for request in catalog) == [1, 2, 3]


class TestHelpers:
    def test_sort_by_arrival(self):
        requests = [
            Request(request_id=1, arrival_time=2.0, service_demand=0.1),
            Request(request_id=2, arrival_time=1.0, service_demand=0.1),
        ]
        assert [request.request_id for request in sort_by_arrival(requests)] == [2, 1]

    def test_total_offered_demand(self):
        requests = [
            Request(request_id=1, arrival_time=0.0, service_demand=0.25),
            Request(request_id=2, arrival_time=0.0, service_demand=0.75),
        ]
        assert total_offered_demand(requests) == pytest.approx(1.0)


class TestServiceModels:
    def test_exponential_mean(self, rng):
        model = ExponentialServiceTime(0.1)
        samples = [model.sample(rng) for _ in range(50_000)]
        assert np.mean(samples) == pytest.approx(0.1, rel=0.05)
        assert model.mean() == pytest.approx(0.1)

    def test_exponential_rejects_bad_mean(self):
        with pytest.raises(WorkloadError):
            ExponentialServiceTime(0.0)

    def test_deterministic(self, rng):
        model = DeterministicServiceTime(0.05)
        assert model.sample(rng) == 0.05
        assert model.mean() == 0.05

    def test_lognormal_median(self, rng):
        model = LognormalServiceTime(median_seconds=0.2, sigma=0.4)
        samples = [model.sample(rng) for _ in range(50_000)]
        assert np.median(samples) == pytest.approx(0.2, rel=0.05)
        assert model.mean() > 0.2  # lognormal mean exceeds its median

    def test_bounded_pareto_respects_bounds(self, rng):
        model = BoundedParetoServiceTime(alpha=1.5, lower_seconds=0.01, upper_seconds=1.0)
        samples = [model.sample(rng) for _ in range(10_000)]
        assert min(samples) >= 0.01
        assert max(samples) <= 1.0

    def test_bounded_pareto_mean_close_to_analytic(self, rng):
        model = BoundedParetoServiceTime(alpha=1.5, lower_seconds=0.01, upper_seconds=1.0)
        samples = [model.sample(rng) for _ in range(200_000)]
        assert np.mean(samples) == pytest.approx(model.mean(), rel=0.05)

    def test_bounded_pareto_invalid_bounds(self):
        with pytest.raises(WorkloadError):
            BoundedParetoServiceTime(lower_seconds=1.0, upper_seconds=0.5)

    def test_wiki_page_mixture_mean(self, rng):
        model = WikiPageServiceTime()
        samples = [model.sample(rng) for _ in range(100_000)]
        assert np.mean(samples) == pytest.approx(model.mean(), rel=0.05)

    def test_wiki_page_mixture_has_heavy_tail(self, rng):
        model = WikiPageServiceTime()
        samples = np.array([model.sample(rng) for _ in range(50_000)])
        # The MySQL-miss tail must be visible: the 99th percentile is far
        # above the median.
        assert np.percentile(samples, 99) > 2.0 * np.median(samples)

    def test_wiki_page_invalid_probability(self):
        with pytest.raises(WorkloadError):
            WikiPageServiceTime(miss_probability=1.5)

    def test_static_page_is_cheap(self, rng):
        model = StaticPageServiceTime()
        assert model.sample(rng) == pytest.approx(0.001)

    def test_describe_strings(self):
        for model in (
            ExponentialServiceTime(0.1),
            DeterministicServiceTime(0.1),
            LognormalServiceTime(0.1),
            BoundedParetoServiceTime(),
            WikiPageServiceTime(),
            StaticPageServiceTime(),
        ):
            assert isinstance(model.describe(), str) and model.describe()
