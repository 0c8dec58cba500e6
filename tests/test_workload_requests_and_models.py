"""Unit tests for the request row type and the service-time models."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workload.requests import KIND_PHP, Request
from repro.workload.service_models import (
    BoundedParetoServiceTime,
    DeterministicServiceTime,
    ExponentialServiceTime,
    LognormalServiceTime,
    StaticPageServiceTime,
    WikiPageServiceTime,
)
from repro.workload.trace import Trace


class TestRequest:
    def test_valid_request(self):
        request = Request(request_id=1, arrival_time=0.5, service_demand=0.1)
        assert request.kind == KIND_PHP
        assert request.user_id is None

    def test_negative_arrival_rejected(self):
        with pytest.raises(WorkloadError):
            Trace([Request(request_id=1, arrival_time=-1.0, service_demand=0.1)])

    def test_non_positive_demand_rejected(self):
        with pytest.raises(WorkloadError):
            Trace([Request(request_id=1, arrival_time=0.0, service_demand=0.0)])


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

