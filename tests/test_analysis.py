"""Unit tests for the analytic models (supermarket model and M/M/c)."""

import pytest

from repro.analysis.power_of_choices import (
    improvement_over_random,
    mean_queue_length,
    mean_time_in_system,
    tail_probabilities,
)
from repro.analysis.queueing import (
    erlang_c,
    mmc_metrics,
    mmck_blocking_probability,
    saturation_rate,
)
from repro.errors import ReproError


class TestSupermarketModel:
    def test_single_choice_matches_mm1(self):
        # With d = 1 the supermarket model reduces to M/M/1: mean time 1/(1-rho).
        for load in (0.3, 0.6, 0.9):
            assert mean_time_in_system(load, 1) == pytest.approx(
                1.0 / (1.0 - load), rel=1e-3
            )

    def test_two_choices_beat_one(self):
        for load in (0.5, 0.7, 0.9, 0.95):
            assert mean_time_in_system(load, 2) < mean_time_in_system(load, 1)

    def test_improvement_grows_with_load(self):
        assert improvement_over_random(0.9) > improvement_over_random(0.6)

    def test_tail_probabilities_decreasing(self):
        tails = tail_probabilities(0.9, 2)
        assert all(tails[i] >= tails[i + 1] for i in range(len(tails) - 1))
        assert tails[0] == pytest.approx(1.0)

    def test_doubly_exponential_tail_decay(self):
        # With d = 2 the fraction of queues with >= i jobs is rho^(2^i - 1),
        # so the tail collapses much faster than with d = 1.
        tails_one = tail_probabilities(0.9, 1, max_length=10)
        tails_two = tail_probabilities(0.9, 2, max_length=10)
        assert tails_two[5] < tails_one[5] / 10

    def test_mean_queue_length_positive(self):
        assert mean_queue_length(0.7, 2) > 0

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ReproError):
            tail_probabilities(1.2, 2)
        with pytest.raises(ReproError):
            tail_probabilities(0.5, 0)


class TestMMc:
    def test_erlang_c_single_server_equals_utilization(self):
        # For M/M/1 the probability of waiting equals rho.
        assert erlang_c(0.6, 1.0, 1) == pytest.approx(0.6, rel=1e-6)

    def test_mmc_metrics_mm1_closed_form(self):
        metrics = mmc_metrics(0.5, 1.0, 1)
        assert metrics.mean_response_time == pytest.approx(2.0, rel=1e-6)
        assert metrics.mean_jobs_in_system == pytest.approx(1.0, rel=1e-6)

    def test_more_servers_reduce_waiting(self):
        few = mmc_metrics(1.8, 1.0, 2)
        many = mmc_metrics(1.8, 1.0, 4)
        assert many.mean_wait < few.mean_wait

    def test_unstable_system_rejected(self):
        with pytest.raises(ReproError):
            mmc_metrics(2.0, 1.0, 2)
        with pytest.raises(ReproError):
            erlang_c(3.0, 1.0, 2)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ReproError):
            mmc_metrics(-1.0, 1.0, 2)
        with pytest.raises(ReproError):
            mmc_metrics(1.0, 0.0, 2)
        with pytest.raises(ReproError):
            mmc_metrics(1.0, 1.0, 0)

    def test_utilization_field(self):
        metrics = mmc_metrics(1.0, 1.0, 2)
        assert metrics.utilization == pytest.approx(0.5)


class TestMMcK:
    def test_blocking_increases_with_load(self):
        low = mmck_blocking_probability(1.0, 1.0, 2, 6)
        high = mmck_blocking_probability(3.0, 1.0, 2, 6)
        assert high > low

    def test_blocking_decreases_with_capacity(self):
        small = mmck_blocking_probability(2.5, 1.0, 2, 4)
        large = mmck_blocking_probability(2.5, 1.0, 2, 12)
        assert large < small

    def test_blocking_is_a_probability(self):
        value = mmck_blocking_probability(5.0, 1.0, 2, 10)
        assert 0.0 <= value <= 1.0

    def test_capacity_below_servers_rejected(self):
        with pytest.raises(ReproError):
            mmck_blocking_probability(1.0, 1.0, 4, 2)


class TestSaturationRate:
    def test_paper_testbed_estimate(self):
        # 12 servers x 2 cores, 100 ms mean demand -> 240 queries/s.
        assert saturation_rate(24, 0.1) == pytest.approx(240.0)

    def test_safety_margin(self):
        assert saturation_rate(24, 0.1, safety_margin=0.9) == pytest.approx(216.0)

    def test_invalid_inputs(self):
        with pytest.raises(ReproError):
            saturation_rate(0, 0.1)
        with pytest.raises(ReproError):
            saturation_rate(24, 0.0)
        with pytest.raises(ReproError):
            saturation_rate(24, 0.1, safety_margin=0.0)


class TestNonFiniteInputs:
    """A NaN passes any ``<= 0`` guard and an infinity is no rate: both are
    refused, in the words ``repro.experiments.params`` uses for its bounds."""

    @pytest.mark.parametrize("value", (float("nan"), float("inf"), float("-inf")), ids=repr)
    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda x: erlang_c(x, 1.0, 2), id="erlang_c"),
            pytest.param(lambda x: mmc_metrics(1.0, x, 2), id="mmc_metrics"),
            pytest.param(
                lambda x: mmck_blocking_probability(x, 1.0, 2, 4),
                id="mmck_blocking_probability",
            ),
            pytest.param(lambda x: saturation_rate(24, x), id="saturation_rate"),
        ],
    )
    def test_rejected_naming_the_value(self, call, value):
        with pytest.raises(ReproError, match=rf"must be positive, got {value!r}$"):
            call(value)
