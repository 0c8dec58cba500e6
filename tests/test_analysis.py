"""Unit tests for the closed forms: the mean-field chain and the saturation rate."""

import pytest

from repro.analysis.queueing import saturation_rate, sr_mean_field
from repro.errors import ReproError


class TestMeanFieldChain:
    def test_one_choice_with_room_to_spare_is_mm1_and_mm2(self):
        # M/M/1: 1/(mu - lambda); M/M/2: 1/(mu (1 - rho^2)) with rho = lambda / (2 mu).
        assert sr_mean_field(0.6, 1.0, 1, 2_000, 4, 1) == pytest.approx(1 / (1.0 - 0.6))
        rho = 1.4 / 2
        assert sr_mean_field(1.4, 1.0, 2, 2_000, 4, 1) == pytest.approx(1 / (1 - rho**2))

    def test_a_small_capacity_is_the_mm1k_mean(self):
        # M/M/1/K: L = a/(1-a) - (K+1) a^(K+1) / (1 - a^(K+1)), over the
        # accepted rate lambda (1 - P_K), P_K = (1-a) a^K / (1 - a^(K+1)).
        a, capacity, mu = 0.8, 5, 2.0
        jobs = a / (1 - a) - (capacity + 1) * a ** (capacity + 1) / (1 - a ** (capacity + 1))
        full = (1 - a) * a**capacity / (1 - a ** (capacity + 1))
        expected = jobs / (a * mu * (1 - full))
        assert sr_mean_field(a * mu, mu, 1, capacity, 2, 1) == pytest.approx(expected)

    @pytest.mark.parametrize("choices", (2, 3))
    def test_a_threshold_of_zero_or_past_capacity_is_one_choice(self, choices):
        # Nobody accepts optionally (c = 0: the last candidate is forced),
        # or everybody does (c > K: the first candidate takes it).
        one = sr_mean_field(1.5, 1.0, 2, 20, 4, 1)
        assert sr_mean_field(1.5, 1.0, 2, 20, 0, choices) == pytest.approx(one)
        assert sr_mean_field(1.5, 1.0, 2, 20, 21, choices) == pytest.approx(one)
        assert sr_mean_field(1.5, 1.0, 2, 160, 160, choices) == pytest.approx(
            sr_mean_field(1.5, 1.0, 2, 160, 4, 1)
        )

    @pytest.mark.parametrize("rho", (0.5, 0.7, 0.9, 0.97))
    @pytest.mark.parametrize("threshold", (2, 4, 8, 16))
    def test_more_choices_are_never_slower(self, rho, threshold):
        times = [sr_mean_field(rho * 20, 10.0, 2, 160, threshold, d) for d in (1, 2, 3, 4)]
        assert all(later <= earlier * (1 + 1e-9) for earlier, later in zip(times, times[1:]))

    @pytest.mark.parametrize("choices", (1, 2))
    def test_an_overloaded_server_stays_full(self, choices):
        # 500 births per death at every step: the weights pass a double's
        # range, and a full server answers in capacity / (cores mu).
        assert sr_mean_field(1_000.0, 1.0, 2, 160, 4, choices) == pytest.approx(80.0, rel=1e-3)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ReproError, match="threshold must be >= 0"):
            sr_mean_field(1.0, 1.0, 2, 10, -1, 2)
        with pytest.raises(ReproError, match="choices must be positive"):
            sr_mean_field(1.0, 1.0, 2, 10, 4, 0)
        with pytest.raises(ReproError, match="capacity must be positive"):
            sr_mean_field(1.0, 1.0, 2, 0, 4, 2)


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
            pytest.param(lambda x: sr_mean_field(x, 1.0, 2, 160, 4, 2), id="sr_mean_field-rate"),
            pytest.param(
                lambda x: sr_mean_field(1.0, x, 2, 160, 4, 2), id="sr_mean_field-service"
            ),
            pytest.param(lambda x: saturation_rate(24, x), id="saturation_rate"),
        ],
    )
    def test_rejected_naming_the_value(self, call, value):
        with pytest.raises(ReproError, match=rf"must be positive, got {value!r}$"):
            call(value)
