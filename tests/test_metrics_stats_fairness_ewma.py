"""Unit tests for the statistics, fairness and EWMA helpers."""

import math

import numpy as np
import pytest

from repro.errors import ReproError
from repro.metrics.ewma import EWMAFilter, alpha_from_interval, smooth_series, smooth_timeseries
from repro.metrics.fairness import jain_fairness_index
from repro.metrics.stats import (
    cdf_at,
    deciles,
    median_or_nan,
    percentile,
    quartiles,
    summarize,
)


class TestSummaryStatistics:
    def test_summary_fields(self):
        summary = summarize([1.0, 2.0, 3.0, 4.0])
        assert summary.count == 4
        assert summary.mean == pytest.approx(2.5)
        assert summary.median == pytest.approx(2.5)
        assert summary.minimum == 1.0
        assert summary.maximum == 4.0

    def test_empty_sample_rejected(self):
        with pytest.raises(ReproError):
            summarize([])

class TestCDF:
    def test_cdf_at_thresholds(self):
        values = [0.1, 0.2, 0.3, 0.4]
        assert cdf_at(values, [0.25]) == [pytest.approx(0.5)]
        assert cdf_at(values, [1.0]) == [pytest.approx(1.0)]
        assert cdf_at(values, [0.05]) == [pytest.approx(0.0)]

    def test_empty_rejected(self):
        with pytest.raises(ReproError):
            cdf_at([], [0.5])


class TestPercentiles:
    def test_percentile_bounds(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == pytest.approx(50.5)
        with pytest.raises(ReproError):
            percentile(values, 150)
        with pytest.raises(ReproError):
            percentile([], 50)

    def test_deciles_are_nine_increasing_values(self):
        values = list(np.linspace(0, 1, 1_001))
        result = deciles(values)
        assert len(result) == 9
        assert result == sorted(result)
        assert result[4] == pytest.approx(0.5, abs=0.01)

    def test_quartiles(self):
        q1, median, q3 = quartiles(list(range(1, 101)))
        assert q1 < median < q3

    def test_nan_helpers(self):
        assert math.isnan(median_or_nan([]))
        assert median_or_nan([1.0, 2.0, 3.0]) == pytest.approx(2.0)


class TestFairness:
    def test_perfectly_fair(self):
        assert jain_fairness_index([5, 5, 5, 5]) == pytest.approx(1.0)

    def test_single_loaded_server(self):
        # One server out of n carries everything: index = 1/n.
        assert jain_fairness_index([10, 0, 0, 0]) == pytest.approx(0.25)

    def test_all_idle_is_fair(self):
        assert jain_fairness_index([0, 0, 0]) == pytest.approx(1.0)

    def test_index_is_scale_invariant(self):
        loads = [1.0, 2.0, 3.0, 4.0]
        assert jain_fairness_index(loads) == pytest.approx(
            jain_fairness_index([10 * value for value in loads])
        )

    def test_bounds(self):
        loads = [3, 1, 4, 1, 5, 9, 2, 6]
        index = jain_fairness_index(loads)
        assert 1 / len(loads) <= index <= 1.0

    def test_negative_values_rejected(self):
        with pytest.raises(ReproError):
            jain_fairness_index([1, -1])
        with pytest.raises(ReproError):
            jain_fairness_index([])


class TestEWMA:
    def test_alpha_formula_matches_paper(self):
        # alpha = 1 - exp(-dt) with the default 1-second time constant.
        assert alpha_from_interval(0.5) == pytest.approx(1 - math.exp(-0.5))
        assert alpha_from_interval(2.0, time_constant=2.0) == pytest.approx(
            1 - math.exp(-1.0)
        )

    @pytest.mark.parametrize("delta_t", [0.0, -1.0, float("nan"), float("inf")])
    def test_alpha_rejects_degenerate_intervals(self, delta_t):
        with pytest.raises(ValueError):
            alpha_from_interval(delta_t)

    def test_validation_errors_stay_inside_the_repro_hierarchy(self):
        # The ValueError the ISSUE asks for must not break the
        # "every error derives from ReproError" contract the CLI's
        # single except-clause relies on.
        with pytest.raises(ReproError):
            alpha_from_interval(0.0)
        with pytest.raises(ReproError):
            EWMAFilter(-1.0)

    @pytest.mark.parametrize(
        "time_constant", [0.0, -0.5, float("nan"), float("inf")]
    )
    def test_alpha_rejects_degenerate_time_constants(self, time_constant):
        with pytest.raises(ValueError):
            alpha_from_interval(1.0, time_constant=time_constant)

    @pytest.mark.parametrize("time_constant", [0.0, -1.0, float("nan")])
    def test_filter_rejects_degenerate_time_constants(self, time_constant):
        with pytest.raises(ValueError):
            EWMAFilter(time_constant)

    def test_filter_starts_at_first_sample(self):
        ewma = EWMAFilter()
        assert ewma.update(0.0, 10.0) == pytest.approx(10.0)

    def test_filter_moves_towards_new_samples(self):
        ewma = EWMAFilter()
        ewma.update(0.0, 0.0)
        value = ewma.update(1.0, 10.0)
        assert 0.0 < value < 10.0

    def test_filter_converges_to_constant_input(self):
        ewma = EWMAFilter()
        for step in range(200):
            value = ewma.update(step * 0.5, 7.0)
        assert value == pytest.approx(7.0)

    def test_out_of_order_samples_rejected(self):
        ewma = EWMAFilter()
        ewma.update(1.0, 1.0)
        with pytest.raises(ReproError):
            ewma.update(0.5, 2.0)

    def test_duplicate_timestamps_rejected(self):
        # A zero interval means alpha = 0 (the sample would be silently
        # discarded); the filter refuses it instead.
        ewma = EWMAFilter()
        ewma.update(1.0, 1.0)
        with pytest.raises(ReproError):
            ewma.update(1.0, 2.0)

    def test_nan_timestamp_rejected(self):
        ewma = EWMAFilter()
        ewma.update(0.0, 1.0)
        with pytest.raises(ReproError):
            ewma.update(float("nan"), 2.0)

    def test_nan_first_timestamp_rejected(self):
        # A NaN *first* timestamp would otherwise poison _last_time and
        # make every later valid update fail the ordering check.
        ewma = EWMAFilter()
        with pytest.raises(ReproError):
            ewma.update(float("nan"), 1.0)
        ewma.update(0.0, 1.0)  # the filter stays usable

    def test_reset(self):
        ewma = EWMAFilter()
        ewma.update(0.0, 5.0)
        ewma.reset()
        assert ewma.value is None

    def test_smooth_series_length_preserved(self):
        times = [0.0, 0.5, 1.0, 1.5]
        values = [0.0, 10.0, 0.0, 10.0]
        smoothed = smooth_series(times, values)
        assert len(smoothed) == 4
        # Smoothing reduces the swing between consecutive points.
        assert abs(smoothed[2] - smoothed[1]) < abs(values[2] - values[1])

    def test_smooth_series_length_mismatch_rejected(self):
        with pytest.raises(ReproError):
            smooth_series([0.0], [1.0, 2.0])

    def test_smooth_timeseries_pairs(self):
        smoothed = smooth_timeseries([(0.0, 1.0), (1.0, 3.0)])
        assert smoothed[0] == (0.0, pytest.approx(1.0))
        assert smoothed[1][0] == 1.0
