"""Unit tests for time binning, the response-time collector and reporting."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.metrics.binning import TimeBinner
from repro.metrics.collector import ResponseTimeCollector, ServerLoadSampler
from repro.metrics.reporting import format_comparison, format_table
from repro.workload.client import RequestOutcome


def _outcome(request_id, sent_at, response_time, kind="wiki", failed=False):
    return RequestOutcome(
        request_id=request_id,
        kind=kind,
        url="/wiki/index.php?title=X",
        sent_at=sent_at,
        established_at=sent_at + 0.001,
        completed_at=None if failed else sent_at + response_time,
        failed=failed,
        failure_reason="connection reset" if failed else None,
    )


class TestTimeBinner:
    def test_samples_land_in_the_right_bins(self):
        binner = TimeBinner(bin_width=10.0)
        binner.extend([5.0], [1.0])
        binner.extend([15.0], [2.0])
        binner.extend([16.0], [3.0])
        bins = binner.bins()
        assert bins[0].count == 1
        assert bins[1].count == 2
        assert bins[1].median == pytest.approx(2.5)

    def test_empty_bins_are_materialised(self):
        binner = TimeBinner(bin_width=10.0)
        binner.extend([35.0], [1.0])
        bins = binner.bins()
        assert len(bins) == 4
        assert bins[0].count == 0
        assert math.isnan(bins[0].median)

    def test_through_extends_the_range(self):
        binner = TimeBinner(bin_width=10.0)
        binner.extend([5.0], [1.0])
        assert len(binner.bins(through=45.0)) == 5

    def test_constructor_through_binds_a_default_horizon(self):
        binner = TimeBinner(bin_width=10.0, through=45.0)
        binner.extend([5.0], [1.0])
        assert len(binner.bins()) == 5
        assert len(binner.median_series()) == 5
        # An explicit call-site horizon still overrides the bound one.
        assert len(binner.bins(through=95.0)) == 10

    def test_constructor_through_alone_materialises_empty_bins(self):
        binner = TimeBinner(bin_width=10.0, through=25.0)
        assert [bin_.count for bin_ in binner.bins()] == [0, 0, 0]

    def test_rate_series(self):
        binner = TimeBinner(bin_width=10.0)
        for timestamp in (1.0, 2.0, 3.0, 4.0, 5.0):
            binner.extend([timestamp], [0.1])
        (center, rate), = binner.rate_series()
        assert center == pytest.approx(5.0)
        assert rate == pytest.approx(0.5)

    def test_decile_series_shape(self):
        binner = TimeBinner(bin_width=10.0)
        for index in range(100):
            binner.extend([5.0], [index / 100.0])
        (center, decile_values), = binner.decile_series()
        assert len(decile_values) == 9
        assert decile_values == sorted(decile_values)

    def test_sample_before_origin_rejected(self):
        binner = TimeBinner(bin_width=10.0, start=100.0)
        with pytest.raises(ReproError):
            binner.extend([50.0], [1.0])

    def test_invalid_bin_width_rejected(self):
        with pytest.raises(ReproError):
            TimeBinner(bin_width=0.0)

    @given(
        samples=st.lists(
            st.tuples(st.floats(0.0, 1e3), st.floats(0.0, 10.0)), max_size=60
        ),
        width=st.floats(0.5, 700.0),
        start=st.floats(0.0, 50.0),
        split=st.integers(0, 60),
    )
    @settings(max_examples=80, deadline=None)
    def test_bins_match_a_per_sample_loop(self, samples, width, start, split):
        samples = [(start + t, v) for t, v in samples]
        reference = {}
        for timestamp, value in samples:
            reference.setdefault(int((timestamp - start) // width), []).append(value)
        binner = TimeBinner(bin_width=width, start=start)
        head, tail = samples[:split], samples[split:]
        binner.extend([t for t, _ in head], [v for _, v in head])
        for timestamp, value in tail:
            binner.extend([timestamp], [value])
        bins = binner.bins()
        assert len(bins) == (max(reference) + 1 if reference else 0)
        for index, bin_ in enumerate(bins):
            assert bin_.start == start + index * width
            assert list(bin_.values) == reference.get(index, [])
        assert len(binner) == len(reference)


class TestResponseTimeCollector:
    def test_records_success_and_failure_separately(self):
        collector = ResponseTimeCollector()
        collector.record(_outcome(1, 0.0, 0.2))
        collector.record(_outcome(2, 1.0, 0.3, failed=True))
        assert collector.totals.completed == 1
        assert collector.totals.failed == 1
        assert collector.totals.failed / len(collector) == pytest.approx(0.5)
        assert len(collector) == 2

    def test_response_times_and_summary(self):
        collector = ResponseTimeCollector()
        for index in range(10):
            collector.record(_outcome(index, float(index), 0.1 * (index + 1)))
        times = collector.response_times()
        assert len(times) == 10
        assert collector.summary().mean == pytest.approx(0.55)
        assert collector.mean_response_time() == pytest.approx(0.55)

    def test_kind_filtering(self):
        collector = ResponseTimeCollector()
        collector.record(_outcome(1, 0.0, 0.2, kind="wiki"))
        collector.record(_outcome(2, 0.0, 0.001, kind="static"))
        assert len(collector.response_times(kind="wiki")) == 1
        assert len(collector.outcomes(kind="static")) == 1
        assert collector.summary(kind="static").mean == pytest.approx(0.001)

    def test_summary_of_empty_collector_is_nan(self):
        summary = ResponseTimeCollector().summary()
        assert summary.count == 0
        assert math.isnan(summary.mean) and math.isnan(summary.p99)

    def test_binned_uses_arrival_time(self):
        collector = ResponseTimeCollector()
        collector.record(_outcome(1, 5.0, 0.2))
        collector.record(_outcome(2, 615.0, 0.4))
        binner = collector.binned(bin_width=600.0)
        bins = binner.bins()
        assert bins[0].count == 1
        assert bins[1].count == 1

    def test_columns_are_dense_and_in_record_order(self):
        collector = ResponseTimeCollector()
        collector.record(_outcome(7, 1.0, 0.25))
        collector.record(_outcome(3, 2.0, 0.5, failed=True))
        retried = _outcome(5, 3.0, 0.5)
        retried.retries, retried.gave_up, retried.completed_at = 2, True, None
        collector.record(retried)
        columns = collector.columns()
        assert columns.request_ids.tolist() == [7, 3, 5]
        assert columns.sent_at.tolist() == [1.0, 2.0, 3.0]
        assert columns.response_times[0] == pytest.approx(0.25)
        assert math.isnan(columns.response_times[1])
        assert math.isnan(columns.response_times[2])
        assert columns.succeeded.tolist() == [True, False, False]
        assert columns.failed.tolist() == [False, True, False]
        assert columns.retries.tolist() == [0, 0, 2]
        assert columns.gave_up.tolist() == [False, False, True]

    def test_binned_through_materialises_trailing_empty_bins(self):
        """Regression: ``binned(through=...)`` used to drop its argument,
        so direct callers silently lost the trailing empty bins the
        Wikipedia figures rely on for run-to-run alignment."""
        collector = ResponseTimeCollector()
        collector.record(_outcome(1, 5.0, 0.2))
        binner = collector.binned(bin_width=600.0, through=2_400.0)
        assert len(binner.bins()) == 5
        assert [bin_.count for bin_ in binner.bins()] == [1, 0, 0, 0, 0]
        assert len(binner.median_series()) == 5


class TestServerLoadSampler:
    def test_mean_and_fairness_series(self):
        sampler = ServerLoadSampler(interval=0.5)
        sampler.sample(0.0, [4, 4, 4, 4])
        sampler.sample(0.5, [8, 0, 0, 0])
        mean_series = sampler.mean_load_series()
        fairness_series = sampler.fairness_series()
        assert mean_series[0][1] == pytest.approx(4.0)
        assert mean_series[1][1] == pytest.approx(2.0)
        assert fairness_series[0][1] == pytest.approx(1.0)
        assert fairness_series[1][1] == pytest.approx(0.25)
        assert len(sampler) == 2

    def test_inconsistent_server_count_rejected(self):
        sampler = ServerLoadSampler()
        sampler.sample(0.0, [1, 2, 3])
        with pytest.raises(ReproError):
            sampler.sample(1.0, [1, 2])

    def test_invalid_interval_rejected(self):
        with pytest.raises(ReproError):
            ServerLoadSampler(interval=0.0)


class TestReporting:
    def test_format_table_alignment_and_title(self):
        text = format_table(
            ["policy", "mean"],
            [["RR", 1.234567], ["SR4", 0.5]],
            title="Figure 2",
        )
        lines = text.splitlines()
        assert lines[0] == "Figure 2"
        assert "policy" in lines[1]
        assert "1.235" in text
        assert "SR4" in text

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ReproError):
            format_table(["a", "b"], [["only-one"]])

    def test_format_table_rejects_empty_headers(self):
        with pytest.raises(ReproError):
            format_table([], [])

    def test_format_comparison_shows_improvement_factor(self):
        text = format_comparison("mean (s)", "RR", 1.0, {"SR4": 0.5})
        assert "2.00x" in text

    def test_format_comparison_handles_zero(self):
        text = format_comparison("mean (s)", "RR", 1.0, {"broken": 0.0})
        assert "n/a" in text
