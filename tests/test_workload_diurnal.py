"""Tests for the diurnal workload (:mod:`repro.workload.diurnal`)."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workload.diurnal import DiurnalWorkload


def _workload(**overrides):
    params = dict(
        mean_rate=20.0,
        amplitude=10.0,
        period=100.0,
        duration=100.0,
        num_steps=20,
    )
    params.update(overrides)
    return DiurnalWorkload(**params)


class TestValidation:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("mean_rate", 0.0),
            ("amplitude", -1.0),
            ("amplitude", 25.0),  # exceeds the mean: rate would go negative
            ("period", 0.0),
            ("duration", -5.0),
            ("num_steps", 0),
            ("noise", -0.1),
            ("min_rate", 0.0),
            # Non-finite rates/durations would make arrival generation
            # loop forever; they must be rejected, not attempted.
            ("duration", float("inf")),
            ("period", float("nan")),
            ("mean_rate", float("inf")),
        ],
    )
    def test_bad_parameters_are_loud(self, field, value):
        with pytest.raises(WorkloadError):
            _workload(**{field: value})


class TestSinusoid:
    def test_starts_at_the_trough_and_peaks_mid_period(self):
        workload = _workload()
        assert workload.rate_at(0.0) == pytest.approx(10.0)
        assert workload.rate_at(50.0) == pytest.approx(30.0)
        assert workload.rate_at(100.0) == pytest.approx(10.0)

    def test_phases_cover_the_duration_exactly(self):
        workload = _workload(num_steps=16)
        phases = workload.phases()
        assert len(phases) == 16
        assert sum(phase.duration for phase in phases) == pytest.approx(100.0)

    def test_noiseless_phases_follow_the_curve(self):
        workload = _workload(num_steps=4)
        rates = [phase.rate for phase in workload.phases()]
        # Trough-side steps are slower than peak-side steps.
        assert rates[0] < rates[1]
        assert rates[1] == pytest.approx(rates[2])  # symmetric around the peak
        assert rates[2] > rates[3]

    def test_min_rate_floor_applies(self):
        workload = _workload(amplitude=10.0, min_rate=15.0)
        assert all(phase.rate >= 15.0 for phase in workload.phases())

    def test_noise_perturbs_but_respects_the_floor(self):
        workload = _workload(noise=1.0, min_rate=5.0)
        rng = np.random.default_rng(7)
        noisy = [phase.rate for phase in workload.phases(rng)]
        clean = [phase.rate for phase in workload.phases()]
        assert noisy != clean
        assert all(rate >= 5.0 for rate in noisy)

    def test_noise_without_rng_keeps_the_pure_sinusoid(self):
        workload = _workload(noise=0.5)
        assert [p.rate for p in workload.phases()] == [
            p.rate for p in workload.phases(None)
        ]


class TestGeneration:
    def test_same_seed_same_trace(self):
        workload = _workload(noise=0.1)
        first = workload.generate(np.random.default_rng(42))
        second = workload.generate(np.random.default_rng(42))
        assert len(first) == len(second)
        assert [r.arrival_time for r in first] == [r.arrival_time for r in second]
        assert [r.service_demand for r in first] == [
            r.service_demand for r in second
        ]

    def test_request_ids_are_trace_local(self):
        trace = _workload().generate(np.random.default_rng(1))
        assert [request.request_id for request in trace] == list(
            range(1, len(trace) + 1)
        )

    def test_arrival_count_tracks_the_expected_volume(self):
        workload = _workload(mean_rate=50.0, amplitude=20.0, duration=200.0,
                             period=200.0, num_steps=40)
        trace = workload.generate(np.random.default_rng(3))
        expected = workload.mean_rate * workload.duration
        assert 0.85 * expected < len(trace) < 1.15 * expected

    def test_arrivals_are_denser_at_the_peak(self):
        workload = _workload(mean_rate=40.0, amplitude=30.0)
        trace = workload.generate(np.random.default_rng(5))
        trough_half = sum(1 for r in trace if r.arrival_time < 25.0)
        peak_half = sum(1 for r in trace if 25.0 <= r.arrival_time < 75.0)
        assert peak_half > 2 * trough_half

    def test_trace_name_describes_the_schedule(self):
        trace = _workload().generate(np.random.default_rng(0))
        assert trace.name.startswith("diurnal-")
