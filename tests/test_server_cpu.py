"""Unit tests for the CPU models (processor sharing and FIFO)."""

import pytest

from repro.errors import ServerError
from repro.server.cpu import FIFOCPU, ProcessorSharingCPU, make_cpu


class TestProcessorSharingCPU:
    def test_single_job_takes_its_demand(self, simulator):
        cpu = ProcessorSharingCPU(simulator, num_cores=2)
        completions = []
        cpu.add_job(1, 0.5, lambda job_id: completions.append((job_id, simulator.now)))
        simulator.run()
        assert completions == [(1, pytest.approx(0.5))]

    def test_jobs_within_core_capacity_do_not_slow_each_other(self, simulator):
        cpu = ProcessorSharingCPU(simulator, num_cores=2)
        completions = {}
        cpu.add_job(1, 0.5, lambda job_id: completions.setdefault(job_id, simulator.now))
        cpu.add_job(2, 0.5, lambda job_id: completions.setdefault(job_id, simulator.now))
        simulator.run()
        assert completions[1] == pytest.approx(0.5)
        assert completions[2] == pytest.approx(0.5)

    def test_oversubscription_slows_all_jobs(self, simulator):
        # 4 equal jobs on 2 cores: each runs at rate 1/2, so 0.5 s of
        # demand takes 1.0 s of wall clock.
        cpu = ProcessorSharingCPU(simulator, num_cores=2)
        completions = {}
        for job_id in range(4):
            cpu.add_job(job_id, 0.5, lambda j: completions.setdefault(j, simulator.now))
        simulator.run()
        for job_id in range(4):
            assert completions[job_id] == pytest.approx(1.0)

    def test_late_arrival_shares_remaining_capacity(self, simulator):
        cpu = ProcessorSharingCPU(simulator, num_cores=1)
        completions = {}
        cpu.add_job(1, 1.0, lambda j: completions.setdefault(j, simulator.now))
        # Second job arrives at t=0.5; from then on both run at rate 1/2.
        simulator.schedule_at(
            0.5, lambda: cpu.add_job(2, 0.25, lambda j: completions.setdefault(j, simulator.now))
        )
        simulator.run()
        # Job 1: 0.5 done alone, remaining 0.5 at half speed -> finishes at 1.5... but
        # job 2 finishes first (0.25 demand at half speed = 0.5s) at t=1.0,
        # after which job 1 runs alone again.
        assert completions[2] == pytest.approx(1.0)
        assert completions[1] == pytest.approx(1.25)

    def test_duplicate_job_id_rejected(self, simulator):
        cpu = ProcessorSharingCPU(simulator, num_cores=1)
        cpu.add_job(1, 1.0, lambda j: None)
        with pytest.raises(ServerError):
            cpu.add_job(1, 1.0, lambda j: None)

    def test_non_positive_demand_rejected(self, simulator):
        cpu = ProcessorSharingCPU(simulator, num_cores=1)
        with pytest.raises(ServerError):
            cpu.add_job(1, 0.0, lambda j: None)

    def test_each_job_completes_exactly_once(self, simulator):
        cpu = ProcessorSharingCPU(simulator, num_cores=2)
        completed = []
        for job_id in range(5):
            cpu.add_job(job_id, 0.1, completed.append)
        simulator.run()
        assert sorted(completed) == [0, 1, 2, 3, 4]

    def test_set_speed_mid_run_replans_the_completion(self, simulator):
        # Half of a 1.0 s job runs at speed 1; the other half at speed 2
        # takes 0.25 s, so the job finishes at 0.75 s.
        cpu = ProcessorSharingCPU(simulator, num_cores=2)
        completions = []
        cpu.add_job(1, 1.0, lambda job_id: completions.append(simulator.now))
        simulator.schedule_at(0.5, lambda: cpu.set_speed(2.0), label="speed-up")
        simulator.run()
        assert completions == [pytest.approx(0.75)]

    def test_a_job_the_clock_cannot_resolve_completes_now(self, simulator):
        # At t = 30000 s one ulp of the clock is 3.6e-12 s: a remaining
        # demand of 1.5e-12 s is above the completion epsilon but adds
        # nothing to the clock, so its completion used to re-arm at the
        # same instant forever.
        simulator.run(until=30000.0)
        cpu = ProcessorSharingCPU(simulator, num_cores=2)
        completions = []
        cpu.add_job(1, 1.5e-12, lambda job_id: completions.append((job_id, simulator.now)))
        simulator.run(max_events=100_000)
        assert completions == [(1, 30000.0)]
        assert simulator.events_executed == 1

    def test_invalid_core_count_rejected(self, simulator):
        with pytest.raises(ServerError):
            ProcessorSharingCPU(simulator, num_cores=0)


class TestFIFOCPU:
    def test_jobs_run_to_completion_in_order(self, simulator):
        cpu = FIFOCPU(simulator, num_cores=1)
        completions = []
        cpu.add_job(1, 0.3, lambda j: completions.append((j, simulator.now)))
        cpu.add_job(2, 0.2, lambda j: completions.append((j, simulator.now)))
        simulator.run()
        assert completions == [(1, pytest.approx(0.3)), (2, pytest.approx(0.5))]

    def test_parallel_cores(self, simulator):
        cpu = FIFOCPU(simulator, num_cores=2)
        completions = {}
        cpu.add_job(1, 0.3, lambda j: completions.setdefault(j, simulator.now))
        cpu.add_job(2, 0.3, lambda j: completions.setdefault(j, simulator.now))
        simulator.run()
        assert completions[1] == pytest.approx(0.3)
        assert completions[2] == pytest.approx(0.3)

    def test_duplicate_job_rejected(self, simulator):
        cpu = FIFOCPU(simulator, num_cores=1)
        cpu.add_job(1, 1.0, lambda j: None)
        with pytest.raises(ServerError):
            cpu.add_job(1, 0.5, lambda j: None)


class TestFactory:
    def test_processor_sharing_aliases(self, simulator):
        assert isinstance(make_cpu(simulator, 2, "processor-sharing"), ProcessorSharingCPU)
        assert isinstance(make_cpu(simulator, 2, "ps"), ProcessorSharingCPU)

    def test_fifo_aliases(self, simulator):
        assert isinstance(make_cpu(simulator, 2, "fifo"), FIFOCPU)
        assert isinstance(make_cpu(simulator, 2, "run-to-completion"), FIFOCPU)

    def test_unknown_model_rejected(self, simulator):
        with pytest.raises(ServerError):
            make_cpu(simulator, 2, "quantum")
