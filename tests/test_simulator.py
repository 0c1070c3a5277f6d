"""Integration tests for the discrete-event simulator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.job import Job
from repro.core.machine import Machine
from repro.core.simulator import SimulationConfig, Simulator, simulate
from repro.schedulers.fcfs import FCFSScheduler
from repro.schedulers.garey_graham import GareyGrahamScheduler
from tests.conftest import make_jobs


def J(job_id, submit, nodes, runtime, estimate=None):
    return Job(job_id=job_id, submit_time=submit, nodes=nodes, runtime=runtime, estimate=estimate)


class TestBasicRuns:
    def test_single_job(self):
        res = simulate([J(0, 0.0, 4, 100.0)], FCFSScheduler.plain(), 8)
        assert res.schedule[0].start_time == 0.0
        assert res.schedule[0].end_time == 100.0
        assert res.end_time == 100.0

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError, match="empty workload"):
            simulate([], FCFSScheduler.plain(), 8)

    def test_empty_result_constructor(self):
        from repro.core.simulator import SimulationResult

        res = SimulationResult.empty()
        assert len(res.schedule) == 0
        assert res.end_time == 0.0
        assert res.decision_points == 0

    def test_sequential_when_machine_full(self):
        jobs = [J(0, 0.0, 8, 10.0), J(1, 0.0, 8, 10.0)]
        res = simulate(jobs, FCFSScheduler.plain(), 8)
        assert res.schedule[0].start_time == 0.0
        assert res.schedule[1].start_time == 10.0

    def test_parallel_when_fits(self):
        jobs = [J(0, 0.0, 4, 10.0), J(1, 0.0, 4, 10.0)]
        res = simulate(jobs, FCFSScheduler.plain(), 8)
        assert res.schedule[0].start_time == 0.0
        assert res.schedule[1].start_time == 0.0

    def test_job_waits_for_submission(self):
        res = simulate([J(0, 42.0, 1, 1.0)], FCFSScheduler.plain(), 8)
        assert res.schedule[0].start_time == 42.0

    def test_zero_runtime_job(self):
        res = simulate([J(0, 0.0, 8, 0.0), J(1, 0.0, 8, 5.0)], FCFSScheduler.plain(), 8)
        assert res.schedule[0].end_time == res.schedule[0].start_time
        assert len(res.schedule) == 2

    def test_too_wide_job_rejected_upfront(self):
        with pytest.raises(ValueError, match="cap_nodes"):
            simulate([J(0, 0.0, 9, 1.0)], FCFSScheduler.plain(), 8)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            simulate([J(0, 0.0, 1, 1.0), J(0, 1.0, 1, 1.0)], FCFSScheduler.plain(), 8)

    def test_unsorted_input_accepted(self):
        jobs = [J(1, 50.0, 1, 1.0), J(0, 0.0, 1, 1.0)]
        res = simulate(jobs, FCFSScheduler.plain(), 8)
        assert res.schedule[0].start_time == 0.0
        assert res.schedule[1].start_time == 50.0


class TestOnlineSemantics:
    def test_completion_processed_before_submission(self):
        # Job 1 completes exactly when job 2 arrives; job 2 must start
        # immediately on the freed nodes.
        jobs = [J(0, 0.0, 8, 10.0), J(1, 10.0, 8, 5.0)]
        res = simulate(jobs, FCFSScheduler.plain(), 8)
        assert res.schedule[1].start_time == 10.0

    def test_fcfs_is_fair(self):
        # FCFS: a job's completion never depends on later submissions.
        base = make_jobs(30, seed=3, max_nodes=32)
        extended = base + [J(1000, base[10].submit_time + 0.5, 32, 500.0)]
        r1 = simulate(base, FCFSScheduler.plain(), 64)
        r2 = simulate(extended, FCFSScheduler.plain(), 64)
        for job in base[:11]:
            assert r1.schedule[job.job_id].end_time == r2.schedule[job.job_id].end_time

    def test_cancel_over_limit(self):
        jobs = [J(0, 0.0, 4, runtime=100.0, estimate=10.0)]
        machine = Machine(8)
        res = Simulator(
            machine, FCFSScheduler.plain(), SimulationConfig(cancel_over_limit=True)
        ).run(jobs)
        assert res.schedule[0].cancelled
        assert res.schedule[0].end_time == 10.0

    def test_no_cancel_by_default(self):
        jobs = [J(0, 0.0, 4, runtime=100.0, estimate=10.0)]
        res = simulate(jobs, FCFSScheduler.plain(), 8)
        assert not res.schedule[0].cancelled
        assert res.schedule[0].end_time == 100.0

    def test_overrunning_job_blocks_machine_until_done(self):
        # Job 0 overruns its estimate; job 1 must still wait for the real end.
        jobs = [J(0, 0.0, 8, runtime=100.0, estimate=10.0), J(1, 5.0, 8, 1.0)]
        res = simulate(jobs, FCFSScheduler.with_easy(), 8)
        assert res.schedule[1].start_time == 100.0


class TestDiagnostics:
    def test_decision_points_counted(self):
        res = simulate(make_jobs(10, seed=1, max_nodes=8), FCFSScheduler.plain(), 64)
        assert res.decision_points >= 10

    def test_max_queue_length_tracked(self):
        jobs = [J(i, 0.0, 8, 100.0) for i in range(5)]
        res = simulate(jobs, FCFSScheduler.plain(), 8)
        assert res.max_queue_length == 4

    def test_phase_seconds_breakdown_present(self):
        """With ``profile_phases`` the run attributes its wall clock: the
        phase breakdown sums to (at most) the total."""
        jobs = make_jobs(100, seed=7, max_nodes=64, mean_gap=25.0)
        result = Simulator(
            Machine(64),
            FCFSScheduler.plain(),
            SimulationConfig(backend="numpy", profile_phases=True),
        ).run(jobs)
        phases = result.phase_seconds
        for key in ("total", "decide", "events", "commit", "other"):
            assert key in phases
            assert phases[key] >= 0.0
        parts = phases["decide"] + phases["events"] + phases["commit"]
        assert parts <= phases["total"] + 1e-9
        # Without ``profile_phases`` only the cheap breakdown is collected (no
        # extra clock reads on the hot loop).
        plain = Simulator(
            Machine(64), FCFSScheduler.plain(), SimulationConfig(backend="python")
        ).run(jobs)
        assert set(plain.phase_seconds) == {"total", "decide"}


@given(st.integers(min_value=0, max_value=6), st.integers(min_value=10, max_value=40))
@settings(max_examples=25, deadline=None)
def test_every_job_scheduled_validly(seed, n):
    """Any stream is fully scheduled and valid, whatever the scheduler."""
    jobs = make_jobs(n, seed=seed, max_nodes=64)
    for scheduler in (FCFSScheduler.plain(), FCFSScheduler.with_easy(), GareyGrahamScheduler()):
        res = simulate(jobs, scheduler, 64)
        assert len(res.schedule) == n
        res.schedule.validate(64)
