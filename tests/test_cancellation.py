"""Tests for job cancellation / failure injection."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.job import Job
from repro.core.machine import Machine
from repro.core.simulator import Cancellation, ScenarioInputs, Simulator
from repro.schedulers.fcfs import FCFSScheduler
from repro.schedulers.garey_graham import GareyGrahamScheduler
from repro.workloads.transforms import random_cancellations
from tests.conftest import make_jobs


def J(job_id, submit, nodes, runtime, estimate=None):
    return Job(job_id=job_id, submit_time=submit, nodes=nodes, runtime=runtime, estimate=estimate)


def run(jobs, cancellations, scheduler=None, nodes=8):
    sim = Simulator(Machine(nodes), scheduler or FCFSScheduler.plain())
    return sim.run(jobs, scenario=ScenarioInputs(cancellations=cancellations))


class TestQueuedCancellation:
    def test_queued_job_withdrawn(self):
        jobs = [J(0, 0.0, 8, 100.0), J(1, 1.0, 8, 50.0)]
        res = run(jobs, [Cancellation(time=10.0, job_id=1)])
        assert res.cancelled_queued == (1,)
        assert 1 not in res.schedule
        assert len(res.schedule) == 1

    def test_withdrawal_unblocks_queue(self):
        # Wide job 1 blocks narrow job 2 under FCFS; cancelling 1 frees 2.
        jobs = [J(0, 0.0, 6, 100.0), J(1, 1.0, 8, 50.0), J(2, 2.0, 2, 5.0)]
        res = run(jobs, [Cancellation(time=10.0, job_id=1)])
        assert res.schedule[2].start_time == 10.0

    def test_submit_and_cancel_same_instant(self):
        jobs = [J(0, 0.0, 8, 100.0), J(1, 5.0, 8, 50.0)]
        res = run(jobs, [Cancellation(time=5.0, job_id=1)])
        assert res.cancelled_queued == (1,)


class TestRunningKill:
    def test_running_job_killed_and_recorded(self):
        jobs = [J(0, 0.0, 8, 100.0)]
        res = run(jobs, [Cancellation(time=30.0, job_id=0)])
        assert res.killed_running == (0,)
        item = res.schedule[0]
        assert item.cancelled
        assert item.end_time == 30.0
        res.schedule.validate(8)

    def test_kill_releases_nodes(self):
        jobs = [J(0, 0.0, 8, 100.0), J(1, 1.0, 8, 10.0)]
        res = run(jobs, [Cancellation(time=30.0, job_id=0)])
        assert res.schedule[1].start_time == 30.0

    def test_stale_completion_ignored(self):
        # Kill at 30; the original completion at 100 must not double-free.
        jobs = [J(0, 0.0, 4, 100.0), J(1, 0.0, 4, 200.0)]
        res = run(jobs, [Cancellation(time=30.0, job_id=0)])
        assert len(res.schedule) == 2
        res.schedule.validate(8)

    def test_cancel_after_completion_is_noop(self):
        jobs = [J(0, 0.0, 4, 10.0)]
        res = run(jobs, [Cancellation(time=50.0, job_id=0)])
        assert res.cancelled_queued == ()
        assert res.killed_running == ()
        assert not res.schedule[0].cancelled


class TestValidation:
    def test_unknown_job_rejected(self):
        with pytest.raises(ValueError, match="unknown job"):
            run([J(0, 0.0, 1, 1.0)], [Cancellation(time=1.0, job_id=99)])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_time_rejected_at_construction(self, bad):
        # NaN used to hang Simulator.run on both backends (``peek == now``
        # is never true) and inf returned end_time = inf: reject the
        # object itself, so no loop can ever see one.
        with pytest.raises(ValueError, match="finite"):
            Cancellation(time=bad, job_id=0)

    def test_cancel_before_submit_rejected(self):
        with pytest.raises(ValueError, match="before its"):
            run([J(0, 10.0, 1, 1.0)], [Cancellation(time=5.0, job_id=0)])

    def test_scheduler_without_cancel_support_raises(self):
        from repro.core.scheduler import Scheduler

        class Rigid(Scheduler):
            name = "rigid"

            def __init__(self):
                self._queue = []

            def reset(self):
                self._queue = []

            def on_submit(self, job, ctx):
                self._queue.append(job)

            def select_jobs(self, ctx):
                out = [j for j in self._queue if j.nodes <= ctx.free_nodes]
                for j in out:
                    self._queue.remove(j)
                return out

            @property
            def pending_count(self):
                return len(self._queue)

        jobs = [J(0, 0.0, 8, 100.0), J(1, 1.0, 8, 50.0)]
        with pytest.raises(NotImplementedError, match="cancellation"):
            run(jobs, [Cancellation(time=10.0, job_id=1)], scheduler=Rigid())


class TestSimulateWrapper:
    def test_simulate_accepts_cancellations(self):
        from repro.core.simulator import simulate

        jobs = [J(0, 0.0, 8, 100.0), J(1, 1.0, 8, 50.0)]
        res = simulate(
            jobs,
            FCFSScheduler.plain(),
            8,
            scenario=ScenarioInputs(
                cancellations=[Cancellation(time=10.0, job_id=1)]
            ),
        )
        assert res.cancelled_queued == (1,)


class TestRandomCancellations:
    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            random_cancellations([], 1.5)
        with pytest.raises(ValueError):
            random_cancellations([], -0.1)

    def test_rate_zero_cancels_nothing(self):
        jobs = make_jobs(40, seed=1, max_nodes=16)
        assert random_cancellations(jobs, 0.0, seed=2) == []

    def test_rate_one_cancels_every_job_once(self):
        jobs = make_jobs(40, seed=1, max_nodes=16)
        cancellations = random_cancellations(jobs, 1.0, seed=2)
        assert [c.job_id for c in cancellations] == [j.job_id for j in jobs]

    def test_no_duplicate_job_ids_at_intermediate_rates(self):
        jobs = make_jobs(60, seed=5, max_nodes=16)
        for rate in (0.2, 0.5, 0.8):
            picked = [c.job_id for c in random_cancellations(jobs, rate, seed=6)]
            assert len(picked) == len(set(picked))

    def test_deterministic(self):
        jobs = make_jobs(40, seed=1, max_nodes=16)
        a = random_cancellations(jobs, 0.3, seed=2)
        b = random_cancellations(jobs, 0.3, seed=2)
        assert a == b

    def test_seed_changes_selection(self):
        jobs = make_jobs(40, seed=1, max_nodes=16)
        a = random_cancellations(jobs, 0.5, seed=2)
        b = random_cancellations(jobs, 0.5, seed=3)
        assert a != b

    def test_times_after_submission(self):
        jobs = make_jobs(40, seed=3, max_nodes=16)
        by_id = {j.job_id: j for j in jobs}
        for cancel in random_cancellations(jobs, 0.5, seed=4):
            assert cancel.time >= by_id[cancel.job_id].submit_time


@given(st.integers(min_value=0, max_value=6), st.sampled_from([0.1, 0.3, 0.6]))
@settings(max_examples=12, deadline=None)
def test_failure_injection_invariants(seed, fraction):
    """Under any cancellation mix, the run partitions the jobs exactly and
    the surviving schedule stays valid."""
    jobs = make_jobs(40, seed=seed, max_nodes=48)
    cancellations = random_cancellations(jobs, fraction, seed=seed + 1)
    for scheduler in (FCFSScheduler.with_easy(), GareyGrahamScheduler()):
        sim = Simulator(Machine(64), scheduler)
        res = sim.run(jobs, scenario=ScenarioInputs(cancellations=cancellations))
        res.schedule.validate(64)
        executed = {item.job.job_id for item in res.schedule}
        withdrawn = set(res.cancelled_queued)
        assert executed | withdrawn == {j.job_id for j in jobs}
        assert executed & withdrawn == set()
        assert set(res.killed_running) <= executed
        for job_id in res.killed_running:
            assert res.schedule[job_id].cancelled
