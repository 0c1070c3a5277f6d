"""Tests for the closed-loop workload model (Section 2.4)."""

import pytest

from repro.schedulers.fcfs import FCFSScheduler
from repro.schedulers.garey_graham import GareyGrahamScheduler
from repro.workloads.feedback import (
    UserProfile,
    default_population,
    run_closed_loop,
)

HOUR = 3600.0
DAY = 86_400.0


def tiny_user(uid=0, think=100.0, balk=None):
    return UserProfile(
        user_id=uid,
        mean_think_time=think,
        widths=(1, 2),
        width_probs=(0.5, 0.5),
        runtime_median=50.0,
        runtime_sigma=0.3,
        balk_slowdown=balk,
    )


class TestClosedLoop:
    def test_jobs_generated_and_scheduled(self):
        result = run_closed_loop(
            [tiny_user(0), tiny_user(1)], FCFSScheduler.plain(), 8,
            horizon=2 * HOUR, seed=1,
        )
        assert result.total_jobs > 2
        assert len(result.schedule) == result.total_jobs
        result.schedule.validate(8)

    def test_submission_depends_on_completion(self):
        # Each user's k-th submission must follow their (k-1)-th completion.
        result = run_closed_loop(
            [tiny_user(0)], FCFSScheduler.plain(), 8, horizon=2 * HOUR, seed=2
        )
        items = sorted(result.schedule, key=lambda i: i.job.submit_time)
        for prev, nxt in zip(items, items[1:]):
            assert nxt.job.submit_time >= prev.end_time

    def test_deterministic_given_seed(self):
        a = run_closed_loop([tiny_user(0)], FCFSScheduler.plain(), 8, horizon=HOUR, seed=3)
        b = run_closed_loop([tiny_user(0)], FCFSScheduler.plain(), 8, horizon=HOUR, seed=3)
        assert [(j.submit_time, j.runtime) for j in a.trace] == [
            (j.submit_time, j.runtime) for j in b.trace
        ]

    def test_horizon_bounds_submissions(self):
        result = run_closed_loop(
            [tiny_user(0)], FCFSScheduler.plain(), 8, horizon=HOUR, seed=4
        )
        assert all(j.submit_time < HOUR for j in result.trace)

    def test_invalid_horizon(self):
        with pytest.raises(ValueError, match="horizon"):
            run_closed_loop([tiny_user(0)], FCFSScheduler.plain(), 8, horizon=0.0)

    def test_balking_users_abandon(self):
        # One user, impossible slowdown threshold: the machine is seeded
        # with a competing saturating user so responses stretch.
        hog = UserProfile(
            user_id=0, mean_think_time=1.0, widths=(8,), width_probs=(1.0,),
            runtime_median=5000.0, runtime_sigma=0.1,
        )
        touchy = tiny_user(1, think=10.0, balk=1.001)
        result = run_closed_loop(
            [hog, touchy], FCFSScheduler.plain(), 8, horizon=DAY, seed=5
        )
        assert 1 in result.abandoned_users
        # The touchy user stopped early: far fewer submissions than the hog.
        assert result.submissions_per_user[1] < result.submissions_per_user[0]

    def test_section24_coupling_better_scheduler_more_work(self):
        """The load adapts to scheduler quality (the Section 2.4 effect).

        With think-time users, a scheduler with shorter response times
        returns users to the submission loop sooner, so the same population
        over the same horizon submits *more* jobs.
        """
        users = default_population(12, seed=6, mean_think_time=600.0)
        fcfs = run_closed_loop(users, FCFSScheduler.plain(), 64, horizon=5 * DAY, seed=7)
        gg = run_closed_loop(users, GareyGrahamScheduler(), 64, horizon=5 * DAY, seed=7)
        art = lambda r: (
            sum(i.response_time for i in r.schedule) / max(len(r.schedule), 1)
        )
        # G&G gives better service here, hence elicits at least as much work.
        assert art(gg) <= art(fcfs)
        assert gg.total_jobs >= fcfs.total_jobs

    def test_default_population_shape(self):
        users = default_population(40, seed=8)
        assert len(users) == 40
        assert any(max(u.widths) >= 64 for u in users)    # wide users exist
        assert any(max(u.widths) <= 8 for u in users)     # narrow users exist

    def test_trace_is_reusable_open_loop(self):
        from repro.core.simulator import simulate

        closed = run_closed_loop(
            default_population(6, seed=9), FCFSScheduler.plain(), 64,
            horizon=2 * DAY, seed=10,
        )
        replay = simulate(closed.trace, FCFSScheduler.plain(), 64)
        # Replaying the realised trace open-loop reproduces the schedule.
        assert len(replay.schedule) == closed.total_jobs
        for job in closed.trace:
            assert replay.schedule[job.job_id].end_time == pytest.approx(
                closed.schedule[job.job_id].end_time
            )

    def test_pinned_closed_loop_digest(self):
        """Bit-level pin of one seeded run (recorded before the loop moved
        onto the shared site object): a backfilling scheduler, balking
        users, three days."""
        from tests.conftest import schedule_digest

        users = default_population(
            14, seed=21, mean_think_time=300.0, balk_slowdown=6.0
        )
        result = run_closed_loop(
            users, FCFSScheduler.with_easy(), 32, horizon=3 * DAY, seed=22
        )
        assert result.total_jobs == 424
        assert sorted(result.abandoned_users) == [1, 5, 7, 9, 13]
        assert schedule_digest(result.schedule) == (
            "f8c3aaeb3444640f59b3b0e4aa3ad5029310bfe85e8c05328f075b1294e48ce2"
        )
