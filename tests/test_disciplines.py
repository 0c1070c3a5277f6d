"""Semantics tests for the four servicing disciplines.

These encode the paper's definitions directly: head-blocking greedy list
scheduling, Garey & Graham any-fit, EASY's no-head-postponement invariant,
and conservative backfilling's no-anyone-postponement invariant.
"""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.job import Job
from repro.core.machine import Machine
from repro.core.profile import AvailabilityProfile
from repro.core.scheduler import RunningJob, SchedulerContext
from repro.core.simulator import SimulationConfig, simulate
from repro.core.state import SchedulingState, StateDivergenceError
from repro.schedulers.base import OrderedQueueScheduler, SubmitOrderPolicy
from repro.schedulers.disciplines import (
    AnyFitDiscipline,
    ConservativeBackfill,
    EasyBackfill,
    HeadBlockingDiscipline,
)
from repro.schedulers.fcfs import FCFSScheduler
from repro.schedulers.garey_graham import GareyGrahamScheduler
from tests.conftest import make_jobs


def J(job_id, submit, nodes, runtime, estimate=None):
    return Job(job_id=job_id, submit_time=submit, nodes=nodes, runtime=runtime, estimate=estimate)


def run(jobs, discipline, nodes=8):
    scheduler = OrderedQueueScheduler(SubmitOrderPolicy(), discipline, name="test")
    return simulate(jobs, scheduler, nodes)


class TestHeadBlocking:
    def test_head_blocks_smaller_followers(self):
        jobs = [
            J(0, 0.0, 8, 100.0),   # occupies everything
            J(1, 1.0, 8, 10.0),    # head of queue, blocked
            J(2, 2.0, 1, 1.0),     # would fit, must NOT start (FCFS)
        ]
        res = run(jobs, HeadBlockingDiscipline())
        assert res.schedule[2].start_time >= res.schedule[1].start_time

    def test_starts_in_order_when_fitting(self):
        jobs = [J(0, 0.0, 2, 10.0), J(1, 0.0, 2, 10.0), J(2, 0.0, 2, 10.0)]
        res = run(jobs, HeadBlockingDiscipline())
        assert all(res.schedule[i].start_time == 0.0 for i in range(3))


class TestAnyFit:
    def test_fills_past_blocked_head(self):
        jobs = [
            J(0, 0.0, 8, 100.0),
            J(1, 1.0, 8, 10.0),    # blocked head
            J(2, 2.0, 1, 1.0),     # any-fit: starts during job 0? no - machine full
        ]
        res = run(jobs, AnyFitDiscipline())
        # After job 0 completes at 100, job 1 (8 nodes) and job 2 compete;
        # job 1 fits and is first in order.
        assert res.schedule[1].start_time == 100.0

    def test_small_job_leapfrogs(self):
        jobs = [
            J(0, 0.0, 6, 100.0),   # 6 of 8 busy
            J(1, 1.0, 4, 10.0),    # needs 4, blocked
            J(2, 2.0, 2, 1.0),     # fits the 2 free nodes immediately
        ]
        res = run(jobs, AnyFitDiscipline())
        assert res.schedule[2].start_time == 2.0
        assert res.schedule[1].start_time == 100.0

    def test_never_idles_when_work_fits(self):
        # Work-conserving property: whenever a queued job fits, it runs.
        jobs = make_jobs(40, seed=11, max_nodes=32)
        res = simulate(jobs, GareyGrahamScheduler(), 64)
        res.schedule.validate(64)
        # Every job starts either at submission or at some completion event.
        ends = {item.end_time for item in res.schedule}
        for item in res.schedule:
            assert (
                item.start_time == item.job.submit_time
                or item.start_time in ends
            )


class TestEasyBackfill:
    def test_backfills_short_job(self):
        jobs = [
            J(0, 0.0, 6, 100.0, estimate=100.0),  # 6 busy until 100
            J(1, 1.0, 4, 10.0, estimate=10.0),    # head, needs 4, waits to 100
            J(2, 2.0, 2, 50.0, estimate=50.0),    # fits 2 free, ends at 52 <= 100
        ]
        res = run(jobs, EasyBackfill())
        assert res.schedule[2].start_time == 2.0

    def test_never_postpones_projected_head_start(self):
        jobs = [
            J(0, 0.0, 6, 100.0, estimate=100.0),
            J(1, 1.0, 4, 10.0, estimate=10.0),     # head: projected start 100
            J(2, 2.0, 2, 200.0, estimate=200.0),   # would push head to 202; only 2 nodes though
        ]
        res = run(jobs, EasyBackfill())
        # Job 2 uses only the extra nodes (6 busy + 2 = 8; head needs 4 of
        # the 6 released at t=100... head start would move to 202).
        # extra = free_at(shadow=100) - 4 = 8-4 = 4 >= 2, so job 2 IS allowed
        # (it fits beside the head after t=100).
        assert res.schedule[2].start_time == 2.0
        assert res.schedule[1].start_time == 100.0

    def test_rejects_backfill_that_would_delay_head(self):
        jobs = [
            J(0, 0.0, 5, 100.0, estimate=100.0),   # 5 busy until 100
            J(1, 1.0, 6, 10.0, estimate=10.0),     # head: needs 6, shadow 100, extra 2
            J(2, 2.0, 3, 200.0, estimate=200.0),   # fits 3 free now, ends 202 > 100, needs > extra
        ]
        res = run(jobs, EasyBackfill())
        assert res.schedule[1].start_time == 100.0   # head on time
        assert res.schedule[2].start_time >= 100.0   # backfill refused

    def test_easy_improves_on_plain_fcfs(self):
        jobs = make_jobs(80, seed=5, max_nodes=64, mean_gap=30.0)
        plain = simulate(jobs, FCFSScheduler.plain(), 64)
        easy = simulate(jobs, FCFSScheduler.with_easy(), 64)
        art = lambda r: sum(i.response_time for i in r.schedule) / len(r.schedule)
        assert art(easy) <= art(plain)


class TestConservativeBackfill:
    def test_backfill_cannot_delay_any_queued_job(self):
        jobs = [
            J(0, 0.0, 6, 100.0, estimate=100.0),
            J(1, 1.0, 4, 10.0, estimate=10.0),    # reservation at 100
            J(2, 2.0, 4, 30.0, estimate=30.0),    # fits beside job 1 at 100
            J(3, 3.0, 2, 300.0, estimate=300.0),  # would overlap [100,110) where 0 free
        ]
        res = run(jobs, ConservativeBackfill())
        # Jobs 1 and 2 run concurrently at 100 (4 + 4 = 8 nodes).  Job 3
        # fits the 2 free nodes at t=3, but running [3, 303) would claim 2
        # nodes during [100, 110) where jobs 1+2 hold all 8 — that would
        # postpone an earlier job, so conservative refuses the backfill and
        # gives job 3 its earliest non-disturbing start instead.
        assert res.schedule[1].start_time == 100.0
        assert res.schedule[2].start_time == 100.0
        assert res.schedule[3].start_time == 110.0

    def test_backfill_accepted_when_it_disturbs_nobody(self):
        jobs = [
            J(0, 0.0, 6, 100.0, estimate=100.0),
            J(1, 1.0, 4, 10.0, estimate=10.0),   # reservation at 100
            J(2, 2.0, 2, 50.0, estimate=50.0),   # 2 free nodes, ends at 52 < 100
        ]
        res = run(jobs, ConservativeBackfill())
        assert res.schedule[2].start_time == 2.0
        assert res.schedule[1].start_time == 100.0

    def test_projections_never_worsen_vs_reservation(self):
        # With exact estimates, every job must complete no later than its
        # FCFS-with-reservations projection: compare conservative vs plain
        # FCFS completion per job.
        jobs = make_jobs(60, seed=9, max_nodes=32, loose_estimates=False)
        plain = simulate(jobs, FCFSScheduler.plain(), 64)
        cons = simulate(jobs, FCFSScheduler.with_conservative(), 64)
        for job in jobs:
            assert cons.schedule[job.job_id].end_time <= plain.schedule[job.job_id].end_time + 1e-6

    def test_exact_estimates_conservative_at_least_as_good_as_fcfs(self):
        jobs = make_jobs(60, seed=10, max_nodes=48, loose_estimates=False)
        plain = simulate(jobs, FCFSScheduler.plain(), 64)
        cons = simulate(jobs, FCFSScheduler.with_conservative(), 64)
        art = lambda r: sum(i.response_time for i in r.schedule) / len(r.schedule)
        assert art(cons) <= art(plain) + 1e-9


class TestConservativeDepth:
    def test_depth_validation(self):
        with pytest.raises(ValueError, match="depth"):
            ConservativeBackfill(depth=0)

    def test_unbounded_depth_matches_default(self):
        jobs = make_jobs(50, seed=15, max_nodes=48)
        a = run(jobs, ConservativeBackfill(), nodes=64)
        b = run(jobs, ConservativeBackfill(depth=None), nodes=64)
        for job in jobs:
            assert a.schedule[job.job_id].end_time == b.schedule[job.job_id].end_time

    def test_large_depth_equals_exact(self):
        jobs = make_jobs(40, seed=16, max_nodes=48)
        exact = run(jobs, ConservativeBackfill(), nodes=64)
        deep = run(jobs, ConservativeBackfill(depth=10_000), nodes=64)
        for job in jobs:
            assert exact.schedule[job.job_id].end_time == deep.schedule[job.job_id].end_time

    def test_depth_one_starts_at_most_one_job_per_decision_point(self):
        # Authentic bf_max_job_test semantics: only `depth` queue entries
        # are examined per scheduling pass, so depth=1 can start at most
        # one job per decision instant (the next event re-triggers a pass).
        jobs = make_jobs(40, seed=17, max_nodes=48)
        d1 = run(jobs, ConservativeBackfill(depth=1), nodes=64)
        starts_at: dict[float, int] = {}
        for item in d1.schedule:
            starts_at[item.start_time] = starts_at.get(item.start_time, 0) + 1
        assert max(starts_at.values()) == 1

    def test_bounded_depth_still_valid_and_complete(self):
        jobs = make_jobs(60, seed=18, max_nodes=48, mean_gap=20.0)
        res = run(jobs, ConservativeBackfill(depth=5), nodes=64)
        assert len(res.schedule) == len(jobs)
        res.schedule.validate(64)


class _HandDrivenMachine:
    """Machine, state, context and wait queue moved by hand, delta for delta
    the way the simulator moves them."""

    def __init__(self, nodes, verify_every=0):
        self.machine = Machine(nodes)
        self.running = {}
        self.state = SchedulingState(nodes, verify_every=verify_every)
        self.ctx = SchedulerContext(self.machine, self.running, state=self.state)
        self.queue = []

    def submit(self, job):
        self.queue.append(job)
        self.state.note_enqueued(job.nodes)

    def withdraw(self, job):
        self.queue.remove(job)
        self.state.note_dequeued(job.nodes)

    def decide(self, discipline, now):
        self.ctx.now = now
        started = discipline.select(self.queue, self.ctx)
        for job in started:
            self.withdraw(job)
            self.machine.allocate(job)
            self.running[job.job_id] = RunningJob(job=job, start_time=now)
            self.state.on_start(job.job_id, job.estimated_runtime, job.nodes)
        return started

    def complete(self, job, now):
        self.ctx.now = now
        self.machine.release(job.job_id)
        del self.running[job.job_id]
        self.state.on_release(job.job_id)


class TestConservativePlanReuse:
    """The reservation plan outlives the decision point: a decision re-places
    only what an event invalidated, counted in profile calls."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"allocate": 0, "unreserve": 0}

        def counting(name):
            original = getattr(AvailabilityProfile, name)

            def spy(self, *args, **kwargs):
                counts[name] += 1
                return original(self, *args, **kwargs)

            return spy

        for name in counts:
            monkeypatch.setattr(AvailabilityProfile, name, counting(name))
        return counts

    def _backlogged(self, discipline):
        """8 of 10 nodes busy until 100; A and B wait with reservations at
        100 and 150, C backfilled on the spare nodes."""
        m = _HandDrivenMachine(10)
        m.submit(J(0, 0.0, 8, 100.0, estimate=100.0))
        assert [j.job_id for j in m.decide(discipline, 0.0)] == [0]
        a, b, c = J(1, 1.0, 5, 50.0), J(2, 1.0, 6, 50.0), J(3, 1.0, 1, 7.0, estimate=10.0)
        for job in (a, b, c):
            m.submit(job)
        assert m.decide(discipline, 1.0) == [c]
        return m, a, b, c

    def test_pure_arrival_allocates_only_the_new_tail(self, calls):
        discipline = ConservativeBackfill()
        m, a, b, _c = self._backlogged(discipline)
        calls.update(allocate=0, unreserve=0)
        snapshots = m.state.snapshots
        d = J(4, 5.0, 1, 10.0)
        m.submit(d)
        assert m.decide(discipline, 5.0) == [d]
        # A and B keep their reservations; no snapshot, one first-fit.
        assert calls == {"allocate": 1, "unreserve": 0}
        assert m.state.snapshots == snapshots
        assert m.queue == [a, b]

    def test_early_completion_forces_a_full_replan(self, calls):
        discipline = ConservativeBackfill()
        m, a, b, c = self._backlogged(discipline)
        m.complete(c, 8.0)  # estimated 11: an early completion
        e = J(5, 8.0, 1, 5.0)
        m.submit(e)
        calls.update(allocate=0, unreserve=0)
        snapshots = m.state.snapshots
        assert m.decide(discipline, 8.0) == [e]
        # Fresh snapshot, every queued job placed again, nothing withdrawn
        # (the old plan is dropped whole, not edited).
        assert calls == {"allocate": 3, "unreserve": 0}
        assert m.state.snapshots == snapshots + 1

    def test_withdrawn_job_ends_the_kept_prefix(self, calls):
        discipline = ConservativeBackfill()
        m, a, b, _c = self._backlogged(discipline)
        m.withdraw(a)  # a queued-job cancellation: no state delta
        f = J(6, 6.0, 1, 3.0)
        m.submit(f)
        calls.update(allocate=0, unreserve=0)
        assert m.decide(discipline, 6.0) == [f]
        # A's and B's reservations are withdrawn; B and F are re-placed on
        # the same profile, and B moves up into A's slot.
        assert calls == {"allocate": 2, "unreserve": 2}
        m.complete(m.running[0].job, 100.0)
        assert m.decide(discipline, 100.0) == [b]

    def test_verification_catches_a_plan_kept_past_its_validity(self, monkeypatch):
        """Were the validity rule ever wrong, REPRO_VERIFY_STATE says so:
        the reused walk is compared with a from-scratch one."""

        def always_valid(self, ctx):
            return self._plan if ctx.state is not None else None

        monkeypatch.setattr(ConservativeBackfill, "_valid_plan", always_valid)
        jobs = make_jobs(80, seed=22, max_nodes=48, mean_gap=30.0)  # loose estimates
        scheduler = OrderedQueueScheduler(SubmitOrderPolicy(), ConservativeBackfill())
        with pytest.raises(StateDivergenceError, match="from-scratch walk"):
            simulate(jobs, scheduler, 64, config=SimulationConfig(verify_state=1))


def _from_scratch_starts(m, now):
    """The textbook conservative walk, kept here as the reference: every
    queued job is placed, in order, on a profile rebuilt from the running
    set; no early exit, no kept plan, no fused kernel.  Job id -> start."""
    profile = AvailabilityProfile.from_running(
        m.machine.total_nodes,
        now,
        [(r.projected_end, r.job.nodes) for r in m.running.values()],
    )
    starts = {}
    for job in m.queue:
        estimate = job.estimated_runtime  # >= 1 here: no zero-length clamp
        start = profile.earliest_start(job.nodes, estimate)
        profile.reserve(start, estimate, job.nodes)
        starts[job.job_id] = start
    return starts


def _exit_free_walk(m, now):
    """The jobs the reference walk starts at ``now``."""
    starts = _from_scratch_starts(m, now)
    return [job for job in m.queue if starts[job.job_id] <= now]


class TestConservativeReplansFromScratch:
    """An early completion rebuilds the plan from scratch; it does not
    compress the old one.  Mu'alem–Feitelson compression never delays a
    planned job, and here the from-scratch walk delays B from 4 to 10 —
    so compression would compute a different schedule."""

    def _jobs(self):
        return [
            J(0, 0.0, 2, 1.0, estimate=10.0),  # R1: completes early, at 1
            J(1, 0.0, 2, 4.0),  # R2: exact estimate
            J(2, 0.0, 4, 6.0),  # A
            J(3, 0.0, 2, 5.0),  # B
        ]

    @pytest.mark.parametrize("vectorize", [False, True], ids=["python", "compiled"])
    def test_early_completion_moves_a_planned_job_later(self, vectorize):
        m = _HandDrivenMachine(4)
        m.ctx.vectorize = vectorize  # the compiled walk, where it loads
        r1, r2, a, b = jobs = self._jobs()
        discipline = ConservativeBackfill()
        for job in jobs:
            m.submit(job)
        assert _from_scratch_starts(m, 0.0) == {0: 0.0, 1: 0.0, 2: 10.0, 3: 4.0}
        assert m.decide(discipline, 0.0) == [r1, r2]
        m.complete(r1, 1.0)
        assert _from_scratch_starts(m, 1.0) == {2: 4.0, 3: 10.0}
        assert m.decide(discipline, 1.0) == []
        # A is planned at 4; the walk stops before B (nothing can start
        # now), which the reference walk above puts at 10.
        plan = discipline._plan
        assert (plan.jobs, plan.starts) == ([a], [4.0])
        m.complete(r2, 4.0)
        assert m.decide(discipline, 4.0) == [a]
        m.complete(a, 10.0)
        assert m.decide(discipline, 10.0) == [b]

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_schedule_on_both_backends(self, backend):
        res = simulate(
            self._jobs(), FCFSScheduler.with_conservative(), 4, backend=backend
        )
        assert {i.job.job_id: i.start_time for i in res.schedule} == {
            0: 0.0,
            1: 0.0,
            2: 4.0,
            3: 10.0,
        }


@st.composite
def machine_and_stream(draw):
    total = draw(st.integers(min_value=2, max_value=24))
    rows = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=12),  # gap to the previous arrival
                st.integers(min_value=1, max_value=total),
                st.integers(min_value=1, max_value=60),  # estimate
                st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]),  # runtime / estimate
            ),
            min_size=1,
            max_size=30,
        )
    )
    jobs, submit = [], 0.0
    for job_id, (gap, nodes, estimate, used) in enumerate(rows):
        submit += gap
        jobs.append(J(job_id, submit, nodes, estimate * used, estimate=float(estimate)))
    return total, jobs


@given(machine_and_stream())
@settings(max_examples=300, deadline=None)
def test_conservative_starts_what_the_exit_free_walk_starts(case):
    """Arrivals, early completions and on-time ones, instant by instant:
    the walk that stops as soon as nothing more can start, on a plan kept
    across decisions, starts the jobs the reference walk starts."""
    total, jobs = case
    # verify_every=1: each reused plan is also re-walked by _cross_check.
    m = _HandDrivenMachine(total, verify_every=1)
    discipline = ConservativeBackfill()
    arrivals = jobs[::-1]
    completions = []  # (time, job_id) heap
    while arrivals or completions:
        now = min(
            arrivals[-1].submit_time if arrivals else float("inf"),
            completions[0][0] if completions else float("inf"),
        )
        while completions and completions[0][0] == now:
            m.complete(m.running[heapq.heappop(completions)[1]].job, now)
        while arrivals and arrivals[-1].submit_time == now:
            m.submit(arrivals.pop())
        expected = _exit_free_walk(m, now)
        started = m.decide(discipline, now)
        assert [j.job_id for j in started] == [j.job_id for j in expected]
        for job in started:
            heapq.heappush(completions, (now + job.runtime, job.job_id))
    assert not m.queue and not m.running


@st.composite
def exact_stream(draw):
    """A submit-ordered stream whose estimates are the runtimes."""
    total = draw(st.integers(min_value=2, max_value=24))
    rows = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=12),  # gap to the previous arrival
                st.integers(min_value=1, max_value=total),
                st.one_of(
                    st.integers(min_value=1, max_value=60).map(float),
                    st.floats(min_value=0.5, max_value=60.0, allow_nan=False),
                ),
            ),
            min_size=1,
            max_size=30,
        )
    )
    jobs, submit = [], 0.0
    for job_id, (gap, nodes, runtime) in enumerate(rows):
        submit += gap
        jobs.append(J(job_id, submit, nodes, runtime, estimate=runtime))
    return total, jobs


@given(exact_stream())
@settings(max_examples=200, deadline=None)
def test_exact_estimates_start_every_job_at_its_first_reservation(case):
    """With exact estimates, submit order, no failures and no
    cancellations, conservative backfilling keeps every promise: a job
    starts at the first start the walk gave it (docs/algorithms.md), on
    the Python walk, and the compiled walk gives the same schedule."""
    from unittest import mock

    from repro.schedulers.disciplines import _ReservationPlan

    total, jobs = case
    first = {}
    place = _ReservationPlan.place

    def recording(self, queue, keep, now, free):
        planned = len(self.jobs)
        started, indices = place(self, queue, keep, now, free)
        for job in started:
            first.setdefault(job.job_id, now)
        for job, start in zip(self.jobs[planned:], self.starts[planned:]):
            first.setdefault(job.job_id, start)
        return started, indices

    with mock.patch.object(_ReservationPlan, "place", recording):
        python = simulate(jobs, FCFSScheduler.with_conservative(), total, backend="python")
    starts = {item.job.job_id: item.start_time for item in python.schedule}
    assert starts == first
    compiled = simulate(jobs, FCFSScheduler.with_conservative(), total, backend="numpy")
    assert {item.job.job_id: item.start_time for item in compiled.schedule} == starts


class TestEmptyQueueGuards:
    """select() on an empty queue must return [] without touching the profile."""

    def _ctx(self):
        from repro.core.machine import Machine
        from repro.core.scheduler import SchedulerContext

        return SchedulerContext(Machine(8), {})

    @pytest.mark.parametrize(
        "discipline",
        [
            HeadBlockingDiscipline(),
            AnyFitDiscipline(),
            EasyBackfill(),
            ConservativeBackfill(),
        ],
        ids=lambda d: d.name,
    )
    def test_core_disciplines(self, discipline):
        assert discipline.select([], self._ctx()) == []

    def test_slack(self):
        from repro.schedulers.slack import SlackBackfill

        assert SlackBackfill().select([], self._ctx()) == []

    def test_drain(self):
        from repro.schedulers.drain import DrainDiscipline, Reservation

        drained = DrainDiscipline(EasyBackfill(), [Reservation(100.0, 200.0)])
        assert drained.select([], self._ctx()) == []


class _ListMutationEasyBackfill(EasyBackfill):
    """Oracle: the pre-refactor EASY walk with ``pop(0)`` / ``remove``.

    Semantically identical to :class:`EasyBackfill`; kept here so the
    index-based rewrite is regression-tested against the original queue
    mutation on queues wide enough for the O(n^2) behaviour to have bitten.
    """

    def select(self, queue, ctx):
        pending = list(queue)
        free = ctx.free_nodes
        now = ctx.now
        started = []
        while pending:
            job = pending[0]
            if job.nodes <= free:
                started.append(job)
                free -= job.nodes
                pending.pop(0)
                continue
            if len(pending) == 1:
                break
            profile = ctx.profile  # fresh snapshot per blocked-head pass
            for prior in started:
                est = prior.estimated_runtime
                profile.reserve(now, est if est > 0 else 1.0, prior.nodes)
            shadow = profile.earliest_start(job.nodes, job.estimated_runtime)
            extra = profile.free_at(shadow) - job.nodes
            candidate = None
            for trial in pending[1:]:
                if trial.nodes > free:
                    continue
                if now + trial.estimated_runtime <= shadow or trial.nodes <= extra:
                    candidate = trial
                    break
            if candidate is None:
                break
            started.append(candidate)
            free -= candidate.nodes
            pending.remove(candidate)
        return started


class TestEasyWideQueue:
    def test_wide_startable_queue_matches_list_mutation_oracle(self):
        # Hundreds of jobs submitted at once onto an idle machine: the old
        # implementation popped each start off the queue front (quadratic);
        # the index walk must start exactly the same jobs in the same order.
        jobs = [J(i, 0.0, 1, 10.0, estimate=10.0) for i in range(300)]
        new = run(jobs, EasyBackfill(), nodes=256)
        old = run(jobs, _ListMutationEasyBackfill(), nodes=256)
        for job in jobs:
            assert new.schedule[job.job_id].start_time == old.schedule[job.job_id].start_time
        # All 256 fit immediately, the rest wave through at t=10.
        assert sum(1 for i in new.schedule if i.start_time == 0.0) == 256

    @given(st.integers(min_value=0, max_value=11))
    @settings(max_examples=12, deadline=None)
    def test_random_streams_match_list_mutation_oracle(self, seed):
        jobs = make_jobs(120, seed=seed, max_nodes=48, mean_gap=15.0)
        new = run(jobs, EasyBackfill(), nodes=64)
        old = run(jobs, _ListMutationEasyBackfill(), nodes=64)
        for job in jobs:
            a, b = new.schedule[job.job_id], old.schedule[job.job_id]
            assert (a.start_time, a.end_time) == (b.start_time, b.end_time)


@given(st.integers(min_value=0, max_value=8))
@settings(max_examples=9, deadline=None)
def test_all_disciplines_produce_valid_schedules(seed):
    jobs = make_jobs(50, seed=seed, max_nodes=64, mean_gap=60.0)
    for discipline in (
        HeadBlockingDiscipline(),
        AnyFitDiscipline(),
        EasyBackfill(),
        ConservativeBackfill(),
    ):
        res = run(jobs, discipline, nodes=64)
        assert len(res.schedule) == len(jobs)
        res.schedule.validate(64)


@given(st.integers(min_value=0, max_value=8))
@settings(max_examples=9, deadline=None)
def test_backfilling_with_exact_estimates_never_hurts_fcfs_art(seed):
    """With exact runtimes, EASY and conservative dominate plain FCFS."""
    jobs = make_jobs(40, seed=seed, max_nodes=48, loose_estimates=False)
    art = lambda r: sum(i.response_time for i in r.schedule) / len(r.schedule)
    plain = art(simulate(jobs, FCFSScheduler.plain(), 64))
    easy = art(simulate(jobs, FCFSScheduler.with_easy(), 64))
    cons = art(simulate(jobs, FCFSScheduler.with_conservative(), 64))
    assert easy <= plain + 1e-9
    assert cons <= plain + 1e-9
