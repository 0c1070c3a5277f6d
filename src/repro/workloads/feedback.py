"""Closed-loop (feedback) workload generation (Section 2.4).

Two of the paper's listed dependences concern the workload model itself:

* "The workload model may not be correct if users adapt their submission
  pattern due to their knowledge of the policy rules."
* "The workload model must be modified as the number of users and/or the
  types and sizes of submitted jobs change over time."

Open-loop traces (Section 6) cannot express either.  This module provides
a *closed-loop* generator: a population of users who submit a job, wait
for its completion, think for a while, and submit the next one — the
standard think-time model of interactive batch users.  Because the next
submission time depends on the previous completion, the offered load
adapts to scheduler quality: a better scheduler elicits more work, which
is precisely the coupling Section 2.4 warns about.

:func:`run_closed_loop` co-simulates the user population with any
:class:`~repro.core.scheduler.Scheduler`.  The stream must react to
completions, so it cannot be replayed through
:class:`repro.core.simulator.Simulator`; it runs its own event loop over
the same :class:`~repro.core.site.SiteRun`, with user reactions added.
The result separates cleanly: a realised trace (reusable as an open-loop
workload) plus the schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.events import EventKind, EventQueue
from repro.core.job import Job
from repro.core.machine import Machine
from repro.core.schedule import Schedule, ScheduledJob
from repro.core.scheduler import Scheduler
from repro.core.site import SiteRun


@dataclass(slots=True)
class UserProfile:
    """Behavioural parameters of one simulated user."""

    user_id: int
    #: Mean think time between a completion and the next submission (s).
    mean_think_time: float
    #: Job width distribution: (widths, probabilities).
    widths: Sequence[int]
    width_probs: Sequence[float]
    #: Lognormal runtime parameters (median, sigma).
    runtime_median: float
    runtime_sigma: float
    #: Estimate slack: estimate = runtime * Uniform(1, max_slack).
    max_slack: float = 4.0
    #: Users abandon the machine when their last response time exceeded
    #: this multiple of the runtime (None: never) — the Section 2.4
    #: "users adapt their submission pattern" effect.
    balk_slowdown: float | None = None


@dataclass(slots=True)
class ClosedLoopResult:
    """Realised trace and schedule of a closed-loop run."""

    schedule: Schedule
    trace: list[Job]
    #: Number of submissions per user (abandonment shows up as low counts).
    submissions_per_user: dict[int, int] = field(default_factory=dict)
    abandoned_users: set[int] = field(default_factory=set)

    @property
    def total_jobs(self) -> int:
        return len(self.trace)


def default_population(
    n_users: int,
    *,
    seed: int = 0,
    mean_think_time: float = 1800.0,
    balk_slowdown: float | None = None,
) -> list[UserProfile]:
    """A CTC-flavoured user population: mostly narrow jobs, a few wide users."""
    rng = np.random.default_rng(seed)
    users = []
    for uid in range(n_users):
        wide_user = rng.random() < 0.15
        widths = (16, 32, 64, 128) if wide_user else (1, 2, 4, 8)
        users.append(
            UserProfile(
                user_id=uid,
                mean_think_time=float(rng.uniform(0.5, 1.5) * mean_think_time),
                widths=widths,
                width_probs=(0.4, 0.3, 0.2, 0.1),
                runtime_median=float(rng.uniform(200.0, 5000.0)),
                runtime_sigma=1.0,
                balk_slowdown=balk_slowdown,
            )
        )
    return users


def run_closed_loop(
    users: Sequence[UserProfile],
    scheduler: Scheduler,
    total_nodes: int,
    *,
    horizon: float,
    seed: int = 0,
) -> ClosedLoopResult:
    """Co-simulate a user population with a scheduler until ``horizon``.

    Submissions stop at the horizon; everything already queued or running
    is allowed to finish, so the returned schedule is complete and valid.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    rng = np.random.default_rng(seed)
    site = SiteRun(Machine(total_nodes))
    ctx = site.ctx
    scheduler.reset()
    events = EventQueue()
    trace: list[Job] = []
    submissions: dict[int, int] = {u.user_id: 0 for u in users}
    abandoned: set[int] = set()
    profiles = {u.user_id: u for u in users}
    next_job_id = 0

    def make_job(user: UserProfile, submit: float) -> Job:
        nonlocal next_job_id
        width = int(rng.choice(user.widths, p=np.asarray(user.width_probs)))
        width = min(width, total_nodes)
        runtime = float(
            np.exp(np.log(user.runtime_median) + user.runtime_sigma * rng.standard_normal())
        )
        runtime = min(max(runtime, 1.0), 64_800.0)
        estimate = runtime * float(rng.uniform(1.0, user.max_slack))
        job = Job(
            job_id=next_job_id,
            submit_time=submit,
            nodes=width,
            runtime=runtime,
            estimate=estimate,
            user=user.user_id,
        )
        next_job_id += 1
        return job

    def user_reacts(item: ScheduledJob) -> None:
        """Completion feedback: think, maybe balk, then submit again."""
        user = profiles[item.job.user]
        if user.user_id in abandoned:
            return
        if (
            user.balk_slowdown is not None
            and item.job.runtime > 0
            and item.response_time / item.job.runtime > user.balk_slowdown
        ):
            abandoned.add(user.user_id)
            return
        think = float(rng.exponential(user.mean_think_time))
        submit = item.end_time + think
        if submit < horizon:
            events.push(submit, EventKind.SUBMISSION, make_job(user, submit))

    # Initial submissions: each user arrives within their first think time.
    for user in users:
        first = float(rng.uniform(0.0, user.mean_think_time))
        if first < horizon:
            events.push(first, EventKind.SUBMISSION, make_job(user, first))

    while events:
        now = ctx.now = events.peek_time()
        while events and events.peek_time() == now:
            event = events.pop()
            if event.kind is EventKind.COMPLETION:
                item: ScheduledJob = event.payload
                site.finish(item)
                scheduler.on_complete(item.job, ctx)
                user_reacts(item)
            elif event.kind is EventKind.SUBMISSION:
                job: Job = event.payload
                trace.append(job)
                submissions[job.user] += 1
                site.state.note_enqueued(job.nodes)
                scheduler.on_submit(job, ctx)

        for job in scheduler.select_jobs(ctx):
            item = site.start(job, now)
            events.push(item.end_time, EventKind.COMPLETION, item)

    return ClosedLoopResult(
        schedule=Schedule(site.completed),
        trace=sorted(trace, key=lambda j: (j.submit_time, j.job_id)),
        submissions_per_user=submissions,
        abandoned_users=abandoned,
    )
