"""Admission rules: per-user job limits and class priorities.

Two policy rules of the paper's examples constrain *which* queued jobs are
eligible rather than how eligible jobs are ordered:

* Example 5, Rule 4 — "Every user is allowed at most two batch jobs on the
  machine at any time."  The administrator later reads this as "all jobs
  should be treated equally" when deriving the objective, but the limit
  itself is an admission constraint the scheduler must enforce.
  :class:`UserLimitDiscipline` wraps any servicing discipline and hides
  jobs whose user already has the maximum number of jobs *running*.
* Example 1, Rules 1/3 — the drug design lab's jobs "have the highest
  priority", the chemistry department has "preferred access", the rest of
  the university queues behind.  :class:`ClassPriorityOrderPolicy` orders
  the queue by a job-class rank (from ``job.meta['class']``) before any
  secondary order, implementing priority *between* classes while
  delegating order *within* a class.

Both compose with everything else in :mod:`repro.schedulers` — e.g.
Example 1's machine could run ``ClassPriorityOrderPolicy`` over SMART
orders with EASY backfilling under a user limit.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.core.job import Job
from repro.core.scheduler import SchedulerContext
from repro.schedulers.base import Discipline, OrderPolicy


class UserLimitDiscipline(Discipline):
    """Enforce a per-user cap on concurrently running jobs (Rule 4).

    Jobs of a user at the cap are invisible to the inner discipline this
    decision point; they stay queued and become eligible when one of the
    user's jobs completes.  Counting includes jobs the inner discipline
    starts *within* the same decision point, so a burst submission cannot
    overshoot the cap.
    """

    def __init__(self, inner: Discipline, max_running_per_user: int = 2) -> None:
        if max_running_per_user < 1:
            raise ValueError("max_running_per_user must be at least 1")
        self.inner = inner
        self.max_running_per_user = max_running_per_user
        self.name = f"user-limit({inner.name})"
        self.uses_estimates = inner.uses_estimates

    def reset(self) -> None:
        self.inner.reset()

    def select(self, queue: Sequence[Job], ctx: SchedulerContext) -> list[Job]:
        running_per_user: dict[int, int] = {}
        for running in ctx.running.values():
            user = running.job.user
            running_per_user[user] = running_per_user.get(user, 0) + 1

        # The inner discipline sees only currently-eligible jobs; its batch
        # is then filtered so same-batch starts also respect the cap.  A
        # skipped job stays queued and becomes eligible once one of its
        # user's jobs completes.  Skipping is always safe: a subset of a
        # feasible batch remains node-feasible, and removing a start can
        # only free resources, never postpone another job's projection.
        eligible = [
            job
            for job in queue
            if running_per_user.get(job.user, 0) < self.max_running_per_user
        ]
        if not eligible:
            return []
        # The filtered queue no longer matches any columnar view the order
        # policy published; drop the hint so the inner discipline rescans.
        ctx.queue_columns = None
        batch = self.inner.select(eligible, ctx)
        started: list[Job] = []
        for job in batch:
            if running_per_user.get(job.user, 0) >= self.max_running_per_user:
                continue  # cap hit within the batch; keep the job queued
            running_per_user[job.user] = running_per_user.get(job.user, 0) + 1
            started.append(job)
        return started


class ClassPriorityOrderPolicy(OrderPolicy):
    """Order the queue by job-class rank, then by an inner policy's order.

    ``ranks`` maps class labels (``job.meta['class']``) to integers; lower
    rank is served first.  Unknown classes get ``default_rank``.  Within a
    rank, the inner policy's relative order is preserved (stable sort), so
    e.g. FCFS-within-class or SMART-within-class both work.
    """

    def __init__(
        self,
        inner: OrderPolicy,
        ranks: Mapping[str, int],
        *,
        default_rank: int = 1_000,
    ) -> None:
        self.inner = inner
        self.ranks = dict(ranks)
        self.default_rank = default_rank
        self.name = f"class-priority({inner.name})"
        self.uses_estimates = inner.uses_estimates

    def rank_of(self, job: Job) -> int:
        label = job.meta.get("class")
        return self.ranks.get(label, self.default_rank) if label else self.default_rank

    def reset(self) -> None:
        self.inner.reset()

    def enqueue(self, job: Job, now: float) -> None:
        self.inner.enqueue(job, now)

    def remove(self, job: Job) -> None:
        self.inner.remove(job)

    def ordered(self, now: float) -> Sequence[Job]:
        inner_order = list(self.inner.ordered(now))
        inner_order.sort(key=self.rank_of)  # stable: preserves inner order per rank
        return inner_order

    def __len__(self) -> int:
        return len(self.inner)


#: Example 1's access classes, best first (Rules 1 and 3).
EXAMPLE1_RANKS: dict[str, int] = {
    "drug-design": 0,
    "chemistry": 1,
    "university": 2,
    "industry": 3,
}
