"""Order-policy / discipline composition of on-line schedulers.

Every scheduler in the paper's evaluation is a pair:

* an :class:`OrderPolicy` that maintains the *order* of the wait queue
  (submission order, a SMART shelf order, the PSRS conversion order), and
* a :class:`Discipline` that turns the ordered queue into start decisions
  (head-blocking list scheduling, EASY or conservative backfilling, or
  Garey & Graham's any-fit rule).

:class:`OrderedQueueScheduler` composes the two and implements the
:class:`~repro.core.scheduler.Scheduler` interface expected by the
simulator.
"""

from __future__ import annotations

import abc
from array import array
from itertools import repeat
from operator import indexOf, is_
from typing import Iterable, Sequence

from repro.core.job import Job
from repro.core.scheduler import Scheduler, SchedulerContext


class JobQueue(list):
    """The wait queue: jobs in service order, with their widths and
    estimates kept parallel in ``nodes`` (``array('q')``) and
    ``estimates`` (``array('d')``).

    The compiled backfilling walks read the two columns in place.  Four
    mutators keep them exact and are the only way the queue changes:
    :meth:`append`, :meth:`insert`, :meth:`delete` and :meth:`reorder`.
    Jobs leave by position, found by identity (:meth:`position`) when not
    known, never by an ``==`` scan.  A ``list`` subclass, so the
    disciplines index and iterate it at list speed.
    """

    __slots__ = ("nodes", "estimates")

    def __init__(self, jobs: Iterable[Job] = ()) -> None:
        super().__init__()
        self.reorder(jobs)

    @classmethod
    def of(cls, jobs: Sequence[Job]) -> "JobQueue":
        """``jobs`` itself when it is a store, else a copy with columns (a
        filtered or truncated queue)."""
        return jobs if isinstance(jobs, JobQueue) else cls(jobs)

    def append(self, job: Job) -> None:
        list.append(self, job)
        self.nodes.append(job.nodes)
        self.estimates.append(job.estimated_runtime)

    def insert(self, index: int, job: Job) -> None:
        list.insert(self, index, job)
        self.nodes.insert(index, job.nodes)
        self.estimates.insert(index, job.estimated_runtime)

    def delete(self, positions: Sequence[int]) -> None:
        """Drop the jobs at ``positions`` (distinct, in any order)."""
        nodes = self.nodes
        estimates = self.estimates
        # Back to front, so the positions still to delete stay valid.
        for i in sorted(positions, reverse=True) if len(positions) > 1 else positions:
            del self[i]
            del nodes[i]
            del estimates[i]

    def reorder(self, jobs: Iterable[Job]) -> None:
        """Hold ``jobs``, in that order, instead (``()`` empties the queue)."""
        self[:] = jobs
        self.nodes = array("q", [job.nodes for job in self])
        self.estimates = array("d", [job.estimated_runtime for job in self])

    def position(self, job: Job) -> int:
        """Where ``job`` itself is queued; ``ValueError`` when it is not."""
        # The identity scan runs in C; ``index`` would call the dataclass
        # ``__eq__`` on every job ahead of it.
        return indexOf(map(is_, self, repeat(job)), True)


class OrderPolicy(abc.ABC):
    """Owns the wait queue and decides its service order.

    The queue is one :class:`JobQueue`, ``self.queue``.  The defaults keep
    submission order: arrivals go to the back and :meth:`ordered` returns
    the store as it is.  A policy overrides where a job goes
    (:meth:`enqueue`) and when the order is recomputed (:meth:`ordered`).
    """

    name: str = "order"

    #: True when the policy's ordering decisions read runtime estimates.
    uses_estimates: bool = False

    def __init__(self) -> None:
        self.queue = JobQueue()

    def reset(self) -> None:
        """Drop all queued jobs (fresh simulation)."""
        self.queue.reorder(())

    def enqueue(self, job: Job, now: float) -> None:
        """A job arrived."""
        self.queue.append(job)

    def remove(self, job: Job) -> None:
        """A queued job was started or withdrawn — drop that very job."""
        self.remove_indexed((self.queue.position(job),), (job,))

    def remove_indexed(self, indices: Sequence[int], jobs: Sequence[Job]) -> None:
        """Drop started jobs known by their positions in ``ordered()``.

        ``indices[k]`` is the position ``jobs[k]`` held in the sequence the
        last ``ordered()`` call returned, with no mutation in between.
        """
        self.queue.delete(indices)

    def ordered(self, now: float) -> Sequence[Job]:
        """Current queue in service order: every enqueued, not-yet-removed
        job exactly once.  The discipline reads it and does not mutate it."""
        return self.queue

    def __len__(self) -> int:
        return len(self.queue)


class SubmitOrderPolicy(OrderPolicy):
    """First-come-first-serve order: by submission time, ties by job id.

    The simulator already delivers submissions in that order, so the
    default append keeps the invariant.
    """

    name = "submit-order"


class Discipline(abc.ABC):
    """Turns an ordered wait queue into "start these now" decisions."""

    name: str = "discipline"

    #: True when the discipline itself needs runtime estimates (backfilling).
    uses_estimates: bool = False

    def reset(self) -> None:
        """Drop anything carried between decision points (fresh simulation).

        The default keeps nothing; disciplines that plan across decisions
        override it, and wrappers forward it to the discipline they wrap.
        """

    @abc.abstractmethod
    def select(self, queue: Sequence[Job], ctx: SchedulerContext) -> list[Job]:
        """Jobs to start now, in start order.  Must not mutate ``queue``;
        jointly the result must fit ``ctx.free_nodes``."""

    def select_indexed(
        self, queue: Sequence[Job], ctx: SchedulerContext
    ) -> tuple[list[Job], Sequence[int] | None]:
        """Like :meth:`select`, also reporting queue positions when known.

        Returns ``(started, indices)`` where ``indices[k]`` is the position
        of ``started[k]`` in ``queue`` — or ``None`` when the discipline
        cannot vouch for positions (the default, and any wrapper that hands
        a *filtered* queue to an inner discipline).  Positions let the
        order policy delete started jobs directly; without them each is
        found by identity.

        ``queue`` is usually the order policy's :class:`JobQueue`; a
        discipline that reads columns takes them through
        :meth:`JobQueue.of`, which copies only a plain list (a wrapper's
        filtered queue).
        """
        return self.select(queue, ctx), None


class OrderedQueueScheduler(Scheduler):
    """A :class:`Scheduler` assembled from an order policy and a discipline."""

    def __init__(
        self,
        order_policy: OrderPolicy,
        discipline: Discipline,
        name: str | None = None,
    ) -> None:
        self.order_policy = order_policy
        self.discipline = discipline
        self.name = name or f"{order_policy.name}/{discipline.name}"
        self.uses_estimates = order_policy.uses_estimates or discipline.uses_estimates

    def reset(self) -> None:
        self.order_policy.reset()
        self.discipline.reset()

    def on_submit(self, job: Job, ctx: SchedulerContext) -> None:
        self.order_policy.enqueue(job, ctx.now)

    def on_cancel(self, job: Job, ctx: SchedulerContext) -> None:
        self.order_policy.remove(job)

    def select_jobs(self, ctx: SchedulerContext) -> list[Job]:
        queue = self.order_policy.ordered(ctx.now)
        if not queue:
            return []
        started, indices = self.discipline.select_indexed(queue, ctx)
        if started:
            if indices is not None:
                self.order_policy.remove_indexed(indices, started)
            else:
                for job in started:
                    self.order_policy.remove(job)
        return started

    @property
    def pending_count(self) -> int:
        return len(self.order_policy)
