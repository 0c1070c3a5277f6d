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
from typing import Sequence

from repro.core.job import Job
from repro.core.scheduler import Scheduler, SchedulerContext


class OrderPolicy(abc.ABC):
    """Maintains the ordering of the wait queue."""

    name: str = "order"

    #: True when the policy's ordering decisions read runtime estimates.
    uses_estimates: bool = False

    def reset(self) -> None:
        """Drop all queued jobs (fresh simulation)."""

    @abc.abstractmethod
    def enqueue(self, job: Job, now: float) -> None:
        """A job arrived."""

    @abc.abstractmethod
    def remove(self, job: Job) -> None:
        """A queued job was started — drop it from the order."""

    @abc.abstractmethod
    def ordered(self, now: float) -> Sequence[Job]:
        """Current queue in service order.  Must not mutate on read... beyond
        internal reordering; the returned sequence is read by the discipline
        and must reflect every enqueued, not-yet-removed job exactly once."""

    def remove_indexed(self, indices: Sequence[int], jobs: Sequence[Job]) -> None:
        """Drop started jobs known by their positions in ``ordered()``.

        ``indices[k]`` is the position ``jobs[k]`` held in the sequence the
        last ``ordered()`` call returned, with no mutation in between.  The
        default ignores the positions and falls back to per-job
        :meth:`remove`; policies whose ``ordered()`` view *is* their backing
        store override this with direct deletion, skipping the O(queue)
        equality scan per started job that made ``list.remove`` the
        simulator's hottest line.
        """
        for job in jobs:
            self.remove(job)

    def queue_columns(self) -> "tuple[object, object] | None":
        """Columnar ``(nodes, estimated_runtime)`` arrays parallel to
        ``ordered()``, or ``None`` (the default) when the policy does not
        maintain them.  Disciplines use the columns to vectorise their
        candidate scans; the arrays must stay exact mirrors of the queue
        across enqueue/remove."""
        return None

    @abc.abstractmethod
    def __len__(self) -> int:
        ...


class SubmitOrderPolicy(OrderPolicy):
    """First-come-first-serve order: by submission time, ties by job id.

    The simulator already delivers submissions in that order, so a plain
    append keeps the invariant.
    """

    name = "submit-order"

    def __init__(self) -> None:
        self._queue: list[Job] = []
        # Columnar mirrors of the queue (node widths / runtime estimates),
        # maintained incrementally so backfilling disciplines can vectorise
        # their candidate scans without rebuilding arrays per decision.
        self._nodes = array("q")
        self._estimates = array("d")
        # The arrays mutate in place, so one tuple serves every
        # ``queue_columns`` call for the scheduler's lifetime.
        self._columns = (self._nodes, self._estimates)

    def reset(self) -> None:
        self._queue.clear()
        del self._nodes[:]
        del self._estimates[:]

    def enqueue(self, job: Job, now: float) -> None:
        self._queue.append(job)
        self._nodes.append(job.nodes)
        self._estimates.append(job.estimated_runtime)

    def remove(self, job: Job) -> None:
        idx = self._queue.index(job)
        del self._queue[idx]
        del self._nodes[idx]
        del self._estimates[idx]

    def remove_indexed(self, indices: Sequence[int], jobs: Sequence[Job]) -> None:
        # ordered() returns the backing list itself, so the indices address
        # it directly; delete from the back so earlier positions stay valid.
        queue = self._queue
        nodes = self._nodes
        estimates = self._estimates
        if len(indices) == 1:
            idx = indices[0]
            del queue[idx]
            del nodes[idx]
            del estimates[idx]
            return
        for idx in sorted(indices, reverse=True):
            del queue[idx]
            del nodes[idx]
            del estimates[idx]

    def ordered(self, now: float) -> Sequence[Job]:
        return self._queue

    def queue_columns(self) -> "tuple[object, object] | None":
        return self._columns

    def __len__(self) -> int:
        return len(self._queue)


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
        order policy delete started jobs directly instead of scanning with
        ``==`` per job.
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
        if ctx.vectorize:
            ctx.queue_columns = self.order_policy.queue_columns()
        started, indices = self.discipline.select_indexed(queue, ctx)
        ctx.queue_columns = None
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
