"""Drain windows / advance reservations (Example 4 and Section 2).

Example 4: "Every weekday at 10am the entire machine must be available to
a theoretical chemistry class for 1 hour."  Section 2 likewise mentions
systems that "allow reservation of resources before the actual job
submission", a feature "especially beneficial for multisite metacomputing
[17]".

:class:`DrainDiscipline` wraps any servicing discipline so that scheduled
work never collides with a set of machine reservations:

* while a reservation is active, nothing starts;
* ahead of one, a job is eligible only if its *projected* end
  (``now + estimate``) lands before the reservation starts;
* after each decision the scheduler requests a timer at the next relevant
  boundary, so the machine resumes the instant a reservation ends rather
  than idling until the next job event.

The guarantee is exactly as strong as the estimates: a job that overruns
its estimate *will* collide with the class — which is Example 4's point
("as users are not able to provide accurate execution time estimates no
scheduling algorithm can generate good schedules").  The test suite
demonstrates both the guarantee under truthful estimates and the failure
under overruns, and ``examples/reserved_windows.py`` quantifies the cost
of draining.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

from repro.core.job import Job
from repro.core.scheduler import SchedulerContext
from repro.schedulers.base import Discipline, OrderedQueueScheduler, OrderPolicy
from repro.schedulers.regimes import TimeWindow


class ReservationLike(Protocol):
    """Anything with an active predicate and boundary queries."""

    def contains(self, time: float) -> bool: ...
    def next_start(self, time: float) -> float: ...
    def current_end(self, time: float) -> float: ...


@dataclass(frozen=True, slots=True)
class Reservation:
    """A one-shot whole-machine reservation over ``[start, end)``."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if not self.start < self.end:
            raise ValueError(f"need start < end, got [{self.start}, {self.end})")

    def contains(self, time: float) -> bool:
        return self.start <= time < self.end

    def next_start(self, time: float) -> float:
        if time < self.start:
            return self.start
        if time < self.end:
            return time
        return float("inf")

    def current_end(self, time: float) -> float:
        if not self.contains(time):
            raise ValueError(f"time {time} is outside the reservation")
        return self.end


class DrainDiscipline(Discipline):
    """Constrain an inner discipline around whole-machine reservations."""

    uses_estimates = True  # the drain guarantee is projected from estimates

    def __init__(self, inner: Discipline, reservations: Sequence[ReservationLike]) -> None:
        if not reservations:
            raise ValueError("DrainDiscipline needs at least one reservation")
        self.inner = inner
        self.reservations = tuple(reservations)
        self.name = f"drain({inner.name})"

    # -- helpers ---------------------------------------------------------------

    def _active(self, now: float) -> ReservationLike | None:
        for reservation in self.reservations:
            if reservation.contains(now):
                return reservation
        return None

    def _next_start(self, now: float) -> float:
        return min(
            (r.next_start(now) for r in self.reservations), default=float("inf")
        )

    # -- Discipline interface ----------------------------------------------------

    def reset(self) -> None:
        self.inner.reset()

    def select(self, queue: Sequence[Job], ctx: SchedulerContext) -> list[Job]:
        if not queue:
            return []
        now = ctx.now
        if self._active(now) is not None:
            return []
        horizon = self._next_start(now)
        if horizon == float("inf"):
            return self.inner.select(queue, ctx)
        # The inner discipline plans on ``ctx.profile`` snapshots itself;
        # filtering the queue here makes the context's incremental queue
        # statistics refuse (length mismatch), so the inner select falls
        # back to scanning ``eligible`` — never a stale cached minimum.
        eligible = [job for job in queue if now + job.estimated_runtime <= horizon]
        if not eligible:
            return []
        # Filtered queue: the order policy's columnar view (if any) no
        # longer lines up, so withdraw the hint from the inner discipline.
        ctx.queue_columns = None
        return self.inner.select(eligible, ctx)

    def next_wakeup(self, ctx: SchedulerContext) -> float | None:
        now = ctx.now
        active = self._active(now)
        if active is not None:
            return active.current_end(now)
        # Waking at the reservation start is pointless (nothing may run);
        # the useful boundary ahead is the end of the next occurrence.
        start = self._next_start(now)
        if start == float("inf"):
            return None
        for reservation in self.reservations:
            if reservation.contains(start):
                return reservation.current_end(start)
        return None


class DrainingScheduler(OrderedQueueScheduler):
    """An ordered-queue scheduler whose discipline honours reservations."""

    def __init__(
        self,
        order_policy: OrderPolicy,
        discipline: Discipline,
        reservations: Sequence[ReservationLike],
        name: str | None = None,
    ) -> None:
        drained = DrainDiscipline(discipline, reservations)
        super().__init__(order_policy, drained, name=name or drained.name)

    def next_wakeup(self, ctx: SchedulerContext) -> float | None:
        assert isinstance(self.discipline, DrainDiscipline)
        return self.discipline.next_wakeup(ctx)


def example4_reservations() -> list[TimeWindow]:
    """Example 4's rule: weekdays, 10am, one hour, whole machine."""
    return [TimeWindow(days=frozenset(range(5)), start_hour=10.0, end_hour=11.0)]
