"""Combining algorithms across policy time windows (Section 7's next step).

Example 5's policy has two objective regimes — weekday daytime (minimise
ART) and nights/weekends (minimise AWRT) — and the administrator concludes
by noting that "she must evaluate the effect of combining the selected
algorithms".  This module performs that combination:

* :class:`TimeWindow` — the recurring weekly window of a policy rule
  (e.g. "weekdays 07:00–20:00"), evaluated against simulated time;
* :class:`RegimeSwitchingScheduler` — one wait queue, two (order policy,
  discipline) pairs; decisions are delegated to the pair whose window
  contains the current simulated time.

Both order policies track the full queue at all times (enqueue/remove are
mirrored), so a regime switch never loses or duplicates jobs; only the
*ordering and discipline* of future decisions changes — exactly how a real
resource manager would swap scheduling modes at 8pm without touching the
queue.

Time-of-day convention matches :class:`repro.workloads.ctc.CTCModel`:
simulated time 0 is 00:00 on a Monday.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.job import Job
from repro.core.scheduler import Scheduler, SchedulerContext
from repro.schedulers.base import Discipline, OrderPolicy

#: Seconds per day / week under the Monday-00:00 epoch convention.
DAY = 86_400.0
WEEK = 7 * DAY


@dataclass(frozen=True, slots=True)
class TimeWindow:
    """A recurring weekly window: days-of-week x hours-of-day.

    ``days`` are 0 (Monday) .. 6 (Sunday); the window covers
    ``[start_hour, end_hour)`` local hours on each listed day.
    """

    days: frozenset[int]
    start_hour: float
    end_hour: float

    def __post_init__(self) -> None:
        if not self.days <= set(range(7)):
            raise ValueError(f"days must be within 0..6, got {sorted(self.days)}")
        if not 0.0 <= self.start_hour < self.end_hour <= 24.0:
            raise ValueError(
                f"need 0 <= start < end <= 24, got [{self.start_hour}, {self.end_hour})"
            )

    def contains(self, time: float) -> bool:
        """True iff simulated ``time`` falls inside the window."""
        day = int(time % WEEK // DAY)
        hour = time % DAY / 3600.0
        return day in self.days and self.start_hour <= hour < self.end_hour

    def next_boundary(self, time: float) -> float:
        """The next instant at which membership can change (window edge)."""
        hour = time % DAY / 3600.0
        day_start = time - (time % DAY)
        candidates = []
        for edge in (self.start_hour, self.end_hour):
            if hour < edge:
                candidates.append(day_start + edge * 3600.0)
        candidates.append(day_start + DAY)  # midnight
        return min(candidates)

    def next_start(self, time: float) -> float:
        """Earliest ``t >= time`` at which the window is (or becomes) active.

        Returns ``time`` itself when already inside.  Always finite for a
        non-empty day set (the week wraps within 8 days).
        """
        if self.contains(time):
            return time
        for offset_days in range(8):
            day_start = time - (time % DAY) + offset_days * DAY
            day = int(day_start % WEEK // DAY)
            if day not in self.days:
                continue
            candidate = day_start + self.start_hour * 3600.0
            if candidate >= time:
                return candidate
            if day_start + self.end_hour * 3600.0 > time:
                return time if self.contains(time) else max(candidate, time)
        raise AssertionError("window start not found within a week")  # pragma: no cover

    def current_end(self, time: float) -> float:
        """End of the active occurrence containing ``time`` (inside only)."""
        if not self.contains(time):
            raise ValueError(f"time {time} is outside the window")
        day_start = time - (time % DAY)
        return day_start + self.end_hour * 3600.0


#: Example 5 Rule 5: "Between 7am and 8pm on weekdays ..."
WEEKDAY_DAYTIME = TimeWindow(days=frozenset(range(5)), start_hour=7.0, end_hour=20.0)


class RegimeSwitchingScheduler(Scheduler):
    """Delegate scheduling decisions by time window.

    ``window_pair`` serves decision points inside ``window``; ``other_pair``
    serves the rest.  Both order policies mirror the full wait queue.
    """

    def __init__(
        self,
        window: TimeWindow,
        window_pair: tuple[OrderPolicy, Discipline],
        other_pair: tuple[OrderPolicy, Discipline],
        name: str = "regime-switching",
    ) -> None:
        self.window = window
        self._window_policy, self._window_discipline = window_pair
        self._other_policy, self._other_discipline = other_pair
        self.name = name
        self.uses_estimates = (
            self._window_policy.uses_estimates
            or self._other_policy.uses_estimates
            or self._window_discipline.uses_estimates
            or self._other_discipline.uses_estimates
        )
        #: (time, regime) switch log for analysis; regime is "window"/"other".
        self.switch_log: list[tuple[float, str]] = []
        self._last_regime: str | None = None

    def reset(self) -> None:
        self._window_policy.reset()
        self._other_policy.reset()
        self._window_discipline.reset()
        self._other_discipline.reset()
        self.switch_log.clear()
        self._last_regime = None

    def _active(self, now: float) -> tuple[OrderPolicy, Discipline]:
        inside = self.window.contains(now)
        regime = "window" if inside else "other"
        if regime != self._last_regime:
            self.switch_log.append((now, regime))
            self._last_regime = regime
        if inside:
            return self._window_policy, self._window_discipline
        return self._other_policy, self._other_discipline

    def on_submit(self, job: Job, ctx: SchedulerContext) -> None:
        self._window_policy.enqueue(job, ctx.now)
        self._other_policy.enqueue(job, ctx.now)

    def on_cancel(self, job: Job, ctx: SchedulerContext) -> None:
        self._window_policy.remove(job)
        self._other_policy.remove(job)

    def select_jobs(self, ctx: SchedulerContext) -> list[Job]:
        policy, discipline = self._active(ctx.now)
        queue = policy.ordered(ctx.now)
        if not queue:
            return []
        started = discipline.select(queue, ctx)
        for job in started:
            self._window_policy.remove(job)
            self._other_policy.remove(job)
        return started

    @property
    def pending_count(self) -> int:
        return len(self._window_policy)


def example5_combined_scheduler(total_nodes: int) -> RegimeSwitchingScheduler:
    """The combination the paper's administrator arrives at in Section 7.

    Daytime (Rule 5, minimise ART): SMART-FFIA with EASY backfilling —
    "either SMART or PSRS together with some form of backfilling".
    Nights and weekends (Rule 6, minimise AWRT): the classical Garey &
    Graham list scheduler — "the classical list scheduling algorithm for
    the weighted case".
    """
    from repro.schedulers.base import SubmitOrderPolicy
    from repro.schedulers.disciplines import AnyFitDiscipline, EasyBackfill
    from repro.schedulers.smart import SmartOrderPolicy, SmartVariant
    from repro.schedulers.weights import unit_weight

    return RegimeSwitchingScheduler(
        window=WEEKDAY_DAYTIME,
        window_pair=(
            SmartOrderPolicy(total_nodes, variant=SmartVariant.FFIA, weight=unit_weight),
            EasyBackfill(),
        ),
        other_pair=(SubmitOrderPolicy(), AnyFitDiscipline()),
        name="Example5-combined (day: SMART-FFIA+EASY, night: G&G)",
    )
