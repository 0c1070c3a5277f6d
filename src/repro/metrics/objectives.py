"""Scalar objective functions over finished schedules.

Every function maps a :class:`~repro.core.schedule.Schedule` to one number
(the paper's *schedule cost*, Section 2.2) so that schedules can be ranked
mechanically.  Lower is better for all functions except
:func:`utilisation`.
"""

from __future__ import annotations

from typing import Callable

from repro.core.job import Job
from repro.core.schedule import Schedule
from repro.schedulers.weights import WeightFn, area_weight


def average_response_time(schedule: Schedule) -> float:
    """Mean of (completion - submission) over all jobs — the paper's ART.

    The unweighted daytime objective of Example 5 ("all jobs should be
    treated equally independent of their resource consumption").
    """
    if len(schedule) == 0:
        return 0.0
    return sum(item.response_time for item in schedule) / len(schedule)


def average_weighted_response_time(
    schedule: Schedule, weight: WeightFn = area_weight
) -> float:
    """Weight-normalised mean response time — the paper's AWRT.

    Each response time is multiplied by the job's weight (resource
    consumption, ``nodes * runtime``, by default) and the sum is divided by
    the number of jobs, matching the paper's "calculated in the same fashion
    as the average response time … multiplied with the weight of this job".
    The absolute magnitudes of Tables 3–6 (1e11-ish for ~1e5 jobs) confirm
    the sum is divided by the job count, not by the total weight.
    """
    if len(schedule) == 0:
        return 0.0
    return (
        sum(item.response_time * weight(item.job) for item in schedule)
        / len(schedule)
    )


def makespan(schedule: Schedule) -> float:
    """Latest completion time — considered and rejected in Section 4
    ("mainly an off-line criterion")."""
    return schedule.makespan


def idle_node_seconds(
    schedule: Schedule,
    total_nodes: int,
    frame_start: float | None = None,
    frame_end: float | None = None,
) -> float:
    """Sum of idle node-seconds within a time frame (Rule 6's first candidate;
    rejected because "it is based on a time frame" and therefore off-line).

    The frame defaults to ``[first submission, makespan]``.
    """
    if len(schedule) == 0:
        return 0.0
    start = schedule.first_submission if frame_start is None else frame_start
    end = schedule.makespan if frame_end is None else frame_end
    if end <= start:
        return 0.0
    busy = 0.0
    for item in schedule:
        lo = max(item.start_time, start)
        hi = min(item.end_time, end)
        if hi > lo:
            busy += (hi - lo) * item.job.nodes
    return (end - start) * total_nodes - busy


def utilisation(
    schedule: Schedule,
    total_nodes: int,
    frame_start: float | None = None,
    frame_end: float | None = None,
) -> float:
    """Fraction of node-seconds doing work within the frame (higher is better)."""
    if len(schedule) == 0:
        return 0.0
    start = schedule.first_submission if frame_start is None else frame_start
    end = schedule.makespan if frame_end is None else frame_end
    if end <= start:
        return 0.0
    capacity = (end - start) * total_nodes
    return 1.0 - idle_node_seconds(schedule, total_nodes, start, end) / capacity


def average_bounded_slowdown(schedule: Schedule, threshold: float = 10.0) -> float:
    """Mean bounded slowdown: response / max(runtime, threshold), floored at 1.

    Not used by the paper but standard in the JSSPP literature that follows
    it; the threshold damps the exploding slowdowns of near-zero-runtime
    jobs.
    """
    if len(schedule) == 0:
        return 0.0
    total = 0.0
    for item in schedule:
        denom = max(item.job.runtime, threshold)
        total += max(1.0, item.response_time / denom)
    return total / len(schedule)


#: Signature shared by schedule-cost functions usable as policy criteria.
ObjectiveFn = Callable[[Schedule], float]
