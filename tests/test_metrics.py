"""Tests for the objective functions."""

import pytest

from repro.core.job import Job
from repro.core.schedule import Schedule, ScheduledJob
from repro.metrics.objectives import (
    average_bounded_slowdown,
    average_response_time,
    average_weighted_response_time,
    idle_node_seconds,
    makespan,
    utilisation,
)


def item(job_id, submit, start, runtime, nodes=1, weight=None):
    job = Job(job_id=job_id, submit_time=submit, nodes=nodes, runtime=runtime, weight=weight)
    return ScheduledJob(job=job, start_time=start, end_time=start + runtime)


@pytest.fixture
def simple_schedule():
    return Schedule([
        item(0, submit=0.0, start=0.0, runtime=10.0, nodes=2),   # response 10
        item(1, submit=5.0, start=10.0, runtime=20.0, nodes=4),  # response 25
    ])


class TestART:
    def test_average(self, simple_schedule):
        assert average_response_time(simple_schedule) == pytest.approx(17.5)

    def test_empty(self):
        assert average_response_time(Schedule([])) == 0.0

    def test_paper_definition_per_job_not_per_weight(self):
        # ART treats all jobs equally whatever their size.
        wide = Schedule([item(0, 0.0, 0.0, 10.0, nodes=256)])
        narrow = Schedule([item(0, 0.0, 0.0, 10.0, nodes=1)])
        assert average_response_time(wide) == average_response_time(narrow)


class TestAWRT:
    def test_default_weight_is_area(self, simple_schedule):
        # (10 * 2*10 + 25 * 4*20) / 2
        expected = (10.0 * 20.0 + 25.0 * 80.0) / 2.0
        assert average_weighted_response_time(simple_schedule) == pytest.approx(expected)

    def test_unit_weight_reduces_to_art(self, simple_schedule):
        awrt = average_weighted_response_time(simple_schedule, weight=lambda j: 1.0)
        assert awrt == pytest.approx(average_response_time(simple_schedule))

    def test_job_order_irrelevant_without_idle(self):
        # Paper: "for the average weighted response time the order of jobs
        # does not matter if no resources are left idle" [16].  Two unit
        # jobs on one node, either order: total weighted response equal.
        a = Schedule([item(0, 0.0, 0.0, 10.0), item(1, 0.0, 10.0, 10.0)])
        b = Schedule([item(1, 0.0, 0.0, 10.0), item(0, 0.0, 10.0, 10.0)])
        # weight = area = 10 for each; responses {10, 20} either way.
        assert average_weighted_response_time(a) == average_weighted_response_time(b)


class TestFrameMetrics:
    def test_makespan(self, simple_schedule):
        assert makespan(simple_schedule) == 30.0

    def test_idle_node_seconds(self):
        # 4-node machine, one 2-node job for 10s starting at 0.
        sched = Schedule([item(0, 0.0, 0.0, 10.0, nodes=2)])
        assert idle_node_seconds(sched, 4) == pytest.approx(20.0)

    def test_idle_with_explicit_frame(self):
        sched = Schedule([item(0, 0.0, 0.0, 10.0, nodes=2)])
        assert idle_node_seconds(sched, 4, 0.0, 20.0) == pytest.approx(60.0)

    def test_utilisation_complements_idle(self):
        sched = Schedule([item(0, 0.0, 0.0, 10.0, nodes=2)])
        assert utilisation(sched, 4) == pytest.approx(0.5)

    def test_full_utilisation(self):
        sched = Schedule([item(0, 0.0, 0.0, 10.0, nodes=4)])
        assert utilisation(sched, 4) == pytest.approx(1.0)

    def test_empty_schedules(self):
        empty = Schedule([])
        assert idle_node_seconds(empty, 4) == 0.0
        assert utilisation(empty, 4) == 0.0


class TestOtherMetrics:
    def test_bounded_slowdown_floor(self):
        # Instant jobs do not explode the metric.
        sched = Schedule([item(0, 0.0, 0.0, 0.1)])
        assert average_bounded_slowdown(sched, threshold=10.0) == pytest.approx(1.0)

    def test_bounded_slowdown_basic(self):
        sched = Schedule([item(0, 0.0, 90.0, 100.0)])  # response 190
        assert average_bounded_slowdown(sched) == pytest.approx(1.9)
