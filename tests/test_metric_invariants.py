"""Property tests on metric invariants over simulated schedules."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.simulator import simulate
from repro.metrics.bounds import art_lower_bound, awrt_lower_bound
from repro.metrics.objectives import (
    average_bounded_slowdown,
    average_response_time,
    average_weighted_response_time,
    idle_node_seconds,
    makespan,
    utilisation,
)
from repro.schedulers.baselines import baseline_scheduler
from repro.schedulers.fcfs import FCFSScheduler
from repro.schedulers.garey_graham import GareyGrahamScheduler
from tests.conftest import make_jobs

NODES = 64

SCHEDULER_FACTORIES = (
    FCFSScheduler.plain,
    FCFSScheduler.with_easy,
    GareyGrahamScheduler,
    lambda: baseline_scheduler("sjf", "easy"),
)


@given(
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=len(SCHEDULER_FACTORIES) - 1),
)
@settings(max_examples=24, deadline=None)
def test_metric_relations(seed, which):
    jobs = make_jobs(30, seed=seed, max_nodes=NODES)
    result = simulate(jobs, SCHEDULER_FACTORIES[which](), NODES)
    sched = result.schedule

    art = average_response_time(sched)
    wait = sum(item.wait_time for item in sched) / len(sched)
    awrt = average_weighted_response_time(sched)
    util = utilisation(sched, NODES)
    idle = idle_node_seconds(sched, NODES)
    span = makespan(sched)

    # Response = wait + runtime, so ART exceeds both the mean wait and the
    # trivial lower bound.
    mean_runtime = sum(j.runtime for j in jobs) / len(jobs)
    assert art == pytest.approx(wait + mean_runtime)
    assert art >= art_lower_bound(jobs) - 1e-9
    assert awrt >= awrt_lower_bound(jobs) - 1e-9

    # Utilisation and idle time are two views of the same frame.
    assert 0.0 <= util <= 1.0 + 1e-12
    frame = span - sched.first_submission
    busy = frame * NODES - idle
    assert busy == pytest.approx(sum(j.area for j in jobs), rel=1e-9)

    # Bounded slowdown is floored at 1.
    assert average_bounded_slowdown(sched) >= 1.0 - 1e-12

    # Makespan is reached by some job.
    assert any(item.end_time == span for item in sched)


@given(st.integers(min_value=0, max_value=8))
@settings(max_examples=9, deadline=None)
def test_weighted_metrics_scale_linearly(seed):
    """AWRT with weight c*w equals c times AWRT with weight w."""
    jobs = make_jobs(25, seed=seed, max_nodes=NODES)
    sched = simulate(jobs, FCFSScheduler.plain(), NODES).schedule
    base = average_weighted_response_time(sched, weight=lambda j: j.area)
    scaled = average_weighted_response_time(sched, weight=lambda j: 3.0 * j.area)
    assert scaled == pytest.approx(3.0 * base)


@given(st.integers(min_value=0, max_value=8))
@settings(max_examples=9, deadline=None)
def test_time_shift_invariance(seed):
    """Shifting every submission by a constant shifts nothing relative:
    ART, waits and utilisation are translation invariant."""
    from dataclasses import replace

    jobs = make_jobs(25, seed=seed, max_nodes=NODES)
    shifted = [replace(j, submit_time=j.submit_time + 1_000_000.0) for j in jobs]
    a = simulate(jobs, FCFSScheduler.with_easy(), NODES).schedule
    b = simulate(shifted, FCFSScheduler.with_easy(), NODES).schedule
    assert average_response_time(a) == pytest.approx(average_response_time(b))
    assert [item.wait_time for item in a] == pytest.approx(
        [item.wait_time for item in b]
    )
    assert utilisation(a, NODES) == pytest.approx(utilisation(b, NODES))
