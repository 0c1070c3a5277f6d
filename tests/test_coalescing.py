"""The event-coalescing fast path: partition exactness and bit-identity.

Two layers of guarantee back the simulator's bulk event advancement:

* the run-extraction primitives (`EventQueue.take_completion_run`,
  `MergedEventFeed.take_blocked_arrivals` / `take_idle_starts`) must
  *partition* the event stream — interleaving extraction probes with
  per-event pops yields exactly the sequence the pops alone would, no
  event lost, duplicated, or reordered (the hypothesis property below);
* the coalesced simulator must stay bit-identical to the scalar oracle
  across the full scheduler registry under the adversarial scenarios —
  cancellations, over-limit kills, failure traces with every recovery
  policy — while *actually* coalescing where its capabilities say it may
  (asserted via the ``SimulationResult.coalesced`` counters, so a silent
  fallback to the per-event loop cannot pass as equivalence).
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import EventKind, EventQueue
from repro.core.job import Job
from repro.core.machine import Machine
from repro.core.simulator import (
    Cancellation,
    ScenarioInputs,
    SimulationConfig,
    Simulator,
)
from repro.core.vector import MergedEventFeed, static_timeline
from repro.failures import FailureTrace, NodeFailure, mtbf_trace
from repro.schedulers.registry import build_scheduler, registered_configurations
from tests.conftest import all_heap_queue, make_jobs
from tests.test_vector_equivalence import full_signature, run_both

NODES = 64

#: What a run pushes while it runs — but a probe must stop at *any*
#: non-completion head, so the heap draws every kind.
_HEAP_KINDS = tuple(EventKind)


# -- partition property of the run-extraction primitives -------------------------


@st.composite
def feed_cases(draw):
    """A static timeline + residual heap + an interleaving script.

    Integer instants with small gaps force plenty of equal-time collisions
    — arrivals sharing instants with each other, with static cancellations
    and node events, and with heap events are exactly where a sloppy
    extraction bound would drop or reorder.
    """
    n_arrivals = draw(st.integers(min_value=0, max_value=25))
    gaps = draw(
        st.lists(
            st.integers(min_value=0, max_value=3),
            min_size=n_arrivals,
            max_size=n_arrivals,
        )
    )
    times = []
    t = 0
    for gap in gaps:
        t += gap
        times.append(float(t))
    widths = draw(
        st.lists(
            st.integers(min_value=1, max_value=8),
            min_size=n_arrivals,
            max_size=n_arrivals,
        )
    )
    horizon = t + 4
    instants = st.integers(min_value=0, max_value=horizon)
    cancel_times = draw(st.lists(instants, min_size=0, max_size=5))
    outages = draw(
        st.lists(
            st.tuples(instants, st.integers(min_value=1, max_value=4)),
            min_size=0,
            max_size=5,
        )
    )
    heap_events = draw(
        st.lists(
            st.tuples(instants, st.sampled_from(_HEAP_KINDS)),
            min_size=0,
            max_size=12,
        )
    )
    script = draw(
        st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=40)
    )
    frees = draw(
        st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=8)
    )
    jobs = [
        Job(job_id=i, submit_time=times[i], nodes=widths[i], runtime=10.0)
        for i in range(n_arrivals)
    ]
    cancellations = [Cancellation(float(t), i) for i, t in enumerate(cancel_times)]
    failures = FailureTrace(
        NodeFailure(down_time=float(down), up_time=float(down + length), nodes=1)
        for down, length in outages
    )
    return jobs, times, cancellations, failures, heap_events, script, frees


def _build_feed(jobs, times, cancellations=(), failures=None, heap_events=()):
    events = EventQueue()
    for i, (t, kind) in enumerate(heap_events):
        events.push(float(t), kind, ("heap", i))
    timeline = static_timeline(jobs, times, cancellations, failures)
    return events, MergedEventFeed(events, *timeline)


def _all_heap_trace(jobs, cancellations, failures, heap_events):
    """The oracle trace: one heap holding everything, pushed in the python
    backend's order (arrivals, cancellations, failures, then the run's)."""
    events = all_heap_queue(jobs, cancellations, failures)
    for i, (t, kind) in enumerate(heap_events):
        events.push(float(t), kind, ("heap", i))
    out = []
    while events:
        event = events.pop()
        out.append((event.time, event.kind, event.payload))
    return out


def _next_other_instant(expected, done):
    """Instant of the next pending event that is not an original arrival."""
    return next(
        (
            t
            for t, kind, payload in expected[done:]
            if not (kind is EventKind.SUBMISSION and isinstance(payload, Job))
        ),
        float("inf"),
    )


def _probe(action, free, events, feed, expected, out):
    """One extraction probe; appends what it consumed to ``out`` and
    returns the instants it closed (``None`` when it consumed nothing)."""
    barrier = _next_other_instant(expected, len(out))
    if action == 1:
        run_jobs, run_times, closed = feed.take_blocked_arrivals(free)
        assert len(run_jobs) == len(run_times)
        assert 0 <= closed <= len(run_jobs)
        for job, t in zip(run_jobs, run_times):
            assert job.submit_time == t
            # Never at (or past) the instant of a pending cancellation,
            # node event or heap event: that batch is the loop's.
            assert t < barrier
            out.append((t, EventKind.SUBMISSION, job))
        return closed if run_jobs else None
    if action == 2:
        run_jobs, run_times, instants = feed.take_idle_starts(free)
        assert len(run_jobs) == len(run_times)
        assert instants <= len(run_jobs)
        # The consumed batch jointly fits the probe's free nodes.
        assert sum(job.nodes for job in run_jobs) <= free
        for job, t in zip(run_jobs, run_times):
            assert t < barrier
            out.append((t, EventKind.SUBMISSION, job))
        return instants if run_jobs else None
    if action == 3:
        bound = feed.next_static_time()
        run_events, closed = events.take_completion_run(bound)
        assert 0 <= closed <= len(run_events)
        for event in run_events:
            assert event.kind is EventKind.COMPLETION
            # A completion at the instant of a static event (a repair, an
            # arrival) is left for that instant's batch.
            assert event.time < bound
            out.append((event.time, event.kind, event.payload))
        return closed if run_events else None
    return None


@given(feed_cases())
@settings(max_examples=200, deadline=None)
def test_run_extraction_partitions_event_stream(case):
    """Interleaving extraction probes with pops reproduces the all-heap
    trace exactly: no event lost, none duplicated, order preserved — with
    static cancellations and node events cutting the runs."""
    jobs, times, cancellations, failures, heap_events, script, frees = case
    expected = _all_heap_trace(jobs, cancellations, failures, heap_events)

    events, feed = _build_feed(jobs, times, cancellations, failures, heap_events)
    out = []
    step = 0
    while feed:
        action = script[step % len(script)]
        free = frees[step % len(frees)]
        step += 1
        if _probe(action, free, events, feed, expected, out) is None:
            # Empty probes must make progress (the simulator's per-event
            # loop would); otherwise an all-probe script would spin.
            t = feed.peek_time()
            kind, payload = feed.pop_next()
            out.append((t, kind, payload))
    assert out == expected


@given(feed_cases())
@settings(max_examples=200, deadline=None)
def test_closed_instants_sum_to_decision_points(case):
    """Probing at batch boundaries, as the simulator does: the instants
    the runs close plus the batches the per-event loop pops count every
    distinct instant exactly once — an instant a run leaves open (a static
    NODE_UP or cancellation, a fitting arrival, a heap event shares it) is
    the loop's decision point, never both's and never nobody's."""
    jobs, times, cancellations, failures, heap_events, script, frees = case
    expected = _all_heap_trace(jobs, cancellations, failures, heap_events)

    events, feed = _build_feed(jobs, times, cancellations, failures, heap_events)
    out = []
    decision_points = 0
    step = 0
    while feed:
        action = script[step % len(script)]
        free = frees[step % len(frees)]
        step += 1
        closed = _probe(action, free, events, feed, expected, out)
        if closed is None:
            now = feed.peek_time()
            while feed and feed.peek_time() == now:
                kind, payload = feed.pop_next()
                out.append((now, kind, payload))
            closed = 1
        decision_points += closed
    assert out == expected
    assert decision_points == len({t for t, _kind, _payload in expected})


def test_arrival_run_stops_before_a_static_event_instant():
    """An arrival sharing its instant with a pending static cancellation
    or node event is not consumed: that instant's batch — and its decision
    point — belongs to the per-event loop."""
    times = [1.0, 2.0, 3.0, 4.0]
    jobs = [
        Job(job_id=i, submit_time=times[i], nodes=9, runtime=5.0) for i in range(4)
    ]
    cancellations = [Cancellation(2.0, 0)]
    failures = FailureTrace([NodeFailure(down_time=3.0, up_time=4.0, nodes=1)])
    _events, feed = _build_feed(jobs, times, cancellations, failures)
    run_jobs, _times, closed = feed.take_blocked_arrivals(8)
    assert [job.job_id for job in run_jobs] == [0] and closed == 1
    assert feed.take_idle_starts(64) == ([], [], 0)
    # Instant 2.0: the arrival, then the cancellation.
    assert [feed.pop_next()[0] for _ in range(2)] == [
        EventKind.SUBMISSION,
        EventKind.CANCELLATION,
    ]
    # Instant 3.0: NODE_DOWN sorts before the arrival and bars it.
    assert feed.take_blocked_arrivals(8) == ([], [], 0)
    assert [feed.pop_next()[0] for _ in range(2)] == [
        EventKind.NODE_DOWN,
        EventKind.SUBMISSION,
    ]
    # Instant 4.0: the repair, then the last arrival; nothing bars a run
    # once the static non-arrivals are spent.
    assert feed.pop_next()[0] is EventKind.NODE_UP
    run_jobs, _times, instants = feed.take_idle_starts(64)
    assert [job.job_id for job in run_jobs] == [3] and instants == 1
    assert not feed


def test_completion_at_a_static_repair_instant_stays_open():
    """The drain's bound is the next static event of any kind: a
    completion at the instant of a static NODE_UP is not consumed."""
    failures = FailureTrace([NodeFailure(down_time=0.0, up_time=5.0, nodes=1)])
    job = Job(job_id=0, submit_time=9.0, nodes=1, runtime=1.0)
    events, feed = _build_feed([job], [9.0], (), failures)
    assert feed.pop_next()[0] is EventKind.NODE_DOWN
    for t in (3.0, 5.0, 7.0):
        events.push(t, EventKind.COMPLETION, t)
    run_events, closed = events.take_completion_run(feed.next_static_time())
    assert [event.payload for event in run_events] == [3.0] and closed == 1
    # The instant 5.0 is whole: completion first, then the repair.
    assert feed.peek_time() == 5.0
    assert [feed.pop_next()[0] for _ in range(2)] == [
        EventKind.COMPLETION,
        EventKind.NODE_UP,
    ]


def test_blocked_run_stops_at_fitting_arrival():
    """A same-instant arrival that fits closes the run *open*: the last
    instant's decision point belongs to the per-event loop."""
    times = [1.0, 1.0, 2.0, 2.0]
    widths = [9, 9, 9, 3]
    jobs = [
        Job(job_id=i, submit_time=times[i], nodes=widths[i], runtime=5.0)
        for i in range(4)
    ]
    _events, feed = _build_feed(jobs, times)
    run_jobs, run_times, closed = feed.take_blocked_arrivals(8)
    assert [job.job_id for job in run_jobs] == [0, 1, 2]
    assert run_times == [1.0, 1.0, 2.0]
    assert closed == 1  # instant 2.0 stays open: job 3 fits there
    assert feed.next_static_time() == 2.0


def test_idle_starts_consume_whole_instants_only():
    """An instant whose joint demand exceeds the free nodes is left whole,
    even when a prefix of it would fit."""
    times = [1.0, 2.0, 2.0]
    widths = [4, 4, 5]
    jobs = [
        Job(job_id=i, submit_time=times[i], nodes=widths[i], runtime=5.0)
        for i in range(3)
    ]
    _events, feed = _build_feed(jobs, times)
    run_jobs, run_times, instants = feed.take_idle_starts(8)
    assert [job.job_id for job in run_jobs] == [0]
    assert instants == 1
    assert feed.next_static_time() == 2.0


# -- bit-identity of the coalesced simulator under adversarial scenarios ---------


def test_fast_path_actually_coalesces():
    """On a plain FCFS cell the counters prove the fast path engaged —
    equivalence alone could be satisfied by silently falling back."""
    jobs = make_jobs(150, seed=87, max_nodes=NODES, mean_gap=20.0)
    config = next(
        c for c in registered_configurations() if c.key.startswith("fcfs")
    )
    _oracle, fast = run_both(lambda: build_scheduler(config, NODES), jobs)
    counters = fast.coalesced
    assert counters["decision_points"] > 0
    assert (
        counters["blocked_arrival_runs"]
        + counters["drain_runs"]
        + counters["idle_start_runs"]
    ) > 0
    # Coalesced decision points are *extra* savings on top of the ones the
    # loop still takes; both backends report the oracle's count.
    assert fast.decision_points == _oracle.decision_points


def test_registry_bit_identical_under_cancellations():
    jobs = make_jobs(130, seed=83, max_nodes=NODES, mean_gap=25.0)
    cancellations = [
        Cancellation(time=job.submit_time + 60.0, job_id=job.job_id)
        for job in jobs
        if job.job_id % 5 == 0
    ]
    scenario = ScenarioInputs(cancellations=cancellations)
    for config in registered_configurations():
        run_both(lambda: build_scheduler(config, NODES), jobs, scenario=scenario)


def test_registry_bit_identical_under_over_limit_kills():
    jobs = make_jobs(110, seed=89, max_nodes=NODES, mean_gap=25.0)
    jobs = [
        replace(job, estimate=job.runtime * 0.5) if job.job_id % 4 == 0 else job
        for job in jobs
    ]
    config = SimulationConfig(cancel_over_limit=True)
    for scheduler_config in registered_configurations():
        run_both(
            lambda: build_scheduler(scheduler_config, NODES), jobs, config=config
        )


@pytest.mark.parametrize(
    "recovery", ["abandon", "resubmit", "checkpoint:interval=250.0,overhead=25.0"]
)
def test_registry_bit_identical_under_failures(recovery):
    jobs = make_jobs(120, seed=97, max_nodes=NODES, mean_gap=25.0)
    trace = mtbf_trace(
        total_nodes=NODES,
        horizon=max(j.submit_time for j in jobs) + 8_000.0,
        mtbf=12_000.0,
        mttr=900.0,
        seed=101,
        max_nodes_per_failure=4,
    )
    assert len(trace) > 0
    scenario = ScenarioInputs(failures=trace, recovery=recovery)
    for config in registered_configurations():
        run_both(lambda: build_scheduler(config, NODES), jobs, scenario=scenario)


def test_phase_seconds_breakdown_present():
    """The numpy backend attributes its wall clock: the phase breakdown
    sums to (at most) the total and includes the coalescing phases."""
    jobs = make_jobs(100, seed=7, max_nodes=NODES, mean_gap=25.0)
    config = next(iter(registered_configurations()))
    result = Simulator(
        Machine(NODES),
        build_scheduler(config, NODES),
        SimulationConfig(backend="numpy", profile_phases=True),
    ).run(jobs)
    phases = result.phase_seconds
    for key in ("total", "decide", "events", "commit", "coalesce", "other"):
        assert key in phases
        assert phases[key] >= 0.0
    parts = phases["decide"] + phases["events"] + phases["commit"] + phases["coalesce"]
    assert parts <= phases["total"] + 1e-9
    # Without ``profile_phases`` only the cheap breakdown is collected (no
    # extra clock reads on the hot loop).
    plain = Simulator(
        Machine(NODES), build_scheduler(config, NODES), SimulationConfig(backend="python")
    ).run(jobs)
    assert set(plain.phase_seconds) == {"total", "decide"}
