"""Unit tests for the event queue and the merged static/dynamic feed."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import Event, EventKind, EventQueue
from repro.core.job import Job
from repro.core.simulator import Cancellation
from repro.core.vector import MergedEventFeed, static_timeline
from repro.failures import FailureTrace, NodeFailure
from tests.conftest import all_heap_queue


class TestOrdering:
    def test_pops_in_time_order(self):
        q = EventQueue()
        q.push(5.0, EventKind.SUBMISSION, "b")
        q.push(1.0, EventKind.SUBMISSION, "a")
        q.push(9.0, EventKind.SUBMISSION, "c")
        assert [q.pop().payload for _ in range(3)] == ["a", "b", "c"]

    def test_completion_before_submission_at_same_time(self):
        q = EventQueue()
        q.push(5.0, EventKind.SUBMISSION, "submit")
        q.push(5.0, EventKind.COMPLETION, "complete")
        assert q.pop().payload == "complete"
        assert q.pop().payload == "submit"

    def test_timer_after_submission_at_same_time(self):
        q = EventQueue()
        q.push(5.0, EventKind.TIMER, "timer")
        q.push(5.0, EventKind.SUBMISSION, "submit")
        assert q.pop().payload == "submit"
        assert q.pop().payload == "timer"

    def test_insertion_order_breaks_remaining_ties(self):
        q = EventQueue()
        q.push(5.0, EventKind.SUBMISSION, "first")
        q.push(5.0, EventKind.SUBMISSION, "second")
        assert q.pop().payload == "first"
        assert q.pop().payload == "second"

    def test_peek_does_not_remove(self):
        q = EventQueue()
        pushed = q.push(1.0, EventKind.TIMER, "wake")
        assert q.peek() is pushed
        assert q.peek().time == q.peek_time() == 1.0
        assert (q.peek().kind, q.peek().payload) == (EventKind.TIMER, "wake")
        assert len(q) == 1
        assert q.pop() is pushed and not q

    def test_events_are_plain_tuples(self):
        # The heap must order entries in C: an Event is a tuple that leaves
        # comparison to tuple, and unique sequences keep it off the payload.
        q = EventQueue()
        first = q.push(5.0, EventKind.COMPLETION, object())
        second = q.push(5.0, EventKind.COMPLETION, object())
        assert isinstance(first, tuple) and Event.__lt__ is tuple.__lt__
        assert first == (5.0, EventKind.COMPLETION, 0, first.payload)
        assert first < second  # payloads are unorderable: never compared

    def test_len_and_bool(self):
        q = EventQueue()
        assert not q
        q.push(1.0, EventKind.TIMER)
        assert q and len(q) == 1
        q.pop()
        assert not q


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=1e6, allow_nan=False),
            st.sampled_from(list(EventKind)),
        ),
        min_size=1,
        max_size=50,
    )
)
def test_pop_sequence_is_sorted(items):
    q = EventQueue()
    for time, kind in items:
        q.push(time, kind)
    popped: list[Event] = [q.pop() for _ in range(len(items))]
    keys = [(e.time, e.kind, e.sequence) for e in popped]
    assert keys == sorted(keys)


# -- the merged feed against the all-heap oracle --------------------------------

_DYNAMIC_KINDS = (EventKind.COMPLETION, EventKind.SUBMISSION, EventKind.TIMER)


@st.composite
def run_cases(draw):
    """A static mix plus events pushed while the run pops.

    Instants come from a handful of integers so that arrivals,
    cancellations, repairs, failures and pushed completions / reruns /
    timers keep landing on the same instant.  A dynamic event is
    ``(after, delay, kind)``: pushed right after the ``after``-th pop,
    ``delay`` past that event's instant.
    """
    instants = st.integers(min_value=0, max_value=6)
    arrivals = sorted(draw(st.lists(instants, max_size=8)))
    cancel_times = draw(st.lists(instants, max_size=4))
    outages = draw(
        st.lists(st.tuples(instants, st.integers(min_value=1, max_value=3)), max_size=4)
    )
    dynamic = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=20),
                st.integers(min_value=0, max_value=3),
                st.sampled_from(_DYNAMIC_KINDS),
            ),
            max_size=10,
        )
    )
    jobs = [
        Job(job_id=i, submit_time=float(t), nodes=1, runtime=1.0)
        for i, t in enumerate(arrivals)
    ]
    cancellations = [Cancellation(float(t), i) for i, t in enumerate(cancel_times)]
    failures = FailureTrace(
        NodeFailure(down_time=float(down), up_time=float(down + length), nodes=1)
        for down, length in outages
    )
    return jobs, cancellations, failures, dynamic


def _drive(feed, events, dynamic):
    """Pop ``feed`` dry, pushing the dynamic events into ``events`` on cue."""
    popped = []
    while feed:
        time = feed.peek_time()
        kind, payload = feed.pop_next()
        for i, (after, delay, pushed_kind) in enumerate(dynamic):
            if after == len(popped):
                events.push(time + delay, pushed_kind, ("pushed", i))
        popped.append((time, kind, payload))
    return popped


@given(run_cases())
@settings(max_examples=300, deadline=None)
def test_merged_feed_pops_the_all_heap_order(case):
    """Static timeline + heap of pushed events == one heap holding both:
    the oracle's ``(time, kind, sequence)`` order, event for event."""
    jobs, cancellations, failures, dynamic = case

    heap = all_heap_queue(jobs, cancellations, failures)
    expected = _drive(heap, heap, dynamic)

    events = EventQueue()
    times = [job.submit_time for job in jobs]
    feed = MergedEventFeed(
        events, *static_timeline(jobs, times, cancellations, failures)
    )
    assert len(feed) == len(jobs) + len(cancellations) + 2 * len(failures)
    got = _drive(feed, events, dynamic)

    assert got == expected
    assert not feed and len(feed) == 0
    # On a full (time, kind) tie what was known before the run goes first:
    # a static event was pending all along, so no pushed one may precede it.
    pushed_seen = set()
    for time, kind, payload in got:
        if _is_pushed(payload):
            pushed_seen.add((time, kind))
        else:
            assert (time, kind) not in pushed_seen


def _is_pushed(payload) -> bool:
    return isinstance(payload, tuple) and payload[:1] == ("pushed",)


def test_one_instant_orders_by_kind_then_static_first():
    """COMPLETION < NODE_UP < NODE_DOWN < SUBMISSION < CANCELLATION < TIMER
    at one instant, wherever the event lives; on a full tie the static
    arrival precedes the pushed rerun."""
    job = Job(job_id=0, submit_time=5.0, nodes=1, runtime=1.0)
    failures = FailureTrace(
        [
            NodeFailure(down_time=1.0, up_time=5.0, nodes=1),
            NodeFailure(down_time=5.0, up_time=9.0, nodes=1),
        ]
    )
    events = EventQueue()
    feed = MergedEventFeed(
        events, *static_timeline([job], [5.0], [Cancellation(5.0, 0)], failures)
    )
    assert feed.pop_next()[0] is EventKind.NODE_DOWN  # t = 1
    events.push(5.0, EventKind.TIMER, "timer")
    events.push(5.0, EventKind.SUBMISSION, "rerun")
    events.push(5.0, EventKind.COMPLETION, "done")
    assert feed.peek_time() == 5.0
    assert [feed.pop_next() for _ in range(7)] == [
        (EventKind.COMPLETION, "done"),
        (EventKind.NODE_UP, failures.failures[0]),
        (EventKind.NODE_DOWN, failures.failures[1]),
        (EventKind.SUBMISSION, job),
        (EventKind.SUBMISSION, "rerun"),
        (EventKind.CANCELLATION, 0),
        (EventKind.TIMER, "timer"),
    ]
    assert feed.pop_next() == (EventKind.NODE_UP, failures.failures[1])  # t = 9
    assert not feed
