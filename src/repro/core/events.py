"""Event types and the event queue of the discrete-event engine.

The scheduling system of the paper reacts to exactly two external stimuli:
the arrival of job submission data ("a stream of job submission data",
Section 2) and the completion of a running job (which may differ from the
projected completion because estimates are upper limits).  Internally we add
a ``TIMER`` event kind so schedulers can request wake-ups (PSRS's wide-job
patience, policy rules like Example 4's 10am class) without polling, and the
``NODE_UP`` / ``NODE_DOWN`` pair through which a
:class:`~repro.failures.trace.FailureTrace` feeds "the sudden failure of a
hardware component" (Section 2) into the loop.

Events are processed in ``(time, priority, sequence)`` order.  Completions
are processed *before* submissions at the same instant — a scheduler seeing
a new job should already know about every node freed at that time — and the
monotone ``sequence`` counter makes the order total and deterministic.

An event is a plain tuple (:class:`Event` is a ``NamedTuple``), so the heap
compares entries in C, never through a Python ``__lt__``.  Events differ in
*when they become known*: arrivals, cancellations and node failures are all
known before the run starts, completions, rerun submissions and timers only
come into being during it.  This module is the single owner of their order:
the first sort is merged once into a static timeline
(:func:`static_timeline`), the second goes onto an :class:`EventQueue`, and
:class:`MergedEventFeed` pops both in the order one heap holding every
event would: a static event holds a sequence below every pushed one, so it
precedes the heap head iff its ``(time, kind)`` is not greater.  Both
backends run this one event path; ``tests/test_events.py`` checks it
against the all-heap order.
"""

from __future__ import annotations

import enum
from heapq import heappop, heappush
from itertools import count, repeat
from typing import Any, NamedTuple, Sequence


class EventKind(enum.IntEnum):
    """Kinds of simulator events; the integer value is the same-time priority.

    Completions come first so everything at one instant sees the freed
    nodes.  Node repairs apply before node failures (a simultaneous
    repair+failure nets out without a transient negative capacity), and
    both precede submissions — a job arriving at a failure instant sees
    the degraded machine.  Cancellations process after submissions at the
    same instant (a job submitted and cancelled in the same second is
    first seen, then withdrawn), and before timers.
    """

    COMPLETION = 0
    NODE_UP = 1
    NODE_DOWN = 2
    SUBMISSION = 3
    CANCELLATION = 4
    TIMER = 5


class Event(NamedTuple):
    """A single simulator event — a plain tuple, so ``heapq`` orders it in C.

    Ordering is by time, then kind priority, then insertion sequence, so a
    heap of events pops deterministically; sequences are unique within a
    queue, so the comparison never reaches ``payload``.  ``payload``
    carries the job for submission/completion events and an arbitrary
    token for timers.
    """

    time: float
    kind: EventKind
    sequence: int
    payload: Any = None


class EventQueue:
    """A binary-heap priority queue of :class:`Event` tuples.

    A run pushes here only what it creates itself — completions, rerun
    submissions, timers — and keeps everything known before the run in the
    static timeline beside it (:class:`MergedEventFeed`).  A queue holding
    every event of a run is the reference order the feed is tested
    against.
    """

    __slots__ = ("_heap", "_sequence")

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._sequence = 0

    def push(self, time: float, kind: EventKind, payload: Any = None) -> Event:
        """Schedule an event and return it."""
        event = Event(time, kind, self._sequence, payload)
        self._sequence += 1
        heappush(self._heap, event)
        return event

    def pop(self) -> Event:
        """Remove and return the earliest event.  Raises ``IndexError`` if empty."""
        return heappop(self._heap)

    def peek(self) -> Event:
        """Return the earliest event without removing it."""
        return self._heap[0]

    def peek_time(self) -> float:
        """Time of the earliest event.  Raises ``IndexError`` if empty."""
        return self._heap[0].time

    def pop_next(self) -> tuple[EventKind, Any]:
        """Remove the earliest event, returning its ``(kind, payload)``.

        The simulator's dispatch interface, shared with
        :class:`MergedEventFeed`.
        """
        _time, kind, _sequence, payload = heappop(self._heap)
        return kind, payload

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


_SUBMISSION = EventKind.SUBMISSION
_CANCELLATION = EventKind.CANCELLATION


def static_timeline(
    stream: Sequence["Job"],
    arrival_times: Sequence[float],
    cancellations: Sequence[Any] = (),
    failures: Any = None,
) -> tuple[list[float], list[EventKind], list[Any]]:
    """Everything known before the run, as one sorted event timeline.

    Returns the parallel lists ``(times, kinds, payloads)`` of the N
    arrivals of ``stream`` (already in arrival order), the
    ``cancellations`` and both halves of every failure of ``failures`` (a
    :class:`~repro.failures.trace.FailureTrace` or ``None``), sorted by
    the ``(time, kind, sequence)`` key of one heap that had the three
    sources pushed one after the other.  No two of them share an event
    kind, so the position within its own source is all the sequence a
    static event needs: ties on ``(time, kind)`` only ever arise inside
    one source.
    """
    if not cancellations and not failures:
        return arrival_times, [_SUBMISSION] * len(stream), stream
    entries = list(zip(arrival_times, repeat(_SUBMISSION), count(), stream))
    entries.extend(
        (cancel.time, _CANCELLATION, i, cancel.job_id)
        for i, cancel in enumerate(cancellations)
    )
    if failures:
        entries.extend(failures.node_events())
    # Three sorted runs: timsort merges them in linear time, and unique
    # per-kind sequences keep the tuple comparison off the payloads.
    entries.sort()
    times, kinds, _sequences, payloads = map(list, zip(*entries))
    return times, kinds, payloads


class MergedEventFeed:
    """Merge the static timeline with the heap of events the run creates.

    Presents the same ``peek_time`` / ``pop_next`` / truthiness interface
    as :class:`EventQueue`, but nothing known before the run — original
    submissions, cancellations, node failures and repairs
    (:func:`static_timeline`) — ever enters the heap: a cursor walks the
    sorted timeline.  In the all-heap reference order every static event
    was pushed before the run and so holds a sequence below every event
    pushed during it; the merge comparison therefore reduces to: a static
    event ``(t, kind)`` precedes the heap head ``(t', kind')`` iff ``(t,
    kind) <= (t', kind')`` — exactly the ``(time, kind, sequence)`` total
    order of that one heap.
    """

    __slots__ = ("_events", "_times", "_kinds", "_payloads", "_idx", "_n")

    def __init__(
        self,
        events: EventQueue,
        times: Sequence[float],
        kinds: Sequence[EventKind],
        payloads: Sequence[Any],
    ) -> None:
        if not len(times) == len(kinds) == len(payloads):
            raise ValueError("static times, kinds and payloads disagree on length")
        self._events = events
        self._times = times
        self._kinds = kinds
        self._payloads = payloads
        self._idx = 0
        self._n = len(times)

    def __bool__(self) -> bool:
        return self._idx < self._n or bool(self._events._heap)

    def __len__(self) -> int:
        return (self._n - self._idx) + len(self._events._heap)

    def peek_time(self) -> float:
        """Earliest pending instant across both sources."""
        heap = self._events._heap
        if self._idx >= self._n:
            return heap[0].time
        static = self._times[self._idx]
        if not heap:
            return static
        event = heap[0].time
        return static if static <= event else event

    def pop_next(self) -> tuple[EventKind, Any]:
        """Remove and return the earliest ``(kind, payload)`` pair."""
        heap = self._events._heap
        idx = self._idx
        if idx < self._n:
            kind = self._kinds[idx]
            if heap:
                head = heap[0]
                static = self._times[idx]
                first = static < head.time or (
                    static == head.time and kind <= head.kind
                )
            else:
                first = True
            if first:
                self._idx = idx + 1
                return kind, self._payloads[idx]
        _time, kind, _sequence, payload = heappop(heap)
        return kind, payload
