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
come into being during it.  The python oracle pushes both sorts onto one
:class:`EventQueue`; the numpy backend sorts the first sort once into a
static timeline and keeps the heap for the second
(:class:`repro.core.vector.MergedEventFeed`), which pops the same order:
a static event holds a sequence below every pushed one, so it precedes the
heap head iff its ``(time, kind)`` is not greater.  Either source is
popped one event at a time by the same loop.
"""

from __future__ import annotations

import enum
import heapq
from typing import Any, NamedTuple


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

    The python oracle pushes every event of a run here.  The numpy backend
    pushes only what the run itself creates — completions, rerun
    submissions, timers — and keeps everything known before the run in the
    static timeline beside it (:class:`repro.core.vector.MergedEventFeed`).
    """

    __slots__ = ("_heap", "_sequence")

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._sequence = 0

    def push(self, time: float, kind: EventKind, payload: Any = None) -> Event:
        """Schedule an event and return it."""
        event = Event(time, kind, self._sequence, payload)
        self._sequence += 1
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> Event:
        """Remove and return the earliest event.  Raises ``IndexError`` if empty."""
        return heapq.heappop(self._heap)

    def peek(self) -> Event:
        """Return the earliest event without removing it."""
        return self._heap[0]

    def peek_time(self) -> float:
        """Time of the earliest event.  Raises ``IndexError`` if empty."""
        return self._heap[0].time

    def pop_next(self) -> tuple[EventKind, Any]:
        """Remove the earliest event, returning its ``(kind, payload)``.

        The simulator's dispatch interface, shared with
        :class:`repro.core.vector.MergedEventFeed` so both backends drive
        one event loop.
        """
        _time, kind, _sequence, payload = heapq.heappop(self._heap)
        return kind, payload

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
