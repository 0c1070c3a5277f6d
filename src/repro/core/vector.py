"""NumPy-vectorised kernels behind the simulator's ``backend="numpy"`` path.

The pure-Python simulator is the **oracle**: every kernel in this module is
required to reproduce its results *bit for bit*, so that switching backends
can never change a schedule, an objective, or a cache fingerprint (the
backend is deliberately absent from
:func:`repro.experiments.engine.cell_fingerprint`).  The fast path earns its
keep on two hot loops:

* **event-queue advance** — instead of heap-pushing one
  :class:`~repro.core.events.Event` per event known before the run (one
  tuple plus an O(log n) sift each, into a heap every later pop has to
  sift through), the arrival stream is sorted once with ``np.lexsort``,
  merged once with the cancellations and node failures into a static
  timeline (:func:`static_timeline`) and walked by the cursor of
  :class:`MergedEventFeed` beside a heap that holds only what the run
  itself creates.  Static events hold the oracle's sequences below every
  pushed one, so the merged order equals the heap order of the oracle
  exactly — including rerun submissions racing original arrivals, and
  completions racing repairs, at the same instant;
* **metric accumulation** — :class:`ResultColumns` collects the schedule's
  numeric columns during the run, and the ``*_columns`` kernels reduce them
  with ``np.add.accumulate``.

Exactness notes (the reasons the bit-identity contract is *provable*, not
hoped for):

* ``np.lexsort((ids, submit))`` and ``sorted(key=lambda j: (j.submit_time,
  j.job_id))`` produce the same permutation because job ids are unique —
  ties on ``submit_time`` are always broken by the id.
* IEEE-754 elementwise arithmetic (``+``, ``-``, ``*``, ``max``,
  comparisons) is identical between CPython floats and NumPy float64.
* ``np.add.accumulate`` is a strictly *sequential* left-to-right reduction
  (every prefix is materialised), so its final element equals Python's
  ``sum()`` bit for bit.  ``np.sum`` is **not** usable here: its pairwise
  summation re-associates additions and would change objectives in the last
  bits, silently invalidating every cached cell.

NumPy is imported lazily per call, so blocking the import (the no-numpy
fallback test) or running on a machine without it degrades cleanly:
``resolve_backend("auto")`` then selects ``"python"`` and nothing in this
module runs.
"""

from __future__ import annotations

import os
from array import array
from heapq import heappop
from itertools import count, repeat
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.core.events import EventKind, EventQueue

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.job import Job
    from repro.core.schedule import Schedule, ScheduledJob

__all__ = [
    "BACKENDS",
    "ENV_BACKEND",
    "MergedEventFeed",
    "ResultColumns",
    "available_backends",
    "average_response_time_columns",
    "average_weighted_response_time_columns",
    "exact_sum",
    "numpy_or_none",
    "resolve_backend",
    "sorted_stream",
    "static_timeline",
]

#: Environment variable overriding an unspecified backend choice.
ENV_BACKEND = "REPRO_BACKEND"

#: Accepted values of the ``backend`` parameter (``None`` means "consult
#: :data:`ENV_BACKEND`, then auto-select").
BACKENDS = ("auto", "python", "numpy")


def numpy_or_none():
    """The ``numpy`` module, or ``None`` when it cannot be imported.

    Imported lazily on every call (module import is cached by the
    interpreter, so this costs one dict lookup) — which is what lets the
    fallback test block the import *after* this module is loaded.
    """
    try:
        import numpy
    except ImportError:
        return None
    return numpy


def _numpy():
    np = numpy_or_none()
    if np is None:  # pragma: no cover - exercised via the fallback test
        raise RuntimeError(
            "the numpy simulation backend was requested but numpy is not "
            "importable; install numpy or use backend='python'"
        )
    return np


def available_backends() -> tuple[str, ...]:
    """The concrete backends usable right now (``python`` always is)."""
    return ("python", "numpy") if numpy_or_none() is not None else ("python",)


def resolve_backend(backend: str | None) -> str:
    """Resolve a backend request to a concrete ``"python"`` or ``"numpy"``.

    ``None`` (the default everywhere) consults the :data:`ENV_BACKEND`
    environment variable and falls back to ``"auto"``; ``"auto"`` selects
    ``"numpy"`` when importable and ``"python"`` otherwise.  An explicit
    ``"numpy"`` without an importable numpy raises :class:`RuntimeError`
    (the caller asked for something the machine cannot do — silently
    degrading would make benchmarks lie); unknown names raise
    :class:`ValueError`.
    """
    if backend is None:
        backend = os.environ.get(ENV_BACKEND, "").strip() or "auto"
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown simulation backend {backend!r}; expected one of "
            f"{', '.join(BACKENDS)} (or None to consult ${ENV_BACKEND})"
        )
    if backend == "auto":
        return "numpy" if numpy_or_none() is not None else "python"
    if backend == "numpy":
        _numpy()  # fail fast with the explanatory RuntimeError
    return backend


# -- pre-sorted arrival arrays --------------------------------------------------


def sorted_stream(jobs: Iterable["Job"]) -> tuple[list["Job"], list[float], bool]:
    """Sort a job stream by ``(submit_time, job_id)`` via ``np.lexsort``.

    Returns ``(stream, submit_times, ids_unique)``: the sorted job list,
    the matching submission instants as plain Python floats (the merged
    feed compares them against heap event times), and whether the ids were
    unique — ``False`` sends the caller to the scalar
    :func:`~repro.core.job.validate_stream` for the canonical error.

    The permutation equals the oracle's ``sorted(key=(submit_time,
    job_id))`` because unique ids make the key total; with duplicate ids
    the caller raises before the order could matter.
    """
    np = _numpy()
    jobs = list(jobs)
    n = len(jobs)
    if n == 0:
        return [], [], True
    submit = np.fromiter((job.submit_time for job in jobs), dtype=np.float64, count=n)
    ids = np.fromiter((job.job_id for job in jobs), dtype=np.int64, count=n)
    order = np.lexsort((ids, submit))
    stream = [jobs[i] for i in order]
    times = submit[order].tolist()
    # Not np.unique: numpy 2.x routes it through numpy.ma, a ~35 ms import
    # every freshly forked worker would pay on its first cell.
    ranked = np.sort(ids)
    unique = not bool((ranked[1:] == ranked[:-1]).any())
    return stream, times, unique


_SUBMISSION = EventKind.SUBMISSION
_CANCELLATION = EventKind.CANCELLATION
_INF = float("inf")


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
    the oracle's ``(time, kind, sequence)`` key.  The oracle pushes the
    three sources one after the other, and no two of them share an event
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
    as :class:`~repro.core.events.EventQueue`, but nothing known before
    the run — original submissions, cancellations, node failures and
    repairs (:func:`static_timeline`) — ever enters the heap: a cursor
    walks the sorted timeline.  In the oracle's all-heap order every
    static event was pushed before the run and so holds a sequence below
    every event pushed during it; the merge comparison therefore reduces
    to: a static event ``(t, kind)`` precedes the heap head ``(t', kind')``
    iff ``(t, kind) <= (t', kind')`` — exactly the ``(time, kind,
    sequence)`` total order of the oracle's heap.
    """

    __slots__ = (
        "_events", "_times", "_kinds", "_payloads", "_idx", "_n", "_barriers",
        "_passed",
    )  # fmt: skip

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
        #: Instants of the static non-arrival events, in timeline order and
        #: closed by ``inf``; ``_passed`` counts the ones already popped, so
        #: ``_barriers[_passed]`` is the next one — what bounds the arrival
        #: run extractors exactly as the heap head does.
        self._barriers = [
            t for t, kind in zip(times, kinds) if kind is not _SUBMISSION
        ] + [_INF]
        self._passed = 0

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
                if kind is not _SUBMISSION:
                    self._passed += 1
                return kind, self._payloads[idx]
        _time, kind, _sequence, payload = heappop(heap)
        return kind, payload

    # -- run extraction (the simulator's event-coalescing fast paths) ----------

    #: Shared empty-run result: failed extraction probes happen once per
    #: uncoalesced decision, so returning a constant keeps them allocation-free.
    _EMPTY_RUN: "tuple[list, list, int]" = ([], [], 0)

    @property
    def static_exhausted(self) -> bool:
        """True once the whole static timeline has been consumed — from then
        on the feed is exactly the heap."""
        return self._idx >= self._n

    def next_static_time(self) -> float:
        """Instant of the next pending static event of any kind (``inf``
        once the timeline is spent)."""
        return self._times[self._idx] if self._idx < self._n else _INF

    def _arrival_bound(self) -> float:
        """Instant no arrival run may reach: the earlier of the heap head
        and the next static non-arrival event."""
        heap = self._events._heap
        barrier = self._barriers[self._passed]
        if heap and heap[0].time < barrier:
            return heap[0].time
        return barrier

    def take_blocked_arrivals(
        self, free_nodes: int
    ) -> tuple[list["Job"], list[float], int]:
        """Consume the maximal run of arrivals that cannot possibly start.

        A pending original arrival belongs to the run when it occurs
        strictly before the earliest other event — heap head or static
        cancellation / node event — (so nothing else happens in between,
        in particular no completion frees nodes) *and* requests more than
        ``free_nodes`` nodes (so it can neither start nor, free nodes
        being unchanged throughout the run, enable any other queued job
        under a discipline guaranteeing
        :attr:`~repro.core.scheduler.CoalescingCaps.blocked_arrivals`).

        Returns ``(jobs, times, closed_instants)``.  ``closed_instants``
        counts the distinct instants the run closes; when the run stops at
        a same-instant arrival that *does* fit, that last instant stays
        open — the per-event loop finishes its batch and owns its decision
        point.
        """
        bound = self._arrival_bound()
        times = self._times
        jobs = self._payloads
        i = self._idx
        n = self._n
        start = i
        closed = 0
        last: float | None = None
        # Every static entry before ``bound`` is an arrival: the first
        # non-arrival sits at the barrier instant or later.
        while i < n:
            t = times[i]
            if t >= bound:
                break
            if jobs[i].nodes <= free_nodes:
                if t == last:
                    closed -= 1
                break
            if t != last:
                closed += 1
                last = t
            i += 1
        if i == start:
            return self._EMPTY_RUN
        self._idx = i
        return jobs[start:i], times[start:i], closed

    def take_idle_starts(self, free_nodes: int) -> tuple[list["Job"], list[float], int]:
        """Consume the maximal run of arrival instants that start instantly.

        With an empty wait queue and a scheduler guaranteeing
        :attr:`~repro.core.scheduler.CoalescingCaps.idle_starts`, a batch
        of arrivals that jointly fits the free nodes starts immediately and
        leaves the queue empty again.  This consumes whole instants only
        (never part of a batch), each strictly before the earliest other
        event (heap head or static non-arrival), while the cumulative node
        demand fits ``free_nodes``.  Returns ``(jobs, times, instants)`` —
        all consumed instants are closed by construction.
        """
        bound = self._arrival_bound()
        times = self._times
        jobs = self._payloads
        i = self._idx
        n = self._n
        start = i
        free = free_nodes
        instants = 0
        while i < n:
            t = times[i]
            if t >= bound:
                break
            j = i
            need = 0
            while j < n and times[j] == t:
                need += jobs[j].nodes
                if need > free:
                    break
                j += 1
            if j < n and times[j] == t:
                break  # instant does not jointly fit: leave it whole
            free -= need
            i = j
            instants += 1
            if free == 0:
                break
        self._idx = i
        return jobs[start:i], times[start:i], instants


# -- columnar result buffers and exact metric kernels --------------------------


class ResultColumns:
    """Schedule records as parallel numeric columns, in completion order.

    The numpy backend appends one row per finished record exactly where
    the oracle appends its :class:`~repro.core.schedule.ScheduledJob`, so
    row ``i`` of the columns and item ``i`` of the schedule describe the
    same record — which is what makes the column reductions below equal
    the scalar objective loops term for term.  ``area`` stores
    ``job.area`` (``nodes * runtime``) computed in Python at append time,
    the default AWRT weight.
    """

    __slots__ = ("submit", "start", "end", "area")

    def __init__(self) -> None:
        self.submit = array("d")
        self.start = array("d")
        self.end = array("d")
        self.area = array("d")

    def __len__(self) -> int:
        return len(self.end)

    def append(self, item: "ScheduledJob") -> None:
        job = item.job
        self.submit.append(job.submit_time)
        self.start.append(item.start_time)
        self.end.append(item.end_time)
        self.area.append(job.area)

    def extend(self, items: Sequence["ScheduledJob"]) -> None:
        """Append a run of records (the completion-drain fast path)."""
        submit = self.submit.append
        start = self.start.append
        end = self.end.append
        area = self.area.append
        for item in items:
            job = item.job
            submit(job.submit_time)
            start(item.start_time)
            end(item.end_time)
            area(job.area)

    @classmethod
    def from_schedule(cls, schedule: "Schedule | Iterable[ScheduledJob]") -> "ResultColumns":
        """Columns of an already-built schedule (analysis over the oracle)."""
        cols = cls()
        for item in schedule:
            cols.append(item)
        return cols

    def views(self) -> dict[str, Any]:
        """Zero-copy ``float64`` views of the columns (requires numpy)."""
        np = _numpy()
        return {
            name: np.frombuffer(getattr(self, name), dtype=np.float64)
            for name in self.__slots__
        }


def exact_sum(values: Any) -> float:
    """Left-to-right IEEE sum of a float64 array — Python ``sum()`` bits.

    Implemented as the last element of ``np.add.accumulate``, which is a
    strictly sequential reduction; ``np.sum``'s pairwise re-association
    would differ in the final ulps and is banned from every objective.
    """
    np = _numpy()
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return 0.0
    return float(np.add.accumulate(values)[-1])


def average_response_time_columns(columns: ResultColumns) -> float:
    """ART over columns; equals ``objectives.average_response_time`` exactly."""
    n = len(columns)
    if n == 0:
        return 0.0
    np = _numpy()
    end = np.frombuffer(columns.end, dtype=np.float64)
    submit = np.frombuffer(columns.submit, dtype=np.float64)
    return exact_sum(end - submit) / n


def average_weighted_response_time_columns(columns: ResultColumns) -> float:
    """AWRT (area weights) over columns; equals the scalar loop exactly."""
    n = len(columns)
    if n == 0:
        return 0.0
    np = _numpy()
    end = np.frombuffer(columns.end, dtype=np.float64)
    submit = np.frombuffer(columns.submit, dtype=np.float64)
    area = np.frombuffer(columns.area, dtype=np.float64)
    return exact_sum((end - submit) * area) / n
