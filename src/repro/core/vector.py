"""NumPy-vectorised kernels behind the simulator's ``backend="numpy"`` path.

The pure-Python simulator is the **oracle**: every kernel in this module is
required to reproduce its results *bit for bit*, so that switching backends
can never change a schedule, an objective, or a cache fingerprint (the
backend is deliberately absent from
:func:`repro.experiments.engine.cell_fingerprint`).  The fast path earns its
keep on two hot loops:

* **event-queue advance** — instead of heap-pushing one
  :class:`~repro.core.events.Event` per submission (N dataclass
  constructions plus N × O(log N) comparison-driven sifts), the arrival
  stream is sorted once with ``np.lexsort`` and merged against the residual
  event heap by :class:`MergedEventFeed`.  Arrivals occupy the virtual
  sequence numbers ``0..N-1`` below the heap's counter
  (``EventQueue(start_sequence=N)``), so the merged order equals the heap
  order of the oracle exactly — including rerun submissions and
  cancellations racing original arrivals at the same instant;
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
    unique = int(np.unique(ids).size) == n
    return stream, times, unique


_SUBMISSION = EventKind.SUBMISSION


class MergedEventFeed:
    """Merge a pre-sorted arrival array with the residual event heap.

    Presents the same ``peek_time`` / ``pop_next`` / truthiness interface
    as :class:`~repro.core.events.EventQueue`, but the N original
    submissions never enter the heap: they are consumed from the sorted
    arrays by a cursor.  Arrivals carry the virtual sequence numbers
    ``0..N-1`` — strictly below every sequence the queue (constructed with
    ``start_sequence=N``) will ever hand out — so the merge comparison
    reduces to: at equal times, an arrival precedes every heap event whose
    kind is ``SUBMISSION`` or later, and follows completions and node
    events, exactly the ``(time, kind, sequence)`` total order of the
    oracle's heap.
    """

    __slots__ = ("_events", "_jobs", "_times", "_idx", "_n")

    def __init__(
        self, events: EventQueue, jobs: Sequence["Job"], times: Sequence[float]
    ) -> None:
        if len(jobs) != len(times):
            raise ValueError("arrival jobs and times disagree on length")
        self._events = events
        self._jobs = jobs
        self._times = times
        self._idx = 0
        self._n = len(jobs)

    def __bool__(self) -> bool:
        return self._idx < self._n or bool(self._events._heap)

    def __len__(self) -> int:
        return (self._n - self._idx) + len(self._events._heap)

    def peek_time(self) -> float:
        """Earliest pending instant across both sources."""
        heap = self._events._heap
        if self._idx >= self._n:
            return heap[0].time
        arrival = self._times[self._idx]
        if not heap:
            return arrival
        event = heap[0].time
        return arrival if arrival <= event else event

    def pop_next(self) -> tuple[EventKind, Any]:
        """Remove and return the earliest ``(kind, payload)`` pair."""
        heap = self._events._heap
        idx = self._idx
        if idx < self._n:
            if not heap:
                self._idx = idx + 1
                return _SUBMISSION, self._jobs[idx]
            arrival = self._times[idx]
            head = heap[0]
            if arrival < head.time or (
                arrival == head.time and head.kind >= _SUBMISSION
            ):
                self._idx = idx + 1
                return _SUBMISSION, self._jobs[idx]
        event = heappop(heap)
        return event.kind, event.payload

    # -- run extraction (the simulator's event-coalescing fast paths) ----------

    #: Shared empty-run result: failed extraction probes happen once per
    #: uncoalesced decision, so returning a constant keeps them allocation-free.
    _EMPTY_RUN: "tuple[list, list, int]" = ([], [], 0)

    @property
    def arrivals_exhausted(self) -> bool:
        """True once every original arrival has been consumed — from then on
        the feed is exactly the residual heap."""
        return self._idx >= self._n

    def next_arrival_time(self) -> float | None:
        """Instant of the next pending *original* arrival (``None`` if spent)."""
        return self._times[self._idx] if self._idx < self._n else None

    def take_blocked_arrivals(
        self, free_nodes: int
    ) -> tuple[list["Job"], list[float], int]:
        """Consume the maximal run of arrivals that cannot possibly start.

        A pending original arrival belongs to the run when it occurs
        strictly before the earliest heap event (so nothing else happens in
        between — in particular no completion frees nodes) *and* requests
        more than ``free_nodes`` nodes (so it can neither start nor, free
        nodes being unchanged throughout the run, enable any other queued
        job under a discipline guaranteeing
        :attr:`~repro.core.scheduler.CoalescingCaps.blocked_arrivals`).

        Returns ``(jobs, times, closed_instants)``.  ``closed_instants``
        counts the distinct instants the run closes; when the run stops at
        a same-instant arrival that *does* fit, that last instant stays
        open — the per-event loop finishes its batch and owns its decision
        point.
        """
        heap = self._events._heap
        bound = heap[0].time if heap else None
        times = self._times
        jobs = self._jobs
        i = self._idx
        n = self._n
        start = i
        closed = 0
        last: float | None = None
        while i < n:
            t = times[i]
            if bound is not None and t >= bound:
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
        (never part of a batch), each strictly before the earliest heap
        event, while the cumulative node demand fits ``free_nodes``.
        Returns ``(jobs, times, instants)`` — all consumed instants are
        closed by construction.
        """
        heap = self._events._heap
        bound = heap[0].time if heap else None
        times = self._times
        jobs = self._jobs
        i = self._idx
        n = self._n
        start = i
        free = free_nodes
        instants = 0
        while i < n:
            t = times[i]
            if bound is not None and t >= bound:
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
