"""The on-line scheduler interface driven by the simulator.

Section 2 of the paper: the scheduling system "receives a stream of job
submission data and produces a valid schedule" and "may not be aware of any
data arriving in the future".  The :class:`Scheduler` interface encodes that
contract: the simulator notifies the scheduler of submissions and
completions as they happen, and after each batch of simultaneous events asks
it which queued jobs to start *now*.

Schedulers may inspect

* the machine state (free nodes),
* the currently running jobs with their *projected* completions
  (start + user estimate — never the actual runtime), and
* their own wait queue.

They may not look at actual runtimes of unfinished jobs or at future
arrivals; the simulator hands them only the information an on-line system
would have.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping

__all__ = [
    "RunningJob",
    "Scheduler",
    "SchedulerContext",
]

from repro.core.job import Job
from repro.core.machine import Machine
from repro.core.profile import AvailabilityProfile

if TYPE_CHECKING:  # pragma: no cover - typing-only (state imports profile)
    from repro.core.state import SchedulingState


@dataclass(frozen=True, slots=True)
class RunningJob:
    """A job currently holding a partition."""

    job: Job
    start_time: float

    @property
    def projected_end(self) -> float:
        """Completion as the scheduler may project it (start + estimate)."""
        return self.start_time + self.job.estimated_runtime


class SchedulerContext:
    """Read-only view of the system state handed to schedulers.

    Wraps the machine, the running-job table and (when the driving loop
    maintains one) the incremental :class:`~repro.core.state.SchedulingState`;
    exposes the current simulated time.  A fresh context is not built per
    event — the simulator keeps one and updates ``now``, which also
    advances the state's persistent profile to the new instant.
    """

    __slots__ = (
        "machine",
        "_running",
        "_now",
        "state",
        "_capacity_outages",
        "vectorize",
    )

    def __init__(
        self,
        machine: Machine,
        running: dict[int, RunningJob],
        state: "SchedulingState | None" = None,
        capacity_outages: "list[tuple[float, int]] | None" = None,
    ) -> None:
        self.machine = machine
        self._running = running
        self.state = state
        #: Active node outages as ``(repair_time, nodes)`` pairs, maintained
        #: by the simulator; the profile fallback (no incremental state)
        #: reserves them so both paths plan on the same degraded machine.
        self._capacity_outages = capacity_outages if capacity_outages is not None else []
        #: True when the driving loop runs the numpy backend: schedulers may
        #: then use vectorised kernels internally.  Off by default so the
        #: python backend remains a numpy-free oracle (decisions are
        #: bit-identical either way — the vector-equivalence contract).
        self.vectorize: bool = False
        self._now: float = state.now if state is not None else 0.0

    @property
    def now(self) -> float:
        return self._now

    @now.setter
    def now(self, value: float) -> None:
        self._now = value
        if self.state is not None:
            self.state.advance(value)

    @property
    def running(self) -> Mapping[int, RunningJob]:
        """Currently running jobs, keyed by job id (read-only)."""
        return MappingProxyType(self._running)

    @property
    def free_nodes(self) -> int:
        return self.machine.free_nodes

    @property
    def total_nodes(self) -> int:
        return self.machine.total_nodes

    def projected_releases(self) -> list[tuple[float, int]]:
        """``(projected_end, nodes)`` for every running job.

        This is the raw material for an availability profile; the order is
        unspecified (end-sorted when an incremental state maintains it).
        """
        if self.state is not None:
            return self.state.projected_releases()
        return [(r.projected_end, r.job.nodes) for r in self._running.values()]

    @property
    def profile(self) -> AvailabilityProfile:
        """The availability profile as of ``now`` — a private, mutable copy.

        With an incremental state this is a snapshot of the persistent
        profile (one copy of its segment lists, O(segments), no sort and
        no rebuild); without one it falls back to a full ``from_running``
        rebuild.  Either way the
        returned step function is identical, disciplines may freely
        ``reserve`` into it, and every access yields an independent copy.
        """
        if self.state is not None:
            return self.state.snapshot()
        profile = AvailabilityProfile.from_running(
            self.machine.total_nodes, self._now, self.projected_releases()
        )
        for until, nodes in self._capacity_outages:
            if until > self._now:
                profile.reserve_until(self._now, until, nodes)
        return profile

    def queue_min_nodes(self, expected_count: int) -> int | None:
        """Narrowest job in the tracked wait queue, when that is knowable.

        ``expected_count`` is the length of the queue the caller is about
        to scan; the incremental stat is returned only when it describes
        exactly that many jobs (wrappers that filter the queue, or
        schedulers the simulator cannot track, make it refuse).  ``None``
        means "scan it yourself".
        """
        if self.state is None or expected_count <= 0:
            return None
        return self.state.queue_min_nodes(expected_count)


class Scheduler(abc.ABC):
    """Base class for on-line schedulers.

    Subclasses must manage their own wait queue (``on_submit`` /
    ``on_complete`` bookkeeping) and implement :meth:`select_jobs`.
    """

    #: Human-readable name used by the experiment harness and registries.
    name: str = "scheduler"

    #: Whether the algorithm reads user runtime estimates.  Purely
    #: informational (used by reports); enforcement is by code review —
    #: estimate-free algorithms simply never touch ``estimated_runtime``.
    uses_estimates: bool = True

    def reset(self) -> None:
        """Clear internal state before a fresh simulation run."""

    @abc.abstractmethod
    def on_submit(self, job: Job, ctx: SchedulerContext) -> None:
        """A new job arrived; enqueue it."""

    def on_complete(self, job: Job, ctx: SchedulerContext) -> None:
        """A running job finished (its nodes are already released)."""

    def on_cancel(self, job: Job, ctx: SchedulerContext) -> None:
        """A *queued* job was cancelled by its user; drop it from the queue.

        Cancellation of running jobs is handled by the simulator (the job
        is killed and reported through ``on_complete``); schedulers only
        see queue withdrawals here.  The default raises — schedulers must
        opt in, because silently ignoring a cancellation would leave a
        ghost job in the queue.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support queued-job cancellation"
        )

    @abc.abstractmethod
    def select_jobs(self, ctx: SchedulerContext) -> list[Job]:
        """Return queued jobs to start *now*, in start order.

        The returned jobs must jointly fit the free nodes; the simulator
        validates and allocates them in order.  Returning an empty list
        means "wait for the next event".  Selected jobs must be removed
        from the scheduler's own queue before returning.
        """

    def next_wakeup(self, ctx: SchedulerContext) -> float | None:
        """Optional timer request, polled after each decision point.

        Return a future instant at which the simulator should create a
        decision point even if no job event occurs then — e.g. the end of
        a reservation window after which queued jobs may start.  ``None``
        (the default) requests nothing.
        """
        return None

    @property
    def pending_count(self) -> int:
        """Number of jobs in the wait queue (for diagnostics)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"
