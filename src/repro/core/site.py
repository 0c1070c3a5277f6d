"""One site of a run: a machine, what runs on it, and the commits that change it.

A start, a finish and a kill change four things that must never disagree:
the :class:`Machine` partitions, the ``running`` table schedulers read, the
incremental :class:`~repro.core.state.SchedulingState` behind
``ctx.profile`` and the finished records.  :class:`SiteRun` owns those four
and is the only code that commits to them.  Each site belongs to one
:class:`~repro.core.simulator.SimulationRun` — what the simulator, the
closed-loop users and every metasystem site drive — and the run owns the
clock, the events and the scheduler calls.  So the site never pushes an
event — ``start`` returns the record whose ``end_time`` the run schedules,
``finish`` says whether the completion was live, ``kill`` returns the
partial record for the run to file — and every operation assumes the run
has already moved the clock (``site.ctx.now = now``) to the instant it
commits at.
"""

from __future__ import annotations

from repro.core.job import Job
from repro.core.machine import Machine
from repro.core.schedule import ScheduledJob
from repro.core.scheduler import RunningJob, SchedulerContext
from repro.core.state import SchedulingState, verify_every_from_env


class SiteRun:
    """Machine + running table + scheduling state + finished records.

    ``machine`` is reset here (a site starts empty).  ``incremental_state``
    and ``verify_state`` mean what the
    :class:`~repro.core.simulator.SimulationConfig` fields of those names
    mean: no state means ``ctx.profile`` rebuilds per decision, and
    ``verify_state=None`` reads ``REPRO_VERIFY_STATE``.  ``vectorize`` says
    the loop runs the fast backend: the backfilling disciplines run the
    compiled queue walks.  ``cancel_over_limit`` kills a job at its
    estimate when its runtime exceeds it.
    """

    __slots__ = (
        "machine", "running", "state", "outages", "ctx", "completed",
        "cancel_over_limit",
    )  # fmt: skip

    def __init__(
        self,
        machine: Machine,
        *,
        incremental_state: bool = True,
        verify_state: int | None = None,
        vectorize: bool = False,
        cancel_over_limit: bool = False,
    ) -> None:
        machine.reset()
        self.machine = machine
        self.running: dict[int, RunningJob] = {}
        if verify_state is None:
            verify_state = verify_every_from_env()
        self.state = (
            SchedulingState(machine.total_nodes, verify_every=verify_state)
            if incremental_state
            else None
        )
        #: Active node outages as ``(repair_time, nodes)``; the context's
        #: rebuild fallback reserves them.
        self.outages: list[tuple[float, int]] = []
        self.ctx = SchedulerContext(
            machine, self.running, state=self.state, capacity_outages=self.outages
        )
        self.ctx.vectorize = vectorize
        #: Finished records, in completion order.
        self.completed: list[ScheduledJob] = []
        self.cancel_over_limit = cancel_over_limit

    # -- start -------------------------------------------------------------

    def _admit(self, job: Job, now: float) -> ScheduledJob:
        """Allocate ``job`` at ``now`` and project its record."""
        over = (
            self.cancel_over_limit
            and job.estimate is not None
            and job.runtime > job.estimate
        )
        self.machine.allocate(job)  # raises if the scheduler overcommitted
        self.running[job.job_id] = RunningJob(job=job, start_time=now)
        return ScheduledJob(
            job=job,
            start_time=now,
            end_time=now + (job.estimate if over else job.runtime),
            cancelled=over,
        )

    def start(self, job: Job, now: float) -> ScheduledJob:
        """Start a queued job; the caller schedules ``item.end_time``."""
        item = self._admit(job, now)
        state = self.state
        if state is not None:
            state.note_dequeued(job.nodes)
            state.on_start(job.job_id, job.estimated_runtime, job.nodes)
        return item

    # -- finish ------------------------------------------------------------

    def _live(self, item: ScheduledJob) -> bool:
        """Is ``item`` the attempt running under its id?

        Rerun attempts reuse the job id, so membership alone is not enough
        — the start time identifies the attempt (attempt starts strictly
        increase); a killed attempt's completion event is stale.
        """
        entry = self.running.get(item.job.job_id)
        return entry is not None and entry.start_time == item.start_time

    def _vacate(self, job_id: int) -> RunningJob:
        """Release the partition of the job running under ``job_id``."""
        entry = self.running.pop(job_id)
        self.machine.release(job_id)
        if self.state is not None:
            self.state.on_release(job_id)
        return entry

    def record(self, item: ScheduledJob) -> None:
        """File a finished record."""
        self.completed.append(item)

    def finish(self, item: ScheduledJob) -> bool:
        """Commit a completion; ``False`` (nothing changed) when stale."""
        if not self._live(item):
            return False
        self._vacate(item.job.job_id)
        self.record(item)
        return True

    def kill(self, job_id: int, now: float) -> ScheduledJob:
        """Stop a running job at ``now``; returns its partial record.

        The record (``cancelled=True``, ``end_time=now``) is *not* filed:
        a user cancellation or an abandoned failure victim makes it the
        job's final record (:meth:`record`), a recovered victim's goes to
        the run's interrupted attempts instead.
        """
        entry = self._vacate(job_id)
        return ScheduledJob(
            job=entry.job, start_time=entry.start_time, end_time=now, cancelled=True
        )

    # -- capacity ------------------------------------------------------------

    def capacity_down(self, until: float, nodes: int) -> None:
        """``nodes`` free nodes fail now, repair expected at ``until``."""
        self.machine.fail_nodes(nodes, self.ctx.now)
        if self.state is not None:
            self.state.on_capacity_down(until, nodes)
        self.outages.append((until, nodes))

    def capacity_up(self, until: float, nodes: int) -> None:
        """The outage reserved until ``until`` is repaired."""
        self.machine.repair_nodes(nodes, self.ctx.now)
        if self.state is not None:
            self.state.on_capacity_up(until, nodes)
        self.outages.remove((until, nodes))
