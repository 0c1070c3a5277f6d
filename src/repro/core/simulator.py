"""The discrete-event simulator driving an on-line scheduler.

Section 2's scheduling system is one on-line loop: submissions and
completions arrive, and after every batch of simultaneous events the
scheduler is asked which queued jobs to start *now*.  Two pieces:

**The site** (:class:`repro.core.site.SiteRun`) owns the machine, the
running table, the incremental :class:`~repro.core.state.SchedulingState`
and the finished records, and is the only code that commits a start, a
finish or a kill to them.  The closed-loop workload driver and the
metasystem drive the same object.

**The run** (:class:`_Run`) is the mutable state of one
:meth:`Simulator.run` — event queue, reruns, kill times, failure and
cancellation tallies — and its methods are the event handlers.
:meth:`Simulator.run` is set-up, then "next instant → each event through
``EventKind → handler`` → one decision".  Completions are applied before
submissions at equal times (see :mod:`repro.core.events`), so a newly
submitted job sees every node freed at its arrival instant, as in a real
batch system whose resource manager processes its event queue in order.
Both backends run this one loop on one event path — the static timeline
and heap of :mod:`repro.core.events` — and report the same schedule; the
backend picks only which queue walk runs (the compiled walks behind
``ctx.vectorize`` or the Python walks, see :mod:`repro.core.vector`).

Jobs whose actual runtime exceeds the user limit can optionally be cancelled
at the limit (``cancel_over_limit=True``), matching policy rule 2 of
Example 5 ("If the execution of a job exceeds this upper limit, the job may
be cancelled").  The paper's evaluation does not exercise cancellation (the
CTC trace records realised runtimes), so the default is off.

Node failures (Section 2's "sudden failure of a hardware component") enter
the loop as ``NODE_DOWN``/``NODE_UP`` events from a
:class:`~repro.failures.trace.FailureTrace`.  A failure first consumes free
nodes; when those do not cover it, the simulator kills running jobs —
youngest first, so the least work is destroyed — and hands each casualty to
the run's :class:`~repro.failures.recovery.RecoveryPolicy`, which either
abandons it (the partial execution becomes a cancelled record) or requeues
a rerun.  The outage itself becomes a finite capacity reservation in the
scheduling state (the repair ETA is known the moment the node goes down),
so backfilling disciplines plan around it like any other commitment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.core.events import EventKind, EventQueue, MergedEventFeed, static_timeline
from repro.core.job import Job, validate_stream
from repro.core.machine import Machine
from repro.core.schedule import Schedule, ScheduledJob
from repro.core.scheduler import RunningJob, Scheduler
from repro.core.site import SiteRun
from repro.core.vector import resolve_backend

if TYPE_CHECKING:  # pragma: no cover - typing only (failures imports core)
    from repro.failures.recovery import RecoveryPolicy
    from repro.failures.trace import FailureTrace, NodeFailure

_COMPLETION = EventKind.COMPLETION


@dataclass(frozen=True, slots=True)
class Cancellation:
    """A user withdrawing a job at ``time`` (failure-injection input).

    A queued job disappears from the wait queue; a running job is killed
    (its partial execution appears in the schedule with ``cancelled=True``).
    Cancellations of already-completed jobs are ignored — the realistic
    race of a user cancelling just as the job finishes.
    """

    time: float
    job_id: int

    def __post_init__(self) -> None:
        # A NaN time never equals the loop's clock, so its batch would
        # never close; an infinite one would end the run at infinity.
        if not math.isfinite(self.time):
            raise ValueError(
                f"cancellation of job {self.job_id}: time must be finite, got {self.time}"
            )


@dataclass(frozen=True, slots=True)
class SimulationConfig:
    """How a :class:`Simulator` runs — everything that is not an input.

    One picklable bundle.  The fields change *how* a result is computed,
    never *what* it is: every backend/state combination is bit-identical
    (the equivalence suites' contract), which is why none of them enters a
    cache fingerprint.

    """

    #: Which queue walks run: ``"python"`` (the scalar Python walks, the
    #: reference), ``"numpy"`` (the compiled walks of
    #: :mod:`repro.core.native`), ``"auto"`` (``"numpy"``) or ``None``
    #: (consult ``REPRO_BACKEND``, then auto).  Resolved once per
    #: :class:`Simulator`; both backends are bit-identical
    #: (``tests/test_vector_equivalence.py``).
    backend: str | None = None
    #: Kill jobs at their estimate when the actual runtime exceeds it
    #: (recorded ``cancelled=True``).
    cancel_over_limit: bool = False
    #: Record queue length and free nodes at every decision point (for the
    #: analysis plots); adds memory overhead.
    collect_trace: bool = False
    #: Maintain a :class:`~repro.core.state.SchedulingState` across events;
    #: ``False`` selects the reference rebuild-per-decision path — same
    #: schedules, bit for bit (the equivalence oracle).
    incremental_state: bool = True
    #: Cross-check the incremental state against a fresh rebuild every N-th
    #: snapshot (0 disables; ``None`` reads ``REPRO_VERIFY_STATE``).
    verify_state: int | None = None
    #: Collect the fine-grained per-phase wall-clock breakdown
    #: (``SimulationResult.phase_seconds`` gains ``events``/``commit``/
    #: ``other`` entries).  Off by default: the extra clock reads would tax
    #: the hot loop the breakdown exists to explain.
    profile_phases: bool = False


@dataclass(frozen=True, slots=True)
class ScenarioInputs:
    """Fault-injection inputs of one run, bundled.

    ``cancellations`` (user withdrawals), ``failures`` (a
    :class:`~repro.failures.trace.FailureTrace`) and ``recovery`` (policy
    object or spec string) in one object that can be built once and reused
    across runs, regimes and backends.
    """

    cancellations: Sequence[Cancellation] = ()
    failures: "FailureTrace | None" = None
    recovery: "RecoveryPolicy | str | None" = None


@dataclass(slots=True)
class SimulationResult:
    """Outcome of one simulation run."""

    schedule: Schedule
    #: Number of decision points at which the scheduler was invoked.
    decision_points: int
    #: Peak length of the scheduler's wait queue observed at decision points.
    max_queue_length: int
    #: Final simulated time (== schedule makespan unless the stream was empty).
    end_time: float
    #: Ids of jobs cancelled while still queued (they never ran and do not
    #: appear in the schedule).
    cancelled_queued: tuple[int, ...] = ()
    #: Ids of jobs killed while running (partial execution in the schedule).
    killed_running: tuple[int, ...] = ()
    #: Wall-clock seconds spent inside ``select_jobs`` across all decision
    #: points — the per-decision cost of the scheduling algorithm proper.
    decision_time: float = 0.0
    #: Deltas applied to / snapshots taken from the incremental scheduling
    #: state (both 0 when the rebuild fallback ran).
    profile_deltas: int = 0
    profile_snapshots: int = 0
    #: Ids of jobs killed by node failures, in kill order.  A job recovered
    #: and killed again appears once per kill; abandoned kills also appear
    #: in the schedule as cancelled records.
    failure_killed: tuple[int, ...] = ()
    #: Partial attempts of jobs that were killed by a failure and later
    #: recovered (resubmitted / restarted).  These records are *not* part of
    #: ``schedule`` — there the job appears once, with its final attempt —
    #: but they occupy the machine and count towards capacity validation.
    interrupted: tuple[ScheduledJob, ...] = ()
    #: Node-seconds of capacity removed by the failure trace (down × nodes).
    lost_node_seconds: float = 0.0
    #: Node-seconds of job execution destroyed by failures: work done in
    #: killed attempts that no checkpoint preserved, plus restart overheads.
    wasted_node_seconds: float = 0.0
    #: Total seconds failure-killed jobs spent between the kill and the
    #: start of their recovery attempt (0 for abandoned jobs).
    requeue_delay: float = 0.0
    #: Wall-clock seconds by simulator phase.  Always carries ``total``
    #: (whole run) and ``decide`` (== ``decision_time``); with
    #: ``SimulationConfig.profile_phases`` it adds ``events`` (per-event
    #: dispatch), ``commit`` (start/timer/stats bookkeeping after each
    #: decision) and ``other`` (the remainder).  Excluded from equality —
    #: timings never affect results.
    phase_seconds: dict = field(default_factory=dict, compare=False, repr=False)
    #: Always empty: kept only for the benchmark harness, which reads it.
    coalesced: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def job_count(self) -> int:
        return len(self.schedule)

    @property
    def interrupted_jobs(self) -> int:
        """Distinct jobs that lost at least one attempt to a node failure."""
        return len(set(self.failure_killed))

    @classmethod
    def empty(cls) -> "SimulationResult":
        """The result of scheduling nothing (degenerate partition buckets).

        :meth:`Simulator.run` refuses empty workloads; callers that slice a
        stream and may produce empty slices build this record instead.
        """
        return cls(
            schedule=Schedule(()),
            decision_points=0,
            max_queue_length=0,
            end_time=0.0,
        )


@dataclass(slots=True)
class _Trace:
    """Optional per-run instrumentation collected by the simulator."""

    queue_lengths: list[tuple[float, int]] = field(default_factory=list)
    free_nodes: list[tuple[float, int]] = field(default_factory=list)


class _Run:
    """The mutable state of one :meth:`Simulator.run`.

    Its methods are the event handlers (:meth:`handlers` maps each
    :class:`EventKind` to one), the failure kill and the decision point.
    Handlers take the event payload and act at ``ctx.now``; every
    machine/state commit goes through ``self.site``.
    """

    __slots__ = (
        "scheduler", "site", "ctx", "state", "trace", "events", "feed", "by_id",
        "failures", "policy", "pending_timers", "reruns", "finished_ids",
        "cancelled_queued", "killed_running", "failure_killed", "interrupted",
        "recovery_state", "killed_at", "resubmit_pending", "resubmit_cancelled",
        "wasted_node_seconds", "requeue_delay", "decision_points",
        "decision_time", "max_queue", "timed", "phase_seconds", "clock_start",
        "_mark",
    )  # fmt: skip

    def __init__(
        self,
        sim: "Simulator",
        stream: Sequence[Job],
        inputs: ScenarioInputs,
        cancel_over_limit: bool,
    ) -> None:
        self.by_id = by_id = {job.job_id: job for job in stream}
        for cancel in inputs.cancellations:
            if cancel.job_id not in by_id:
                raise ValueError(f"cancellation references unknown job {cancel.job_id}")
            if cancel.time < by_id[cancel.job_id].submit_time:
                raise ValueError(
                    f"job {cancel.job_id} cancelled at {cancel.time} before its "
                    f"submission at {by_id[cancel.job_id].submit_time}"
                )
        self.failures = inputs.failures or None
        self.policy: "RecoveryPolicy | None" = None
        if self.failures is not None:
            from repro.failures.recovery import recovery_from_spec

            self.failures.validate_for(sim.machine.total_nodes)
            self.policy = recovery_from_spec(
                "resubmit" if inputs.recovery is None else inputs.recovery
            )

        config = sim.config
        self.site = SiteRun(
            sim.machine,
            incremental_state=config.incremental_state,
            verify_state=config.verify_state,
            vectorize=sim.backend == "numpy",
            cancel_over_limit=cancel_over_limit,
        )
        self.ctx = self.site.ctx
        self.state = self.site.state
        self.scheduler = scheduler = sim.scheduler
        scheduler.reset()
        self.trace = sim.trace

        # Events split by when they become known: everything known before
        # the run — arrivals, cancellations, both halves of every failure —
        # is one static timeline sorted once and walked by the feed's
        # cursor; the heap holds only what the run creates (completions,
        # rerun submissions, timers).
        self.events = events = EventQueue()
        self.feed = MergedEventFeed(
            events,
            *static_timeline(
                stream,
                [job.submit_time for job in stream],
                inputs.cancellations,
                self.failures,
            ),
        )

        self.pending_timers: set[float] = set()
        #: Latest rerun attempt of each recovered job (``by_id`` keeps the
        #: original submissions, which is what recovery policies reason
        #: about).
        self.reruns: dict[int, Job] = {}
        #: Jobs that left the system for good (completed, killed by their
        #: user, abandoned after a failure): cancelling them is a no-op.
        self.finished_ids: set[int] = set()
        self.cancelled_queued: list[int] = []
        self.killed_running: list[int] = []
        self.failure_killed: list[int] = []
        self.interrupted: list[ScheduledJob] = []
        #: job_id -> (runtime seconds safely checkpointed, restart overhead
        #: baked into the current attempt's runtime) — the recovery policy's
        #: cross-attempt memory.
        self.recovery_state: dict[int, tuple[float, float]] = {}
        #: job_id -> kill time, for jobs awaiting their recovery attempt.
        self.killed_at: dict[int, float] = {}
        self.resubmit_pending: set[int] = set()
        self.resubmit_cancelled: set[int] = set()
        self.wasted_node_seconds = 0.0
        self.requeue_delay = 0.0
        self.decision_points = 0
        self.decision_time = 0.0
        self.max_queue = 0
        self.timed = config.profile_phases
        self.phase_seconds = {"events": 0.0, "commit": 0.0}
        self.clock_start = self._mark = perf_counter()

    def _charge(self, phase: str, upto: float) -> None:
        """Charge the wall-clock since the previous charge to ``phase``."""
        self.phase_seconds[phase] += upto - self._mark
        self._mark = upto

    # -- event handlers ------------------------------------------------------

    def handlers(self) -> dict:
        """The dispatch table ``EventKind → handler``, for the loop to hold:
        stored here, a table of bound methods would be a reference cycle
        keeping the whole run alive until the cyclic collector finds it."""
        return {
            EventKind.COMPLETION: self._on_completion,
            EventKind.NODE_UP: self._on_node_up,
            EventKind.NODE_DOWN: self._on_node_down,
            EventKind.SUBMISSION: self._on_submission,
            EventKind.CANCELLATION: self._on_cancellation,
            EventKind.TIMER: self._on_timer,
        }

    def _on_completion(self, item: ScheduledJob) -> None:
        if self.site.finish(item):  # else: stale completion of a killed attempt
            self.finished_ids.add(item.job.job_id)
            self.scheduler.on_complete(item.job, self.ctx)

    def _on_node_up(self, fail: "NodeFailure") -> None:
        self.site.capacity_up(fail.up_time, fail.nodes)

    def _on_node_down(self, fail: "NodeFailure") -> None:
        site = self.site
        needed = fail.nodes - site.machine.free_nodes
        if needed > 0:
            # Free nodes do not cover the failure: kill running jobs,
            # youngest first (least work destroyed), until enough nodes
            # are freed.  ``validate_for`` bounds concurrent failures by
            # the machine size, so the running jobs always hold enough.
            victims = sorted(
                site.running.values(), key=lambda r: (-r.start_time, -r.job.job_id)
            )
            freed = 0
            for victim in victims:
                if freed >= needed:
                    break
                freed += victim.job.nodes
                self._kill_for_failure(victim)
        site.capacity_down(fail.up_time, fail.nodes)

    def _on_submission(self, job: Job) -> None:
        job_id = job.job_id
        if job_id in self.resubmit_pending:
            self.resubmit_pending.discard(job_id)
            if job_id in self.resubmit_cancelled:
                # Cancelled in the gap between kill and rerun: the rerun
                # never reaches the queue.
                self.resubmit_cancelled.discard(job_id)
                self.finished_ids.add(job_id)
                return
            self.reruns[job_id] = job
        if self.state is not None:
            self.state.note_enqueued(job.nodes)
        self.scheduler.on_submit(job, self.ctx)

    def _on_cancellation(self, job_id: int) -> None:
        if job_id in self.site.running:
            # Kill mid-run: partial execution enters the record.
            record = self.site.kill(job_id, self.ctx.now)
            self.site.record(record)
            self.finished_ids.add(job_id)
            self.killed_running.append(job_id)
            self.scheduler.on_complete(record.job, self.ctx)
        elif job_id in self.resubmit_pending:
            # Killed by a failure, recovery attempt not yet submitted: the
            # user withdraws the rerun.
            if job_id not in self.resubmit_cancelled:
                self.resubmit_cancelled.add(job_id)
                self.killed_at.pop(job_id, None)
                self.cancelled_queued.append(job_id)
        elif job_id not in self.finished_ids:
            # Still queued: withdraw it.
            job = self.reruns.get(job_id, self.by_id[job_id])
            self.scheduler.on_cancel(job, self.ctx)
            if self.state is not None:
                self.state.note_dequeued(job.nodes)
            self.cancelled_queued.append(job_id)
        # else: already finished — the realistic no-op race.

    def _on_timer(self, _payload: object) -> None:
        # TIMER events need no state change; they exist to create a
        # decision point.  Inside a batch the event's time is ``now``.
        self.pending_timers.discard(self.ctx.now)

    def _kill_for_failure(self, victim: RunningJob) -> None:
        """Kill ``victim`` for a node failure and dispatch its recovery.

        Abandonment turns the partial attempt into the job's final
        (cancelled) schedule record; recovery stores the attempt under
        ``interrupted`` and schedules a rerun submission carrying the
        remaining runtime under the original identity.
        """
        now = self.ctx.now
        job_id = victim.job.job_id
        record = self.site.kill(job_id, now)
        self.failure_killed.append(job_id)
        executed = now - victim.start_time
        saved, overhead_paid = self.recovery_state.get(job_id, (0.0, 0.0))
        original = self.by_id[job_id]
        policy = self.policy
        assert policy is not None  # failures without a policy cannot happen
        outcome = policy.on_interrupt(
            original,
            now=now,
            executed=executed,
            saved=saved,
            overhead_paid=overhead_paid,
        )
        nodes = victim.job.nodes
        if outcome.resubmit_at is None:
            # Abandoned: the partial attempt is the job's final record, and
            # everything it executed (plus any checkpoints from earlier
            # attempts, now useless) is wasted.
            self.finished_ids.add(job_id)
            self.site.record(record)
            self.wasted_node_seconds += (executed + saved) * nodes
        else:
            if outcome.resubmit_at < now:
                raise ValueError(
                    f"recovery policy {policy.spec!r} resubmits job {job_id} "
                    f"at {outcome.resubmit_at}, before the kill at {now}"
                )
            self.interrupted.append(record)
            rerun = replace(original, runtime=outcome.remaining_runtime)
            self.events.push(outcome.resubmit_at, EventKind.SUBMISSION, rerun)
            self.resubmit_pending.add(job_id)
            self.killed_at[job_id] = now
            self.recovery_state[job_id] = (outcome.saved, outcome.overhead)
            # Work preserved by new checkpoints survives; the rest of this
            # attempt's execution is wasted.
            self.wasted_node_seconds += (executed - (outcome.saved - saved)) * nodes
        self.scheduler.on_complete(victim.job, self.ctx)

    # -- the decision point --------------------------------------------------

    def decide(self) -> None:
        """One decision point at ``ctx.now``.

        Asks the scheduler which queued jobs start now, commits them and
        schedules their completions, then honours wake-up requests and
        tracks the queue peak.
        """
        now = self.ctx.now
        scheduler = self.scheduler
        self.decision_points += 1
        t_select = perf_counter()
        started = scheduler.select_jobs(self.ctx)
        t_commit = perf_counter()
        self.decision_time += t_commit - t_select
        if self.timed:
            self._charge("events", t_select)
        start = self.site.start
        push = self.events.push
        for job in started:
            if job.job_id in self.killed_at:  # a rerun leaves the queue
                self.requeue_delay += now - self.killed_at.pop(job.job_id)
            item = start(job, now)
            push(item.end_time, _COMPLETION, item)

        # Honour timer requests; only queue jobs justify a wake-up, so a
        # drained scheduler cannot keep an otherwise-finished simulation
        # alive forever.
        wake = scheduler.next_wakeup(self.ctx)
        queue_len = scheduler.pending_count
        if (
            wake is not None
            and wake > now
            and wake not in self.pending_timers
            and (queue_len > 0 or self.site.running)
        ):
            self.pending_timers.add(wake)
            self.events.push(wake, EventKind.TIMER)
        if queue_len > self.max_queue:
            self.max_queue = queue_len
        if self.trace is not None:
            self.trace.queue_lengths.append((now, queue_len))
            self.trace.free_nodes.append((now, self.site.machine.free_nodes))
        if self.timed:
            self._mark = t_commit  # the decision itself is ``decision_time``
            self._charge("commit", perf_counter())

    # -- the result ----------------------------------------------------------

    def result(self) -> SimulationResult:
        site = self.site
        if site.running:
            raise RuntimeError(
                f"simulation drained its events with {len(site.running)} jobs still "
                "running — scheduler pushed no completion?"
            )
        leftover = self.scheduler.pending_count
        if leftover:
            raise RuntimeError(
                f"simulation ended with {leftover} jobs still queued — the "
                "scheduler starved them (every job fits the machine, so a "
                "work-conserving scheduler must eventually start everything)"
            )
        total_seconds = perf_counter() - self.clock_start
        phase_seconds = {"total": total_seconds, "decide": self.decision_time}
        if self.timed:
            phase_seconds.update(self.phase_seconds)
            phase_seconds["other"] = max(
                0.0,
                total_seconds - self.decision_time - sum(self.phase_seconds.values()),
            )
        state = self.state
        return SimulationResult(
            schedule=Schedule(site.completed),
            decision_points=self.decision_points,
            max_queue_length=self.max_queue,
            end_time=self.ctx.now,
            cancelled_queued=tuple(self.cancelled_queued),
            killed_running=tuple(self.killed_running),
            decision_time=self.decision_time,
            profile_deltas=state.deltas if state is not None else 0,
            profile_snapshots=state.snapshots if state is not None else 0,
            failure_killed=tuple(self.failure_killed),
            interrupted=tuple(self.interrupted),
            lost_node_seconds=(
                self.failures.lost_node_seconds() if self.failures is not None else 0.0
            ),
            wasted_node_seconds=self.wasted_node_seconds,
            requeue_delay=self.requeue_delay,
            phase_seconds=phase_seconds,
        )


class Simulator:
    """Run a job stream through a scheduler on a machine.

    Parameters
    ----------
    machine:
        The target machine.  A fresh simulation resets it.
    scheduler:
        Any :class:`~repro.core.scheduler.Scheduler`.
    config:
        A :class:`SimulationConfig` (its fields are documented there);
        ``None`` means all defaults.
    backend:
        Convenience override for ``config.backend`` (the one config field
        callers flip routinely).
    """

    def __init__(
        self,
        machine: Machine,
        scheduler: Scheduler,
        config: SimulationConfig | None = None,
        *,
        backend: str | None = None,
    ) -> None:
        if config is None:
            config = SimulationConfig()
        if backend is not None:
            config = replace(config, backend=backend)
        self.machine = machine
        self.scheduler = scheduler
        self.config = config
        #: The concrete backend this simulator runs on ("python"/"numpy"),
        #: resolved once (environment consulted, "auto" applied).
        self.backend = resolve_backend(config.backend)
        self.trace = _Trace() if config.collect_trace else None

    def run(
        self,
        jobs: Iterable[Job],
        *,
        scenario: ScenarioInputs | None = None,
    ) -> SimulationResult:
        """Simulate the whole stream and return the final schedule.

        ``scenario`` bundles the fault-injection inputs
        (:class:`ScenarioInputs`) — or a compilable
        :class:`~repro.scenarios.spec.ScenarioSpec`, in which case the
        spec is compiled against ``jobs`` first: ScenarioInputs is the
        *compiled target* of the scenario algebra, and the compiled
        stream replaces ``jobs`` (arrival components may rewrite it):

        * ``cancellations`` injects user withdrawals; each must reference
          a job in the stream and fire no earlier than its submission.
        * ``failures`` injects a node failure/repair trace
          (:class:`~repro.failures.trace.FailureTrace`); ``recovery``
          decides what happens to jobs killed by a failure — a
          :class:`~repro.failures.recovery.RecoveryPolicy`, a spec string
          such as ``"abandon"`` or
          ``"checkpoint:interval=3600,overhead=60"``, or ``None`` for the
          default full resubmission.
        """
        cancel_over_limit = self.config.cancel_over_limit
        if scenario is None:
            scenario = ScenarioInputs()
        elif not isinstance(scenario, ScenarioInputs):
            # A ScenarioSpec (or anything spec-shaped): compile it against
            # the stream.  Duck-typed so the core never imports the
            # scenarios package.
            compile_spec = getattr(scenario, "compile", None)
            if compile_spec is None:
                raise TypeError(
                    "scenario must be ScenarioInputs or a compilable "
                    f"ScenarioSpec, got {type(scenario).__name__}"
                )
            compiled = compile_spec(jobs)
            jobs = compiled.jobs
            scenario = compiled.inputs
            cancel_over_limit = cancel_over_limit or compiled.cancel_over_limit
        run = _Run(self, self._validated_stream(jobs), scenario, cancel_over_limit)

        # Hot-loop bindings: the loop runs a few times per job, so the
        # repeated attribute walks are measurable at bench scale.
        feed = run.feed
        peek = feed.peek_time
        pop = feed.pop_next
        handlers = run.handlers()
        ctx = run.ctx
        decide = run.decide
        while feed:
            ctx.now = now = peek()
            # Batch every event at this instant; completions first by the
            # event-kind priority.
            while True:
                kind, payload = pop()
                handlers[kind](payload)
                if not feed or peek() != now:
                    break
            decide()
        return run.result()

    def _validated_stream(self, jobs: Iterable[Job]) -> list[Job]:
        """The validated stream in arrival order."""
        stream = sorted(jobs, key=lambda j: (j.submit_time, j.job_id))
        if not stream:
            raise ValueError(
                "cannot simulate an empty workload: no jobs, no events, no "
                "schedule — use SimulationResult.empty() if a degenerate "
                "stream is expected"
            )
        validate_stream(stream)
        for job in stream:
            if not self.machine.can_ever_fit(job):
                raise ValueError(
                    f"job {job.job_id} requests {job.nodes} nodes but the machine "
                    f"has only {self.machine.total_nodes}; filter the workload first "
                    "(see repro.workloads.transforms.cap_nodes)"
                )
        return stream


def simulate(
    jobs: Iterable[Job],
    scheduler: Scheduler,
    total_nodes: int = Machine.PAPER_BATCH_NODES,
    *,
    config: SimulationConfig | None = None,
    scenario: ScenarioInputs | None = None,
    backend: str | None = None,
) -> SimulationResult:
    """One-call convenience wrapper: build a machine, run, return the result."""
    simulator = Simulator(Machine(total_nodes), scheduler, config, backend=backend)
    return simulator.run(jobs, scenario=scenario)
