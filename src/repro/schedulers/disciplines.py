"""Servicing disciplines: list scheduling, any-fit, EASY and conservative
backfilling.

The paper's Tables 3–6 have one column per discipline:

* **Listscheduler** — greedy head-blocking list scheduling: "the next job in
  the list is started as soon as the necessary resources are available"
  (Section 5.1).  If the head does not fit, everything waits.
* **Backfilling** — *conservative* backfilling (Feitelson & Weil): a job may
  jump the queue only if it does not increase the projected completion time
  of *any* job ahead of it (Section 5.2).
* **EASY-Backfilling** — Lifka's variant: a job may jump only if it does not
  postpone the projected start of the *first* job in the queue.

Garey & Graham's classical list scheduling is a fourth discipline
(:class:`AnyFitDiscipline`): start any job for which enough resources are
available, no estimates needed — "application of backfilling will be of no
benefit for this method" because it never leaves a startable job waiting.

All projections use the user estimate; actual runtimes may be shorter, so
backfilled jobs can still delay queued work relative to plain FCFS — the
behaviour the paper points out at the end of Section 5.2.

Both backfilling disciplines plan on ``ctx.profile`` — a snapshot of the
incrementally-maintained availability state (or a ``from_running`` rebuild
when the driving loop keeps no state).  The snapshot is theirs to mutate:
tentative starts and reservations go straight into it.  EASY's snapshot
dies with the decision point.  Conservative backfilling keeps its snapshot,
reservations and all, as a *plan* for the next decision point, and takes a
new one only when an event invalidated the old — an early completion above
all, which is how early completions are still absorbed: the new snapshot
reflects them (the plan-validity contract is on
:class:`ConservativeBackfill`).
"""

from __future__ import annotations

import operator
from array import array
from math import inf
from typing import TYPE_CHECKING, Sequence

from repro.core.job import Job
from repro.core.profile import _OVERRUN_EPSILON, AvailabilityProfile
from repro.core.scheduler import SchedulerContext
from repro.core.state import SchedulingState, StateDivergenceError
from repro.schedulers.base import Discipline

if TYPE_CHECKING:  # pragma: no cover - the loader is imported lazily
    from repro.core.native import ConservativeWalk, EasyWalk


def _min_queue_nodes(queue: Sequence[Job], ctx: SchedulerContext) -> int:
    """Narrowest job in ``queue`` — incremental stat when valid, else a scan."""
    cached = ctx.queue_min_nodes(len(queue))
    if cached is not None:
        return cached
    return min(job.nodes for job in queue)


def _reserve_from_now(
    profile: AvailabilityProfile, now: float, duration: float, nodes: int
) -> None:
    """Commit a tentative start at ``now`` the way ``from_running`` projects it.

    Zero-duration estimates are clamped to the overrun epsilon — exactly the
    clamp the reference constructor applies to a projected end at ``now`` —
    so snapshot-based planning stays bit-identical to a rebuild.

    ``now`` is always the snapshot's origin here (EASY plans on a snapshot
    taken at the decision instant), and EASY snapshots are prefix-anchored,
    so the origin fast path applies and yields the same breakpoints and
    levels as ``reserve(now, ...)``.
    """
    profile.reserve_from_origin(duration if duration > 0 else _OVERRUN_EPSILON, nodes)


class HeadBlockingDiscipline(Discipline):
    """Greedy list scheduling: start queue-head jobs while they fit."""

    name = "list"
    uses_estimates = False

    def select(self, queue: Sequence[Job], ctx: SchedulerContext) -> list[Job]:
        if not queue:
            return []
        free = ctx.free_nodes
        started: list[Job] = []
        for job in queue:
            if job.nodes > free:
                break
            started.append(job)
            free -= job.nodes
        return started

    def select_indexed(
        self, queue: Sequence[Job], ctx: SchedulerContext
    ) -> tuple[list[Job], Sequence[int] | None]:
        started = self.select(queue, ctx)
        return started, range(len(started))


class AnyFitDiscipline(Discipline):
    """Garey & Graham: start every queued job that fits, scanning in order.

    A single in-order pass is exact: free nodes only shrink during the pass,
    and the simulator re-invokes the discipline whenever nodes are released.
    """

    name = "any-fit"
    uses_estimates = False

    def select(self, queue: Sequence[Job], ctx: SchedulerContext) -> list[Job]:
        started, _indices = self.select_indexed(queue, ctx)
        return started

    def select_indexed(
        self, queue: Sequence[Job], ctx: SchedulerContext
    ) -> tuple[list[Job], Sequence[int] | None]:
        if not queue:
            return [], None
        free = ctx.free_nodes
        # No queued job fits the free nodes: skip the scan (under a long
        # backlog, e.g. at an arrival too wide to start).
        if free < _min_queue_nodes(queue, ctx):
            return [], None
        started: list[Job] = []
        indices: list[int] = []
        for idx, job in enumerate(queue):
            if job.nodes <= free:
                started.append(job)
                indices.append(idx)
                free -= job.nodes
                if free == 0:
                    break
        return started, indices


class EasyBackfill(Discipline):
    """EASY backfilling (Lifka): never postpone the projected start of the head.

    Implementation: start head jobs greedily; when the head blocks, compute
    its *shadow time* (earliest projected start) and the *extra nodes* (nodes
    free at the shadow time beyond the head's request).  A candidate may be
    backfilled if it fits now and either finishes (by its estimate) before
    the shadow time or uses only extra nodes.  The shadow is recomputed
    after every backfill, which keeps the no-postponement invariant exact
    even when a backfilled job's reservation reshapes the profile.

    The queue walk is index-based: a ``taken`` mask plus a head cursor
    replace the old list mutation (``pop(0)`` / ``remove``), which went
    quadratic on wide startable queues.  The planning profile is one
    ``ctx.profile`` snapshot taken lazily when the head first blocks; jobs
    started this decision point are reserved into it incrementally, which
    is function-identical to the old rebuild-per-backfill.

    On the fast backend (``ctx.vectorize``), with the order policy's
    ``(nodes, estimates)`` columns, the walk past the blocked head is one
    call into compiled C (:meth:`_select_compiled`, a port of this walk
    with the same float operations); the python backend, queues without
    columns, and hosts where the kernel cannot be built or loaded run the
    walk below.
    """

    name = "easy"
    uses_estimates = True
    #: The compiled walk once looked up: ``None`` not yet, ``False`` when
    #: the Python walk stays (instance attribute).
    _walk: "EasyWalk | bool | None" = None

    def select(self, queue: Sequence[Job], ctx: SchedulerContext) -> list[Job]:
        started, _indices = self.select_indexed(queue, ctx)
        return started

    def select_indexed(
        self, queue: Sequence[Job], ctx: SchedulerContext
    ) -> tuple[list[Job], Sequence[int] | None]:
        if not queue:
            return [], None
        free = ctx.free_nodes
        now = ctx.now
        # No queued job fits the free nodes: neither the head nor any
        # backfill candidate can start, so skip the profile work.
        if free < _min_queue_nodes(queue, ctx):
            return [], None
        columns = ctx.queue_columns
        if ctx.vectorize and columns is not None and len(columns[0]) == len(queue):
            walk = self._compiled_walk()
            if walk is not None:
                return self._select_compiled(walk, queue, ctx, columns, free)
        started: list[Job] = []
        indices: list[int] = []
        profile: AvailabilityProfile | None = None  # taken when the head blocks
        n = len(queue)
        taken = [False] * n
        head = 0
        remaining = n

        while remaining:
            while taken[head]:
                head += 1
            job = queue[head]
            if job.nodes <= free:
                started.append(job)
                indices.append(head)
                free -= job.nodes
                taken[head] = True
                remaining -= 1
                if profile is not None:
                    _reserve_from_now(profile, now, job.estimated_runtime, job.nodes)
                continue
            if remaining == 1:
                break
            if profile is None:
                profile = ctx.profile
                for prior in started:
                    _reserve_from_now(
                        profile, now, prior.estimated_runtime, prior.nodes
                    )
            shadow = profile.earliest_start(job.nodes, job.estimated_runtime)
            extra = profile.free_at(shadow) - job.nodes
            candidate = None
            for idx in range(head + 1, n):
                if taken[idx]:
                    continue
                trial = queue[idx]
                if trial.nodes > free:
                    continue
                if now + trial.estimated_runtime <= shadow or trial.nodes <= extra:
                    candidate = idx
                    break
            if candidate is None:
                break
            job = queue[candidate]
            started.append(job)
            indices.append(candidate)
            free -= job.nodes
            taken[candidate] = True
            remaining -= 1
            _reserve_from_now(profile, now, job.estimated_runtime, job.nodes)
        return started, indices

    def _select_compiled(
        self,
        walk: "EasyWalk",
        queue: Sequence[Job],
        ctx: SchedulerContext,
        columns: "tuple[array, array]",
        free: int,
    ) -> tuple[list[Job], Sequence[int]]:
        """:meth:`select_indexed` with the walk past the head in C.

        The greedy head starts stay here: decisions that never block take
        no snapshot.  Once the head blocks it stays blocked (free nodes
        only shrink), and the rest of the decision — the started prefix
        reserved into the snapshot, the shadow, every backfill — is one
        kernel call reading ``columns`` in place.
        """
        nodes = columns[0]
        n = len(queue)
        head = 0
        while head < n and nodes[head] <= free:
            free -= nodes[head]
            head += 1
        if head >= n - 1:
            # Everything started, or only the blocked head is left.
            return list(queue[:head]), range(head)
        picks = walk(ctx.profile, nodes, columns[1], head, free, ctx.now)
        indices = [*range(head), *picks]
        return [queue[i] for i in indices], indices

    def _compiled_walk(self) -> "EasyWalk | None":
        """The compiled walk, when it loaded (one per instance: it owns
        buffers); the loader is imported on first use."""
        walk = self._walk
        if walk is None:
            from repro.core import native

            walk = self._walk = native.easy_walk() or False
        return walk or None


class _ReservationPlan:
    """What :class:`ConservativeBackfill` carries from one decision to the next.

    ``profile`` holds the running jobs' projected remainders *and* one
    reservation per planned job; ``jobs``/``starts`` list those planned jobs
    (queued, not yet started) in queue order with the start each was given.
    ``deltas`` is the value ``state.deltas`` must have at the next decision
    point and ``started`` the jobs the last decision returned — together
    they prove that nothing but those starts touched the machine since.
    """

    __slots__ = ("state", "profile", "jobs", "starts", "deltas", "started")

    def __init__(
        self, state: SchedulingState | None, profile: AvailabilityProfile
    ) -> None:
        self.state = state
        self.profile = profile
        self.jobs: list[Job] = []
        self.starts: list[float] = []
        self.deltas = 0
        self.started: tuple[Job, ...] = ()

    def keep_prefix(self, queue: Sequence[Job], now: float) -> int:
        """Bring a valid plan to ``now`` and keep what still matches ``queue``.

        Returns the length of the longest common prefix (by identity) of
        the planned jobs and the queue; the reservations past it are
        withdrawn from the profile.
        """
        profile = self.profile
        profile.advance_origin(now)
        jobs = self.jobs
        keep = 0
        for planned, queued in zip(jobs, queue):
            if planned is not queued:
                break
            keep += 1
        if keep < len(jobs):
            starts = self.starts
            for job, start in zip(jobs[keep:], starts[keep:]):
                # The same sum allocate() placed the end breakpoint at.
                end = start + max(job.estimated_runtime, _ZERO_RUNTIME_EPSILON)
                profile.unreserve(start, end, job.nodes)
            del jobs[keep:]
            del starts[keep:]
        return keep

    def place(
        self, queue: Sequence[Job], keep: int, now: float, free: int
    ) -> tuple[list[Job], list[int]]:
        """The queue walk: place ``queue[keep:]`` on the plan, in order.

        ``queue[:keep]`` is already planned (all later than ``now``, or the
        plan would not be valid).  Each further job is ``allocate``d — the
        first-fit query fused with its reservation, the measured hot spot
        of the whole simulator — and either starts now or joins the plan.
        ``keep == 0`` on a fresh snapshot is the from-scratch plan.
        """
        n = len(queue)
        # Two exact early exits, both "no job left in the queue can start at
        # this decision point".  (1) The nodes free *right now* are fewer
        # than the narrowest remaining job needs.  (2) The plan profile dips
        # below that narrowest width somewhere in ``[now, now + shortest)``,
        # ``shortest`` being the least estimate among the remaining jobs
        # that fit the nodes free at walk entry: a remaining job that fits
        # is at least that wide and runs at least that long, and is placed
        # on a profile pointwise no higher than this one, so the dip lies
        # inside its window.  The jobs past the exit stay unplanned and are
        # picked up as the tail of a later decision; no planned job depends
        # on them, so stopping is exact, not an approximation.
        suffix_min = [_NO_JOB] * (n + 1)
        shortest = [inf] * (n + 1)
        for i in range(n - 1, keep - 1, -1):
            job = queue[i]
            nodes = job.nodes
            narrower = suffix_min[i + 1]
            suffix_min[i] = nodes if nodes < narrower else narrower
            shorter = shortest[i + 1]
            if nodes <= free:
                est = job.estimated_runtime
                if est < _ZERO_RUNTIME_EPSILON:
                    est = _ZERO_RUNTIME_EPSILON
                if est < shorter:
                    shorter = est
            shortest[i] = shorter
        profile = self.profile
        allocate = profile.allocate
        fits_now = profile.fits_at_origin
        jobs = self.jobs
        starts = self.starts
        started: list[Job] = []
        indices: list[int] = []
        for i in range(keep, n):
            # Passing (1) means the narrowest remaining job fits, so it is
            # also the narrowest of those that fit at walk entry.
            narrowest = suffix_min[i]
            if free < narrowest or not fits_now(narrowest, shortest[i]):
                break
            job = queue[i]
            # Zero-length estimates still occupy their nodes for the instant
            # they run; reserve an epsilon so two such jobs cannot
            # double-book the same nodes at the same decision point.
            est = job.estimated_runtime
            if est < _ZERO_RUNTIME_EPSILON:
                est = _ZERO_RUNTIME_EPSILON
            start = allocate(job.nodes, est)
            if start <= now:
                started.append(job)
                indices.append(i)
                free -= job.nodes
            else:
                jobs.append(job)
                starts.append(start)
        return started, indices

    def place_compiled(
        self,
        walk: "ConservativeWalk",
        queue: Sequence[Job],
        keep: int,
        now: float,
        free: int,
        columns: "tuple[array, array] | None",
    ) -> tuple[list[Job], list[int]]:
        """:meth:`place` as one call into the compiled walk.

        Same starts, same planned starts, same profile afterwards — the C
        kernel is a port of :meth:`place` and the profile calls it makes.
        ``columns`` are the order policy's ``(nodes, estimates)`` mirrors
        of ``queue``, read in place from ``keep`` on; without them the
        tail's two columns are built here.
        """
        count = len(queue) - keep
        if columns is None:
            tail = queue[keep:]
            columns = (
                array("q", [job.nodes for job in tail]),
                array("d", [job.estimated_runtime for job in tail]),
            )
            offset = 0
        else:
            offset = keep
        placed, positions, planned = walk(
            self.profile, columns[0], columns[1], offset, count, now, free
        )
        # The placed jobs are queue[keep:keep + placed]: the started ones
        # at their positions, the planned ones in the runs between them.
        jobs = self.jobs
        started: list[Job] = []
        indices: list[int] = []
        run_from = keep
        for position in positions:
            i = keep + position
            started.append(queue[i])
            indices.append(i)
            jobs += queue[run_from:i]
            run_from = i + 1
        jobs += queue[run_from : keep + placed]
        self.starts += planned
        return started, indices


class ConservativeBackfill(Discipline):
    """Conservative backfilling: no queued job's projected completion grows.

    The queue is walked in order: each job either starts now or receives a
    reservation at its earliest projected start.  Later jobs plan around
    all earlier reservations, so no job can be postponed (with respect to
    the projections) by a backfilled successor.

    The reservation table is a *plan* that outlives the decision point:
    the planning profile (running remainders plus queued reservations) and
    the ``(job, start)`` list in queue order.  A decision point reuses the
    longest prefix of it that is still what a from-scratch walk would
    compute, and re-places only the rest of the queue.  The plan is valid
    iff all of these hold (the invariant table in ``docs/architecture.md``
    has the reasons):

    * it was built on this ``ctx.state`` (same simulation run);
    * ``state.deltas`` advanced by exactly the starts this discipline
      returned last time, and each of those jobs is running — so no
      release, kill, outage, repair or foreign start happened, and no
      wrapper dropped a start;
    * no running job is in overrun (``state.has_overrun()``): the overrun
      clamp moves with the clock and only fresh snapshots carry it;
    * no job with an estimate below the zero-runtime epsilon was started:
      the plan holds such a job's nodes for the epsilon, the state does not.

    On reuse the plan profile's origin advances to ``now``, the plan is cut
    to its longest common prefix with the queue *by identity* (arrivals
    extend the queue, a withdrawn or reordered job ends the prefix), the
    reservations past the prefix are withdrawn with
    :meth:`~repro.core.profile.AvailabilityProfile.unreserve`, and only the
    queue tail is ``allocate``d.  An invalid plan — an early completion, a
    failure, a kill, or no ``ctx.state`` at all (gang, metasystem, rebuild
    mode) — is the same walk with an empty prefix on a fresh
    ``ctx.profile``, which is how early completions are exploited: the
    fresh snapshot shows the freed remainder and every job is re-placed
    against it, exactly like a queue manager re-evaluating its reservation
    table.  Kept starts are exact, not approximate: with an unchanged base
    profile a kept job's from-scratch start is the earliest fit ``>= now``
    on the same step function with the same earlier reservations, and its
    kept start is a breakpoint later than ``now``, so both are the same
    float.

    On the fast backend (``ctx.vectorize``) the walk is one call into
    compiled C (:meth:`_ReservationPlan.place_compiled`, a port of
    :meth:`_ReservationPlan.place` with the same float operations); the
    python backend, and any host where the kernel cannot be built or
    loaded, runs :meth:`~_ReservationPlan.place` itself.

    Under state verification (``REPRO_VERIFY_STATE`` /
    ``SimulationConfig(verify_state=K)``) every decision the cadence picks
    re-runs the walk from scratch on a fresh snapshot and raises
    :class:`~repro.core.state.StateDivergenceError` if a started job or a
    planned start differs.

    ``depth`` bounds how many queued jobs are considered per decision point
    (production systems call this ``bf_max_job_test``); jobs beyond the
    bound neither start nor reserve.  ``None`` (the default) is the exact
    algorithm of the paper — the walk still ends early, but only where no
    job left in the queue can start (:meth:`_ReservationPlan.place`), which
    changes no start.  A bounded depth keeps per-event cost constant
    on pathological backlogs at the price of slightly weaker backfilling —
    never of correctness: the no-postponement guarantee among *considered*
    jobs is unchanged, and skipped jobs are simply deferred.
    """

    name = "conservative"
    uses_estimates = True
    #: The compiled walk once looked up: ``None`` not yet, ``False`` when
    #: the Python walk stays (instance attribute).
    _walk: "ConservativeWalk | bool | None" = None

    def __init__(self, depth: int | None = None) -> None:
        if depth is not None and depth < 1:
            raise ValueError("depth must be at least 1 (or None for unbounded)")
        self.depth = depth
        self._plan: _ReservationPlan | None = None

    def reset(self) -> None:
        self._plan = None

    def select(self, queue: Sequence[Job], ctx: SchedulerContext) -> list[Job]:
        started, _indices = self.select_indexed(queue, ctx)
        return started

    def select_indexed(
        self, queue: Sequence[Job], ctx: SchedulerContext
    ) -> tuple[list[Job], Sequence[int] | None]:
        if not queue:
            return [], None
        now = ctx.now
        columns = ctx.queue_columns
        if columns is not None and len(columns[0]) != len(queue):
            columns = None
        if self.depth is not None:
            queue = queue[: self.depth]  # the columns still hold its prefix
        # Nothing can start when no queued job fits the free nodes; skip the
        # planning entirely (frequent during backlog phases).  The plan is
        # left as it is: its validity is judged when it is next used.
        free = ctx.free_nodes
        if free < _min_queue_nodes(queue, ctx):
            return [], None
        state = ctx.state
        plan = self._valid_plan(ctx)
        reused = plan is not None
        if reused:
            keep = plan.keep_prefix(queue, now)
        else:
            plan = _ReservationPlan(state, ctx.profile)
            keep = 0
        walk = self._compiled_walk(ctx)
        if walk is None:
            started, indices = plan.place(queue, keep, now, free)
        else:
            started, indices = plan.place_compiled(walk, queue, keep, now, free, columns)
        if reused and state.verify_every:
            _cross_check(plan, queue, ctx, started, walk, columns)
        if state is None or any(
            job.estimated_runtime < _ZERO_RUNTIME_EPSILON for job in started
        ):
            # No delta bookkeeping to judge a plan by (gang, metasystem,
            # rebuild mode), or a start the plan holds for the epsilon and
            # the state does not hold at all.
            self._plan = None
        else:
            plan.deltas = state.deltas + len(started)
            plan.started = tuple(started)  # the caller owns the list
            self._plan = plan
        return started, indices

    def _compiled_walk(self, ctx: SchedulerContext) -> "ConservativeWalk | None":
        """The compiled queue walk on the fast backend, when it loaded.

        Each instance keeps its own (the walk owns scratch buffers); the
        loader is imported on the first conservative walk that could use it.
        """
        if not ctx.vectorize:
            return None
        walk = self._walk
        if walk is None:
            from repro.core import native

            walk = self._walk = native.conservative_walk() or False
        return walk or None

    def _valid_plan(self, ctx: SchedulerContext) -> _ReservationPlan | None:
        """The kept plan, if nothing but its own starts happened since."""
        plan = self._plan
        state = ctx.state
        if (
            plan is None
            or plan.state is not state
            or state.deltas != plan.deltas
            or state.has_overrun()
        ):
            return None
        if plan.started:
            running = ctx.running
            for job in plan.started:
                entry = running.get(job.job_id)
                if entry is None or entry.job is not job:
                    return None  # a wrapper dropped the start
        return plan


def _cross_check(
    plan: _ReservationPlan,
    queue: Sequence[Job],
    ctx: SchedulerContext,
    started: list[Job],
    walk: "ConservativeWalk | None",
    columns: "tuple[array, array] | None",
) -> None:
    """Verification mode: compare a reused plan with a from-scratch walk.

    Taking the snapshot drives the state's own verification cadence, as
    one snapshot per decision always did; the walk is repeated only when
    that cadence fired, by the same walk (compiled or Python) the decision
    used.
    """
    state = ctx.state
    fired = state.verifications
    scratch = _ReservationPlan(state, ctx.profile)
    if state.verifications == fired:
        return
    if walk is None:
        expected, _indices = scratch.place(queue, 0, ctx.now, ctx.free_nodes)
    else:
        expected, _indices = scratch.place_compiled(
            walk, queue, 0, ctx.now, ctx.free_nodes, columns
        )
    # Both walks stop early on their own, so compare what both planned.
    both = min(len(scratch.jobs), len(plan.jobs))
    if (
        len(expected) != len(started)
        or any(map(operator.is_not, expected, started))
        or any(map(operator.is_not, scratch.jobs[:both], plan.jobs[:both]))
        or scratch.starts[:both] != plan.starts[:both]
    ):
        def ids(jobs: Sequence[Job]) -> list[int]:
            return [job.job_id for job in jobs]

        raise StateDivergenceError(
            f"reused conservative-backfill plan diverged from a from-scratch "
            f"walk at t={ctx.now}: started {ids(started)} vs {ids(expected)}; "
            f"planned {ids(plan.jobs[:both])} at {plan.starts[:both]} vs "
            f"{ids(scratch.jobs[:both])} at {scratch.starts[:both]}"
        )


#: Sentinel larger than any machine, so the suffix-min bottom never triggers.
_NO_JOB = 1 << 60


#: Stand-in duration for zero-runtime estimates inside reservation profiles.
_ZERO_RUNTIME_EPSILON = 1e-9
