"""Incrementally-maintained scheduling state shared by simulator and schedulers.

Backfilling disciplines plan against the machine's *availability* — free
nodes as a function of future time.  The original implementation rebuilt an
:class:`~repro.core.profile.AvailabilityProfile` from the running-job table
at every decision point: O(m log m) per decision, hundreds of thousands of
times per simulated month.  :class:`SchedulingState` replaces the
rebuild-per-decision pattern with one persistent structure owned by the
simulator and exposed to schedulers through
:class:`~repro.core.scheduler.SchedulerContext`:

* a **persistent availability profile** absorbing job start, completion and
  kill deltas (``on_start`` / ``on_release``) and advancing its origin with
  the simulation clock, so early completions free their projected remainder
  the instant they happen — built on the first :meth:`~SchedulingState.snapshot`
  from the indexes below, so a run whose discipline never reads a profile
  (list scheduling) never owns one;
* a **sorted projected-release index** — ``(projected_end, job_id)`` pairs
  maintained by binary insertion — replacing the per-decision sort hidden
  inside ``AvailabilityProfile.from_running``;
* **incremental queue statistics** — a width histogram of the wait queue
  with a cached minimum, so disciplines answer "does anything fit at all?"
  without an O(n) scan per decision point;
* **capacity outages** — node failures (:mod:`repro.failures`) enter the
  profile as finite reservations ``[down, up)`` via
  :meth:`SchedulingState.on_capacity_down`, so every discipline plans
  against the degraded machine exactly as it plans around running jobs.

The contract (see ``docs/architecture.md`` for the full invariant table):
only the simulator mutates the state; schedulers read private
:meth:`snapshot` copies, which are guaranteed to describe *exactly* the same
step function ``from_running`` would rebuild — including the clamping of
overrun jobs (projected end in the past) to an epsilon after *now*.  That
guarantee is mechanical equivalence: schedules under the incremental state
are bit-identical to the rebuild implementation, which
``tests/test_state_equivalence.py`` asserts over the whole registry.

Verification mode (``REPRO_VERIFY_STATE=K`` or
``SimulationConfig(verify_state=K)``) cross-checks every K-th snapshot
against a fresh ``from_running`` rebuild and raises
:class:`StateDivergenceError` on any mismatch — the cheap insurance that
keeps "incremental" and "correct" the same thing as the code evolves.
"""

from __future__ import annotations

import os
from bisect import bisect_left, bisect_right, insort

from repro.core.profile import _OVERRUN_EPSILON, AvailabilityProfile


class StateDivergenceError(RuntimeError):
    """The incremental availability profile disagrees with a fresh rebuild.

    Raised only in verification mode; indicates a bookkeeping bug in the
    delta maintenance (or a scheduler mutating state it should not touch).
    """


def verify_every_from_env() -> int:
    """Cross-check cadence requested via ``REPRO_VERIFY_STATE``.

    ``0``/unset/empty disables verification; a positive integer N checks
    every N-th snapshot; any other non-empty value means "every snapshot".
    """
    raw = os.environ.get("REPRO_VERIFY_STATE", "").strip()
    if not raw:
        return 0
    try:
        return max(0, int(raw))
    except ValueError:
        return 1


#: Sentinel job id larger than any real one, for bisecting the overrun prefix.
_MAX_JOB_ID = 1 << 62


class SchedulingState:
    """Persistent machine-availability state, updated by simulator deltas.

    Parameters
    ----------
    total_nodes:
        Machine size; snapshots inherit it.
    origin:
        Simulation start time.
    verify_every:
        Cross-check every N-th snapshot against a ``from_running`` rebuild
        (0 disables).

    ``deltas``, ``snapshots`` and ``verifications`` count the respective
    operations for the cost benches (Tables 7–8 instrumentation).
    """

    __slots__ = (
        "total_nodes",
        "now",
        "profile",
        "_ends",
        "_jobs",
        "_queue_widths",
        "_queued_count",
        "_queue_min",
        "_capacity",
        "verify_every",
        "_since_verify",
        "deltas",
        "snapshots",
        "verifications",
    )

    def __init__(
        self,
        total_nodes: int,
        *,
        origin: float = 0.0,
        verify_every: int = 0,
    ) -> None:
        self.total_nodes = total_nodes
        self.now = origin
        #: The persistent profile, built by the first :meth:`snapshot` or
        #: :meth:`verify` and kept up to date by the deltas from then on;
        #: ``None`` until something reads it (a list cell never does).
        #: Schedulers must never mutate it directly — they receive
        #: private copies from :meth:`snapshot`.
        self.profile: AvailabilityProfile | None = None
        self._ends: list[tuple[float, int]] = []  # (projected_end, job_id), sorted
        self._jobs: dict[int, tuple[float, int]] = {}  # job_id -> (end, nodes)
        self._queue_widths: dict[int, int] = {}  # nodes -> queued count
        self._queued_count = 0
        self._queue_min: int | None = None
        self._capacity: list[tuple[float, int]] = []  # active (up_time, nodes)
        self.verify_every = verify_every
        self._since_verify = 0
        self.deltas = 0
        self.snapshots = 0
        self.verifications = 0

    # -- clock -----------------------------------------------------------------

    def advance(self, now: float) -> None:
        """Move the state to ``now``, dropping passed profile segments.

        Must be called before any delta at ``now`` is applied — the
        simulator does so by assigning ``ctx.now`` once per event batch.
        Backwards moves are ignored (repeat batches at one instant).
        """
        if now > self.now:
            self.now = now
            if self.profile is not None:
                self.profile.advance_origin(now)

    # -- job deltas (simulator-only) ---------------------------------------------

    def on_start(self, job_id: int, estimated_runtime: float, nodes: int) -> None:
        """A job started *now*: commit its projected run to the profile."""
        end = self.now + estimated_runtime
        if self.profile is not None:
            # The persistent profile is prefix-anchored (advance() has
            # already moved the origin to ``now``), so the origin fast
            # path applies.
            self.profile.reserve_from_origin(estimated_runtime, nodes)
        insort(self._ends, (end, job_id))
        self._jobs[job_id] = (end, nodes)
        self.deltas += 1

    def on_release(self, job_id: int) -> None:
        """A running job ended *now* (completion or kill): free its remainder.

        Early completions release the projected tail ``[now, end)``;
        overrun jobs (projection already expired) have nothing left to
        release — their epsilon clamp simply stops being applied to future
        snapshots.
        """
        end, nodes = self._jobs.pop(job_id)
        idx = bisect_left(self._ends, (end, job_id))
        del self._ends[idx]
        if end > self.now and self.profile is not None:
            self.profile.release(end, nodes)
        self.deltas += 1

    def on_start_batch(self, entries: "list[tuple[float, int, float, int]]") -> None:
        """Apply a time-ordered run of ``(start, job_id, estimate, nodes)``.

        The fused commit behind the simulator's idle-start coalescing:
        equivalent, delta for delta, to ``advance(start)`` + ``on_start``
        per entry (the clock advances through the run), with the method
        dispatch and counter updates hoisted out of the loop.
        """
        profile = self.profile
        ends = self._ends
        jobs = self._jobs
        for start, job_id, estimated_runtime, nodes in entries:
            if start > self.now:
                self.now = start
                if profile is not None:
                    profile.advance_origin(start)
            end = start + estimated_runtime
            if profile is not None:
                profile.reserve_from_origin(estimated_runtime, nodes)
            insort(ends, (end, job_id))
            jobs[job_id] = (end, nodes)
        self.deltas += len(entries)

    def on_release_batch(self, entries: "list[tuple[float, int]]") -> None:
        """Apply a time-ordered run of ``(completion_time, job_id)`` releases.

        The fused commit behind the simulator's empty-queue completion
        drain: equivalent, delta for delta, to ``advance(time)`` +
        ``on_release`` per entry.
        """
        profile = self.profile
        ends = self._ends
        jobs = self._jobs
        for time, job_id in entries:
            if time > self.now:
                self.now = time
                if profile is not None:
                    profile.advance_origin(time)
            end, nodes = jobs.pop(job_id)
            idx = bisect_left(ends, (end, job_id))
            del ends[idx]
            if end > time and profile is not None:
                profile.release(end, nodes)
        self.deltas += len(entries)

    # -- capacity deltas (simulator-only) ------------------------------------------

    def on_capacity_down(self, until: float, nodes: int) -> None:
        """``nodes`` nodes failed *now* with repair expected at ``until``.

        The outage becomes a finite reservation ``[now, until)`` in the
        persistent profile — planning disciplines route around it exactly
        as they route around running jobs.  The caller (the simulator's
        ``NODE_DOWN`` handler) must already have released every job it
        killed, so the reservation always fits.
        """
        if until <= self.now:
            raise ValueError(
                f"capacity outage until {until} does not extend past now={self.now}"
            )
        if self.profile is not None:
            # reserve_until, not reserve: the repair breakpoint must sit at
            # exactly ``until`` so later rebuilds (which reserve from a
            # different ``now``) produce bit-identical step functions.
            self.profile.reserve_until(self.now, until, nodes)
        insort(self._capacity, (until, nodes))
        self.deltas += 1

    def on_capacity_up(self, until: float, nodes: int) -> None:
        """The outage reserved until ``until`` was repaired (``now == until``).

        The profile reservation expires on its own as the origin advances;
        only the active-outage index needs the entry dropped.
        """
        self._capacity.remove((until, nodes))
        self.deltas += 1

    # -- queue statistics ---------------------------------------------------------

    def note_enqueued(self, nodes: int) -> None:
        """A job entered the wait queue (simulator-side membership tracking)."""
        self._queue_widths[nodes] = self._queue_widths.get(nodes, 0) + 1
        self._queued_count += 1
        if self._queue_min is None or nodes < self._queue_min:
            self._queue_min = nodes

    def note_enqueued_run(self, jobs: "list") -> None:
        """Batched :meth:`note_enqueued` over a run of arriving jobs."""
        widths = self._queue_widths
        get = widths.get
        queue_min = self._queue_min
        for job in jobs:
            nodes = job.nodes
            widths[nodes] = get(nodes, 0) + 1
            if queue_min is None or nodes < queue_min:
                queue_min = nodes
        self._queue_min = queue_min
        self._queued_count += len(jobs)

    def note_dequeued(self, nodes: int) -> None:
        """A queued job left the queue (started or cancelled)."""
        count = self._queue_widths[nodes] - 1
        if count:
            self._queue_widths[nodes] = count
        else:
            del self._queue_widths[nodes]
            if nodes == self._queue_min:
                self._queue_min = (
                    min(self._queue_widths) if self._queue_widths else None
                )
        self._queued_count -= 1

    def queue_min_nodes(self, expected_count: int) -> int | None:
        """Narrowest queued job, or ``None`` when the stat does not apply.

        The caller states how many jobs the queue it is looking at holds;
        when that disagrees with the tracked membership (a discipline
        wrapper filtered the queue, or a scheduler manages jobs the
        simulator cannot see) the stat is refused rather than silently
        wrong, and the caller falls back to scanning.
        """
        if expected_count != self._queued_count or self._queue_min is None:
            return None
        return self._queue_min

    @property
    def queued_count(self) -> int:
        return self._queued_count

    # -- snapshots ----------------------------------------------------------------

    def has_overrun(self) -> bool:
        """True when a running job's projected end is at or before ``now``.

        Such a job gets the overrun clamp in every :meth:`snapshot`, an
        epsilon reservation that moves with the clock — so a planning
        profile kept across decision points cannot stand in for a fresh
        snapshot while one exists.
        """
        ends = self._ends
        return bool(ends) and ends[0][0] <= self.now

    def snapshot(self) -> AvailabilityProfile:
        """The availability profile as of ``now`` — a private, mutable copy.

        Equals ``AvailabilityProfile.from_running(total, now,
        projected_releases())`` as a step function: overrun jobs (projected
        end at or before ``now``) are clamped to hold their nodes for the
        same epsilon the reference constructor uses.  Mutating the returned
        profile (disciplines reserve tentative starts into it) never
        touches the persistent state.  Costs one copy of the segment lists,
        O(segments), plus the overrun clamps.
        """
        self.snapshots += 1
        snap = self._clamped_clone()
        if self.verify_every:
            self._since_verify += 1
            if self._since_verify >= self.verify_every:
                self._since_verify = 0
                self.verify(snap)
        return snap

    def _clamped_clone(self) -> AvailabilityProfile:
        """A clone of the persistent profile — built now if nothing has
        read it yet — with the overrun clamps of this instant added."""
        ends = self._ends
        # Length of the release index's overrun prefix (end <= now).
        overrun = (
            bisect_right(ends, (self.now, _MAX_JOB_ID)) if self.has_overrun() else 0
        )
        profile = self.profile
        if profile is None:
            # Materialise on first read: the persistent profile holds the
            # live projections and the active outages, never the overrun
            # clamps (they move with the clock).
            profile = self.profile = self._rebuild(overrun)
        snap = profile.clone()
        if overrun:
            jobs = self._jobs
            for _end, job_id in ends[:overrun]:
                snap.reserve(self.now, _OVERRUN_EPSILON, jobs[job_id][1])
        return snap

    def _rebuild(self, skip: int = 0) -> AvailabilityProfile:
        """The profile as of ``now``, rebuilt from the indexes.

        ``from_running`` over the release index from entry ``skip`` on,
        plus a reservation per active outage.  With ``skip=0`` it is the
        reference :meth:`verify` compares against (``from_running`` clamps
        the overrun prefix); skipping that prefix gives the persistent
        profile a state materialises on first read.
        """
        jobs = self._jobs
        profile = AvailabilityProfile.from_running(
            self.total_nodes,
            self.now,
            [(end, jobs[job_id][1]) for end, job_id in self._ends[skip:]],
        )
        # A rebuild on a degraded machine must reserve the down nodes
        # until repair.
        for until, nodes in self._capacity:
            if until > self.now:
                profile.reserve_until(self.now, until, nodes)
        return profile

    def projected_releases(self) -> list[tuple[float, int]]:
        """``(projected_end, nodes)`` of every running job, end-sorted."""
        jobs = self._jobs
        return [(end, jobs[job_id][1]) for end, job_id in self._ends]

    # -- verification -------------------------------------------------------------

    def verify(self, snap: AvailabilityProfile | None = None) -> None:
        """Cross-check the incremental profile against a fresh rebuild.

        Raises :class:`StateDivergenceError` when the two disagree as step
        functions (redundant breakpoints ignored on both sides).
        """
        self.verifications += 1
        if snap is None:
            snap = self._clamped_clone()
        incremental = snap.canonical_steps()
        reference = self._rebuild().canonical_steps()
        if incremental != reference:
            raise StateDivergenceError(
                f"incremental availability profile diverged from the "
                f"from_running rebuild at t={self.now} "
                f"({len(self._jobs)} running jobs): "
                f"incremental={incremental[:6]}... reference={reference[:6]}..."
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SchedulingState(now={self.now}, running={len(self._jobs)}, "
            f"queued={self._queued_count}, deltas={self.deltas}, "
            f"snapshots={self.snapshots})"
        )
