"""Availability profile: free nodes as a step function of future time.

Backfilling needs to answer "when is the earliest time a ``nodes``-wide job
can run for ``duration`` seconds without displacing existing commitments?".
The :class:`AvailabilityProfile` maintains the number of free nodes over
``[now, infinity)`` as a piecewise-constant function and supports

* :meth:`earliest_start` — first-fit query against the profile, and
* :meth:`reserve` — committing nodes over an interval (a running job's
  projected remainder, or a queued job's reservation under conservative
  backfilling).

All durations fed into a profile are *projected* (based on user estimates);
the paper stresses that realised completions may be earlier, which is why
backfilling can still delay jobs relative to FCFS (Section 5.2).

Historically the schedulers rebuilt a profile from live state at every
decision point; today :class:`repro.core.state.SchedulingState` maintains
one *persistent* profile across events instead, which is why the class also
supports

* :meth:`release` — returning the projected remainder of an early
  completion to the free pool,
* :meth:`unreserve` — withdrawing a queued job's reservation from a plan
  that outlives the decision point (conservative backfilling); both
  delete the breakpoint their addition levels, so long-lived profiles
  hold real steps only and a first-fit scan reads no dead ones,
* :meth:`advance_origin` — dropping segments the simulation clock has
  passed, and
* :meth:`clone` — the private copies handed to the disciplines.

``from_running`` remains the reference constructor: the incremental path is
cross-checked against it (see ``SchedulingState.verify``), and contexts
without a state fall back to it.

Implementation note: profiles are the measured hot spot of conservative
backfilling (hundreds of thousands of first-fit queries per simulated
month).  Profiles here are small (tens to a few hundred segments), so tight
Python loops over plain lists beat NumPy, whose per-call overhead dominates
at these sizes — measured both ways; see ``benchmarks/bench_profile.py``.

Every first-fit query funnels through one module-level kernel
(:func:`_first_fit`), a plain scan with the hot lists hoisted into locals.
:meth:`allocate` fuses the query with its reservation, skipping the
redundant feasibility re-validation — conservative and slack backfilling
issue exactly that pair per queued job.  The kernel hands back the two
segment indices its scan ended on and ``allocate`` splits those edges in
place, with no second search for them.  A block-max index over the scan, a
per-profile first-fit memo and copy-on-write clones were tried and deleted:
no workload defended them (census in ``docs/architecture.md``).

:meth:`fits_at_origin` is the one query that is not a search: "could a job
this wide and this long start *now*?", read off the first few segments —
conservative backfilling ends its queue walk on it.

On the fast backend both backfilling walks run in compiled C
(:mod:`repro.core.native`), these queries included: the extension copies
``_times`` and ``_free`` into arrays of its own and never writes them back
— conservative backfilling keeps its plan there between decisions.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable


def _first_fit(
    times: list[float],
    free: list[int],
    n: int,
    nodes: int,
    duration: float,
    start_at: float,
) -> tuple[float, int, int]:
    """First ``t >= start_at`` with ``free >= nodes`` over ``[t, t+duration)``.

    The single query kernel behind :meth:`AvailabilityProfile.earliest_start`
    and :meth:`~AvailabilityProfile.allocate`.  The caller guarantees
    ``nodes <= total_nodes`` so the scan always terminates on the final,
    fully-free segment.

    Returns ``(t, idx, j)`` with the two segment indices the scan ended on:
    ``t`` lies in segment ``idx`` (``times[idx] <= t < times[idx + 1]``) and
    ``j`` is the first index with ``times[j] >= t + duration``, or ``n`` when
    the window outlasts every breakpoint — what :meth:`allocate` needs to
    split the window's two edges without searching for them again.
    """
    idx = bisect_right(times, start_at) - 1
    while True:
        # Skip infeasible segments; _free[-1] == total_nodes >= nodes, so
        # the loop cannot run off the end.
        while free[idx] < nodes:
            idx += 1
        t = times[idx]
        candidate = t if t > start_at else start_at
        end = candidate + duration
        j = idx + 1
        while j < n:
            if times[j] >= end:
                return candidate, idx, j
            if free[j] < nodes:
                break
            j += 1
        else:
            return candidate, idx, n
        idx = j


class AvailabilityProfile:
    """Piecewise-constant free-node function over ``[origin, inf)``.

    Internally two parallel lists: ``_times`` (strictly increasing,
    ``_times[0] == origin``) and ``_free`` where ``_free[i]`` holds on
    ``[_times[i], _times[i+1])`` and ``_free[-1]`` holds forever after.
    Every reservation is a finite interval, so ``_free[-1]`` always equals
    ``total_nodes`` — the machine eventually drains.
    """

    __slots__ = ("_times", "_free", "total_nodes")

    def __init__(self, total_nodes: int, origin: float = 0.0) -> None:
        if total_nodes <= 0:
            raise ValueError(f"total_nodes must be positive, got {total_nodes}")
        self.total_nodes = total_nodes
        self._times: list[float] = [origin]
        self._free: list[int] = [total_nodes]

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_running(
        cls,
        total_nodes: int,
        now: float,
        running: Iterable[tuple[float, int]],
    ) -> "AvailabilityProfile":
        """Build a profile from running jobs in one pass.

        ``running`` yields ``(projected_end_time, nodes)`` pairs.  Projected
        ends in the past (overrunning jobs whose estimate already elapsed)
        are clamped to *just after* ``now``: the scheduler knows the nodes
        are still busy but has no information beyond that; using an epsilon
        keeps the profile consistent while letting other work be planned.
        """
        profile = cls(total_nodes, origin=now)
        pairs = [
            (end if end > now else now + _OVERRUN_EPSILON, nodes)
            for end, nodes in running
        ]
        if not pairs:
            return profile
        pairs.sort()
        busy = sum(nodes for _end, nodes in pairs)
        if busy > total_nodes:
            raise ValueError(
                f"running jobs hold {busy} nodes on a {total_nodes}-node machine"
            )
        times = [now]
        free = [total_nodes - busy]
        level = total_nodes - busy
        for end, nodes in pairs:
            level += nodes
            if times[-1] == end:
                free[-1] = level
            else:
                times.append(end)
                free.append(level)
        profile._times = times
        profile._free = free
        return profile

    def clone(self) -> "AvailabilityProfile":
        """An independent copy: two list copies, O(segments).

        Neither side sees the other's later mutations.  Eager on purpose:
        nearly every clone is written to at once, and so is its parent (the
        copies-per-clone census is in ``docs/architecture.md``).
        """
        other = AvailabilityProfile.__new__(AvailabilityProfile)
        other.total_nodes = self.total_nodes
        other._times = list(self._times)
        other._free = list(self._free)
        return other

    # -- queries ----------------------------------------------------------------

    @property
    def origin(self) -> float:
        return self._times[0]

    def free_at(self, time: float) -> int:
        """Free nodes at ``time`` (must be >= origin)."""
        if time < self._times[0]:
            raise ValueError(f"time {time} precedes profile origin {self._times[0]}")
        return self._free[bisect_right(self._times, time) - 1]

    def fits_at_origin(self, nodes: int, duration: float) -> bool:
        """Whether ``free >= nodes`` holds on all of ``[origin, origin + duration)``.

        ``earliest_start(nodes, duration) == origin`` without the search:
        the scan ends at the first dip or the first breakpoint at or past
        the window's end, so it reads only the segments a job starting
        *now* would occupy.
        """
        times = self._times
        free = self._free
        n = len(times)
        end = times[0] + duration
        i = 0
        while free[i] >= nodes:
            i += 1
            if i == n or times[i] >= end:
                return True
        return False

    def __len__(self) -> int:
        """Number of segments (breakpoints, the origin included)."""
        return len(self._times)

    def steps(self) -> list[tuple[float, int]]:
        """The profile as ``(time, free_nodes_from_time)`` pairs (a copy)."""
        return list(zip(self._times, self._free))

    def canonical_steps(self) -> list[tuple[float, int]]:
        """Steps with level-equal breakpoints merged.

        A breakpoint where the free count does not change never affects a
        query: a first-fit answer is the origin, ``after`` or a breakpoint
        that follows an infeasible segment.  :meth:`release` and
        :meth:`unreserve` delete the ones their addition creates, but a
        *reservation* can still level a step it abuts (a ``w``-wide job
        planned to start where a ``w``-wide one ends), so equality
        comparisons — the incremental-vs-rebuild cross-check — go through
        this form.
        """
        out: list[tuple[float, int]] = []
        for time, free in zip(self._times, self._free):
            if out and out[-1][1] == free:
                continue
            out.append((time, free))
        return out

    def earliest_start(self, nodes: int, duration: float, after: float | None = None) -> float:
        """Earliest ``t >= after`` with ``free >= nodes`` on ``[t, t+duration)``.

        ``after`` defaults to the profile origin.  Always returns a finite
        time provided ``nodes <= total_nodes`` (the final segment is fully
        free); raises ``ValueError`` otherwise.
        """
        if nodes > self.total_nodes:
            raise ValueError(f"{nodes} nodes never fit a {self.total_nodes}-node machine")
        times = self._times
        origin = times[0]
        start_at = origin if after is None or after < origin else after
        return _first_fit(times, self._free, len(times), nodes, duration, start_at)[0]

    def allocate(self, nodes: int, duration: float, after: float | None = None) -> float:
        """Fused :meth:`earliest_start` + :meth:`reserve`; returns the start.

        Finds the earliest feasible window and commits the reservation in
        one pass — the found window is free by construction, so the
        re-validation scan :meth:`reserve` performs is skipped.  The
        resulting profile is bit-identical to the two-call sequence
        (same breakpoints, same float arithmetic); conservative and
        slack backfilling call this once per queued job.
        """
        if nodes > self.total_nodes:
            raise ValueError(f"{nodes} nodes never fit a {self.total_nodes}-node machine")
        if duration <= 0:
            # reserve() treats non-positive durations as no-ops; match it.
            return self.earliest_start(nodes, duration, after)
        times = self._times
        origin = times[0]
        start_at = origin if after is None or after < origin else after
        free = self._free
        n = len(times)
        candidate, lo, hi = _first_fit(times, free, n, nodes, duration, start_at)
        end = candidate + duration
        if end == candidate:
            # A duration the float sum absorbs reserves nothing; reserve()
            # still leaves the start breakpoint behind, so match it.
            self._ensure_breakpoint(candidate)
            return candidate
        # Split the two edges the scan stopped on — the far one first, so
        # ``lo`` still names the candidate's segment.
        if hi == n or times[hi] != end:
            times.insert(hi, end)
            free.insert(hi, free[hi - 1])
        if times[lo] != candidate:
            lo += 1
            times.insert(lo, candidate)
            free.insert(lo, free[lo - 1])
            hi += 1
        for i in range(lo, hi):
            free[i] -= nodes
        return candidate

    # -- mutation ----------------------------------------------------------------

    def reserve(self, start: float, duration: float, nodes: int) -> None:
        """Subtract ``nodes`` free nodes over ``[start, start + duration)``.

        Raises ``ValueError`` if the reservation would drive any segment
        negative — callers must query :meth:`earliest_start` first.
        Zero-duration reservations are no-ops.
        """
        if duration <= 0:
            return
        self._reserve_span(start, start + duration, nodes)

    def reserve_until(self, start: float, end: float, nodes: int) -> None:
        """Subtract ``nodes`` free nodes over ``[start, end)``.

        Like :meth:`reserve`, but the end breakpoint is placed at exactly
        ``end`` rather than the float sum ``start + duration`` — callers
        that know the end instant (capacity outages with a repair ETA) use
        this so independently-built profiles agree bit for bit.
        """
        if end <= start:
            return
        self._reserve_span(start, end, nodes)

    def reserve_from_origin(self, duration: float, nodes: int) -> None:
        """Subtract ``nodes`` over ``[origin, origin + duration)``.

        The start-a-job-*now* fast path, equivalent to
        ``reserve(origin, duration, nodes)`` on a *prefix-anchored*
        profile — one in which every reservation interval begins at the
        origin, so availability is ``total - sum(nodes_k for end_k > t)``
        and non-decreasing in time.  The first segment is then the
        minimum over any span starting at the origin, and checking it
        replaces the per-segment feasibility scan.  The persistent
        profile (running-job remainders, active outages) and the EASY
        decision snapshots satisfy the invariant by construction;
        profiles carrying future-start reservations (conservative
        backfilling) must keep using :meth:`reserve`.
        """
        if duration <= 0:
            return
        free = self._free
        if free[0] < nodes:
            raise ValueError(
                f"reservation of {nodes} nodes from origin exceeds "
                f"availability ({free[0]} free)"
            )
        times = self._times
        end = times[0] + duration
        # Inlined _ensure_breakpoint(end) + bisect_left(times, end): one
        # bisect serves both the insertion point and the subtraction bound.
        idx = bisect_right(times, end) - 1
        if times[idx] == end:
            hi = idx
        else:
            times.insert(idx + 1, end)
            free.insert(idx + 1, free[idx])
            hi = idx + 1
        for i in range(hi):
            free[i] -= nodes

    def _reserve_span(self, start: float, end: float, nodes: int) -> None:
        times = self._times
        free = self._free
        if start < times[0]:
            raise ValueError(f"reservation start {start} precedes origin {times[0]}")
        self._ensure_breakpoint(start)
        self._ensure_breakpoint(end)
        lo = bisect_left(times, start)
        hi = bisect_left(times, end)
        for i in range(lo, hi):
            if free[i] < nodes:
                raise ValueError(
                    f"reservation of {nodes} nodes over [{start}, {end}) exceeds "
                    f"availability ({free[i]} free at {times[i]})"
                )
        for i in range(lo, hi):
            free[i] -= nodes

    def release(self, end: float, nodes: int) -> None:
        """Add ``nodes`` free nodes back over ``[origin, end)``.

        The inverse of :meth:`reserve` for the *remainder* of a commitment:
        when a job completes at the current origin but was projected to run
        until ``end``, its nodes become free over exactly that interval.
        Callers must first advance the origin to the completion instant
        (see :meth:`advance_origin`); ``end <= origin`` is a no-op — the
        projection already expired on its own.

        Raises ``ValueError`` if the release would lift any segment above
        ``total_nodes`` (releasing nodes that were never reserved).  If the
        addition levels the step at ``end`` — the usual case, the released
        job's own projected end — that breakpoint is deleted, so a profile
        without level-equal breakpoints stays without them.
        """
        if nodes <= 0 or end <= self._times[0]:
            return
        times = self._times
        free = self._free
        total = self.total_nodes
        # Inlined _ensure_breakpoint(end) + bisect_left(times, end).
        idx = bisect_right(times, end) - 1
        if times[idx] == end:
            hi = idx
        else:
            times.insert(idx + 1, end)
            free.insert(idx + 1, free[idx])
            hi = idx + 1
        for i in range(hi):
            if free[i] + nodes > total:
                raise ValueError(
                    f"release of {nodes} nodes up to {end} exceeds total_nodes "
                    f"({free[i]} already free at {times[i]})"
                )
        for i in range(hi):
            free[i] += nodes
        if free[hi - 1] == free[hi]:
            # The reservation edge this release cancels: no step left here.
            del times[hi]
            del free[hi]

    def unreserve(self, start: float, end: float, nodes: int) -> None:
        """Add ``nodes`` free nodes back over ``[start, end)``.

        The checked inverse of the reservation :meth:`allocate` (or
        :meth:`reserve_until`) made over that interval: a plan that keeps
        its profile across decision points withdraws the reservations of
        jobs it has to re-place.  The part of the interval the origin has
        already passed is gone and is clamped away, like :meth:`release`;
        an interval entirely at or before the origin is a no-op.

        Raises ``ValueError`` if any segment would rise above
        ``total_nodes`` (un-reserving what was never reserved).  Where the
        addition levels the step at ``start`` or at ``end`` that breakpoint
        is deleted, so ``allocate`` followed by ``unreserve`` of the same
        interval restores :meth:`steps` exactly.
        """
        if start < self._times[0]:
            start = self._times[0]
        if nodes <= 0 or end <= start:
            return
        times = self._times
        free = self._free
        total = self.total_nodes
        self._ensure_breakpoint(start)
        self._ensure_breakpoint(end)
        lo = bisect_left(times, start)
        hi = bisect_left(times, end)
        for i in range(lo, hi):
            if free[i] + nodes > total:
                raise ValueError(
                    f"unreserve of {nodes} nodes over [{start}, {end}) exceeds "
                    f"total_nodes ({free[i]} already free at {times[i]})"
                )
        for i in range(lo, hi):
            free[i] += nodes
        # The far edge first, so ``lo`` still names the near one.
        if free[hi - 1] == free[hi]:
            del times[hi]
            del free[hi]
        if lo and free[lo - 1] == free[lo]:
            del times[lo]
            del free[lo]

    def advance_origin(self, now: float) -> None:
        """Move the origin forward to ``now``, dropping passed segments.

        Keeps the profile anchored at the simulation clock so persistent
        maintenance does not accumulate dead history.  ``now`` at or before
        the current origin is a no-op; the free level holding at ``now``
        becomes the new first segment.
        """
        if now <= self._times[0]:
            return
        times = self._times
        free = self._free
        idx = bisect_right(times, now) - 1
        if idx > 0:
            del times[:idx]
            del free[:idx]
        times[0] = now

    def _ensure_breakpoint(self, time: float) -> None:
        times = self._times
        idx = bisect_right(times, time) - 1
        if times[idx] != time:
            times.insert(idx + 1, time)
            self._free.insert(idx + 1, self._free[idx])


#: Projected remainder assumed for a job that exceeded its estimate.  The
#: scheduler cannot know the true remainder; one second keeps the profile
#: well-formed without blocking the future.
_OVERRUN_EPSILON = 1.0
