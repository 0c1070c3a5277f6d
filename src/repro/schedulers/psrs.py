"""PSRS — Preemptive Smith-Ratio Scheduling (Schwiegelshohn [13]).

Section 5.5 of the paper.  PSRS builds a *preemptive* schedule:

1. order all jobs by their modified Smith ratio
   ``weight / (nodes * runtime)``, largest first;
2. greedy list scheduling for jobs needing at most half the machine
   ("small" jobs); a *wide* job (more than half the nodes) that "has been
   waiting for some time" preempts all running jobs, executes alone, and the
   preempted jobs resume afterwards.

The target machine supports neither preemption nor time sharing, so the
paper converts the preemptive schedule into a job *order* (Section 5.5):

1. two geometric sequences of time instants — factor 2, different offsets —
   define completion-time bins, one sequence for wide jobs and one for small
   jobs;
2. each job is assigned to the bin containing its completion time in the
   preemptive schedule; within a bin the original Smith ratio
   (``weight / runtime``) order is maintained;
3. the final order alternates bins from the two sequences, starting with the
   small-job sequence.

The paper leaves three constants unspecified; we expose them as parameters
and document our defaults (see DESIGN.md, substitution 3):

* ``patience`` — a wide job preempts once it has waited ``patience x`` its
  own (estimated) runtime *after reaching the head of the ratio-ordered
  list* (only the head job "has been waiting" in a greedy list schedule;
  arming every wide job at release floods the order with wide jobs and
  destroys the unweighted results).  Default 1.0, the self-length delay
  budget that gives the ESA'96 construction its constant factor;
* ``small_offset`` / ``wide_offset`` — the leading terms of the two
  geometric sequences, defaults 1.0 and 1.5 (any pair of distinct offsets
  satisfies the construction; 1.5 interleaves the sequences evenly in log
  space).

Everything here sees *estimated* runtimes only.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Sequence

from repro.core.job import Job
from repro.schedulers.reorder import RecomputingOrderPolicy
from repro.schedulers.weights import WeightFn, estimated_area_weight


@dataclass(frozen=True, slots=True)
class PreemptiveScheduleEntry:
    """Completion bookkeeping for one job in the preemptive PSRS schedule."""

    job: Job
    completion_time: float
    is_wide: bool
    preemptions: int


def _modified_smith_ratio(job: Job, weight: WeightFn) -> float:
    denom = job.nodes * job.estimated_runtime
    if denom == 0:
        return math.inf
    return weight(job) / denom


def _smith_ratio(job: Job, weight: WeightFn) -> float:
    rt = job.estimated_runtime
    if rt == 0:
        return math.inf
    return weight(job) / rt


def preemptive_psrs(
    jobs: Sequence[Job],
    total_nodes: int,
    *,
    weight: WeightFn = estimated_area_weight,
    patience: float = 1.0,
) -> list[PreemptiveScheduleEntry]:
    """Build the off-line preemptive PSRS schedule for jobs released at 0.

    Returns one entry per job with its completion time in the preemptive
    schedule.  The simulation is event driven: decision points are job
    completions and wide-job trigger times.
    """
    if patience < 0:
        raise ValueError(f"patience must be non-negative, got {patience}")
    if not jobs:
        return []

    half = total_nodes / 2.0
    pending: list[Job] = sorted(
        jobs, key=lambda j: (-_modified_smith_ratio(j, weight), j.job_id)
    )

    remaining: dict[int, float] = {j.job_id: j.estimated_runtime for j in jobs}
    running: dict[int, Job] = {}
    preempted: list[Job] = []  # resumed before fresh small jobs start
    preemption_count: dict[int, int] = {j.job_id: 0 for j in jobs}
    start_times: dict[int, float] = {}
    free = total_nodes
    now = 0.0
    entries: dict[int, PreemptiveScheduleEntry] = {}
    # The wide job at the head of the pending list "has been waiting" since
    # it became the head; it preempts once that wait exceeds patience times
    # its own length.  Wide jobs further down the list are not waiting yet —
    # the greedy list schedule has not reached them.
    armed_head: int | None = None
    armed_at = 0.0

    def finish(job: Job, is_wide: bool) -> None:
        entries[job.job_id] = PreemptiveScheduleEntry(
            job=job,
            completion_time=now,
            is_wide=is_wide,
            preemptions=preemption_count[job.job_id],
        )

    def run_wide(wide: Job) -> None:
        """Preempt everything, run ``wide`` alone to completion."""
        nonlocal now, free
        for job in list(running.values()):
            remaining[job.job_id] -= now - start_times[job.job_id]
            preemption_count[job.job_id] += 1
            preempted.append(job)
            free += job.nodes
            del running[job.job_id]
        # Zero remaining work (job completed exactly now) should complete,
        # not resume.
        still = []
        for job in preempted:
            if remaining[job.job_id] <= 1e-12:
                finish(job, is_wide=False)
            else:
                still.append(job)
        preempted[:] = still
        now += remaining[wide.job_id]
        remaining[wide.job_id] = 0.0
        finish(wide, is_wide=True)

    while pending or running or preempted:
        # 1. Resume preempted jobs, then greedy any-fit over pending small
        #    jobs in ratio order (the paper's "greedy list schedule ... for
        #    all jobs requiring at most 50% of the machine nodes").
        #    Started jobs leave both lists by identity, in one pass each.
        waiting: list[Job] = []
        for job in preempted:
            if job.nodes <= free:
                running[job.job_id] = job
                start_times[job.job_id] = now
                free -= job.nodes
            else:
                waiting.append(job)
        preempted[:] = waiting
        waiting = []
        for job in pending:
            if job.nodes <= half and job.nodes <= free:
                running[job.job_id] = job
                start_times[job.job_id] = now
                free -= job.nodes
            else:
                waiting.append(job)
        pending[:] = waiting

        # 2. Wide job waiting at the head of the list?
        head = pending[0] if pending else None
        trigger = math.inf
        if head is not None and head.nodes > half:
            if armed_head != head.job_id:
                armed_head = head.job_id
                armed_at = now
            trigger = armed_at + patience * head.estimated_runtime
            if now >= trigger or not running:
                pending.pop(0)
                armed_head = None
                run_wide(head)
                continue

        if not running:
            break  # nothing pending can be small (it would have started)

        # 3. Advance to the next event: a completion or the head trigger.
        next_completion = min(
            start_times[job_id] + remaining[job_id] for job_id in running
        )
        now = min(next_completion, trigger)
        # Complete every job whose remaining work elapses by now.  At least
        # one job completes whenever now == next_completion, so the loop
        # always makes progress.
        for job_id in list(running):
            if start_times[job_id] + remaining[job_id] <= now:
                job = running.pop(job_id)
                free += job.nodes
                remaining[job_id] = 0.0
                finish(job, is_wide=False)

    # Anything left preempted or queued is a logic error.
    if len(entries) != len(jobs):
        missing = {j.job_id for j in jobs} - set(entries)
        raise AssertionError(f"preemptive PSRS lost jobs: {sorted(missing)}")
    return [entries[j.job_id] for j in jobs]


def _bin_index(time: float, offset: float) -> int:
    """Index k of the bin ``]offset*2^(k-1), offset*2^k]`` containing time.

    Bin 0 is ``]0, offset]`` and absorbs completions at 0.
    """
    if time <= offset:
        return 0
    return max(1, math.ceil(math.log2(time / offset) - 1e-9))


def psrs_order(
    jobs: Sequence[Job],
    total_nodes: int,
    *,
    weight: WeightFn = estimated_area_weight,
    patience: float = 1.0,
    small_offset: float = 1.0,
    wide_offset: float = 1.5,
) -> list[Job]:
    """Non-preemptive PSRS service order (preemptive schedule + conversion)."""
    if not jobs:
        return []
    entries = preemptive_psrs(jobs, total_nodes, weight=weight, patience=patience)

    small_bins: dict[int, list[PreemptiveScheduleEntry]] = {}
    wide_bins: dict[int, list[PreemptiveScheduleEntry]] = {}
    for entry in entries:
        if entry.is_wide:
            wide_bins.setdefault(_bin_index(entry.completion_time, wide_offset), []).append(entry)
        else:
            small_bins.setdefault(_bin_index(entry.completion_time, small_offset), []).append(entry)

    def ratio_order(entry: PreemptiveScheduleEntry) -> tuple[float, int]:
        return -_smith_ratio(entry.job, weight), entry.job.job_id

    # Only the occupied bins, in ascending index; the alternation starts
    # with the small sequence.
    order: list[Job] = []
    for k in sorted(small_bins.keys() | wide_bins.keys()):
        for bins in (small_bins, wide_bins):
            batch = bins.get(k)
            if batch:
                batch.sort(key=ratio_order)
                order.extend(entry.job for entry in batch)
    return order


class PsrsOrderPolicy(RecomputingOrderPolicy):
    """On-line wait-queue ordering by repeated off-line PSRS runs."""

    def __init__(
        self,
        total_nodes: int,
        *,
        weight: WeightFn = estimated_area_weight,
        patience: float = 1.0,
        small_offset: float = 1.0,
        wide_offset: float = 1.5,
        recompute_threshold: float = 2.0 / 3.0,
    ) -> None:
        super().__init__(total_nodes, recompute_threshold=recompute_threshold)
        self.weight = weight
        self.patience = patience
        self.small_offset = small_offset
        self.wide_offset = wide_offset
        self.name = "PSRS"

    def compute_order(self, jobs: Sequence[Job]) -> list[Job]:
        return psrs_order(
            jobs,
            self.total_nodes,
            weight=self.weight,
            patience=self.patience,
            small_offset=self.small_offset,
            wide_offset=self.wide_offset,
        )
