"""Unit tests for PSRS: the preemptive kernel and the conversion."""

import math
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.job import Job
from repro.schedulers.psrs import (
    PreemptiveScheduleEntry,
    PsrsOrderPolicy,
    _bin_index,
    _modified_smith_ratio,
    _smith_ratio,
    preemptive_psrs,
    psrs_order,
)
from repro.schedulers.weights import WeightFn, estimated_area_weight, unit_weight


def J(job_id, nodes, runtime, weight=None):
    return Job(job_id=job_id, submit_time=0.0, nodes=nodes, runtime=runtime, weight=weight)


class TestPreemptiveKernel:
    def test_empty(self):
        assert preemptive_psrs([], 8) == []

    def test_single_small_job(self):
        entries = preemptive_psrs([J(0, 2, 10.0)], 8)
        assert entries[0].completion_time == 10.0
        assert not entries[0].is_wide
        assert entries[0].preemptions == 0

    def test_single_wide_job_runs_immediately_on_empty_machine(self):
        entries = preemptive_psrs([J(0, 8, 10.0)], 8)
        assert entries[0].completion_time == 10.0
        assert entries[0].is_wide

    def test_smalls_run_concurrently(self):
        jobs = [J(0, 4, 10.0), J(1, 4, 10.0)]
        entries = preemptive_psrs(jobs, 8)
        assert all(e.completion_time == 10.0 for e in entries)

    def test_wide_preempts_after_patience(self):
        # Small job keeps the machine half busy; the wide job (runtime 10)
        # reaches the head and waits patience * 10 = 10s, then preempts.
        jobs = [J(0, 4, 100.0, weight=1e9), J(1, 5, 10.0, weight=1.0)]
        # job0 has the higher modified ratio: starts at 0; wide job 1 arms at 0.
        entries = {e.job.job_id: e for e in preemptive_psrs(jobs, 8, patience=1.0)}
        assert entries[1].is_wide
        assert entries[1].completion_time == pytest.approx(20.0)  # waits 10, runs 10
        # job 0: 10s done before preemption, preempted for 10s, resumes.
        assert entries[0].completion_time == pytest.approx(110.0)
        assert entries[0].preemptions == 1

    def test_wide_job_armed_once_started_smalls_fill_machine(self):
        # All four smalls start at t=0, so the wide job is the head of the
        # *unstarted* list immediately — it is waiting, arms at 0, and
        # preempts at patience * 10 = 10.
        smalls = [J(i, 2, 50.0, weight=100.0) for i in range(4)]
        wide = J(99, 8, 10.0, weight=0.0001)
        entries = {
            e.job.job_id: e
            for e in preemptive_psrs(
                smalls + [wide], 8, weight=lambda j: j.effective_weight
            )
        }
        assert entries[99].completion_time == pytest.approx(20.0)
        assert all(entries[i].completion_time == pytest.approx(60.0) for i in range(4))
        assert all(entries[i].preemptions == 1 for i in range(4))

    def test_wide_job_not_armed_until_head(self):
        # Eight high-ratio smalls (only four run at a time): the wide job
        # does not become the head of the unstarted list until t=50 when
        # the second wave starts, so its patience clock starts there.
        smalls = [J(i, 2, 50.0, weight=100.0) for i in range(8)]
        wide = J(99, 8, 10.0, weight=0.0001)
        entries = {
            e.job.job_id: e
            for e in preemptive_psrs(
                smalls + [wide], 8, weight=lambda j: j.effective_weight
            )
        }
        # First wave runs undisturbed to 50.
        assert all(entries[i].completion_time == pytest.approx(50.0) for i in range(4))
        assert all(entries[i].preemptions == 0 for i in range(4))
        # Wide arms at 50, preempts at 60, runs 60-70.
        assert entries[99].completion_time == pytest.approx(70.0)
        # Second wave: 10s done by 60, preempted, resumes 70, finishes 110.
        assert all(entries[i].completion_time == pytest.approx(110.0) for i in range(4, 8))
        assert all(entries[i].preemptions == 1 for i in range(4, 8))

    def test_patience_validation(self):
        with pytest.raises(ValueError, match="patience"):
            preemptive_psrs([J(0, 1, 1.0)], 8, patience=-1.0)

    def test_zero_runtime_jobs(self):
        entries = preemptive_psrs([J(0, 2, 0.0), J(1, 8, 0.0)], 8)
        assert all(e.completion_time == 0.0 for e in entries)

    def test_all_jobs_complete(self):
        jobs = [J(i, 1 + (i * 5) % 8, float(1 + i % 7)) for i in range(50)]
        entries = preemptive_psrs(jobs, 8)
        assert len(entries) == 50
        assert all(e.completion_time >= 0 for e in entries)


class TestBinIndex:
    def test_bin_zero(self):
        assert _bin_index(0.0, 1.0) == 0
        assert _bin_index(1.0, 1.0) == 0

    def test_doubling(self):
        assert _bin_index(2.0, 1.0) == 1
        assert _bin_index(3.0, 1.0) == 2
        assert _bin_index(4.0, 1.0) == 2
        assert _bin_index(5.0, 1.0) == 3

    def test_offset(self):
        assert _bin_index(1.5, 1.5) == 0
        assert _bin_index(3.0, 1.5) == 1
        assert _bin_index(6.0, 1.5) == 2


class TestConversion:
    def test_empty(self):
        assert psrs_order([], 8) == []

    def test_permutation(self):
        jobs = [J(i, 1 + (i * 3) % 8, float(1 + (i * 11) % 40)) for i in range(30)]
        order = psrs_order(jobs, 8)
        assert sorted(j.job_id for j in order) == list(range(30))

    def test_small_bin_precedes_wide_bin_of_same_index(self):
        # One small and one wide job completing in their respective bin 0.
        small = J(0, 1, 0.5)
        wide = J(1, 8, 0.5)
        order = psrs_order([small, wide], 8, small_offset=1.0, wide_offset=1.5)
        assert [j.job_id for j in order] == [0, 1]

    def test_within_bin_smith_order(self):
        # Two smalls completing in the same bin; the heavier Smith ratio
        # (weight/runtime) goes first.
        a = J(0, 1, 10.0, weight=1.0)    # ratio 0.1
        b = J(1, 1, 10.0, weight=100.0)  # ratio 10
        order = psrs_order([a, b], 8, weight=lambda j: j.effective_weight)
        assert [j.job_id for j in order] == [1, 0]

    def test_deterministic(self):
        jobs = [J(i, 1 + (i * 3) % 8, float(1 + (i * 11) % 40)) for i in range(30)]
        assert [j.job_id for j in psrs_order(jobs, 8)] == [
            j.job_id for j in psrs_order(jobs, 8)
        ]


class TestPsrsOrderPolicy:
    def test_policy_round_trip(self):
        policy = PsrsOrderPolicy(8, weight=unit_weight)
        jobs = [J(i, 2, 10.0 * (i + 1)) for i in range(5)]
        for job in jobs:
            policy.enqueue(job, 0.0)
        ordered = policy.ordered(0.0)
        assert sorted(j.job_id for j in ordered) == list(range(5))
        assert policy.recompute_count == 1

    def test_unit_weight_prefers_short_narrow(self):
        policy = PsrsOrderPolicy(8, weight=unit_weight)
        tiny = J(0, 1, 1.0)
        huge = J(1, 4, 10000.0)
        for job in (huge, tiny):
            policy.enqueue(job, 0.0)
        assert policy.ordered(0.0)[0].job_id == 0


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=16),
            st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
        ),
        min_size=1,
        max_size=40,
    ),
    st.sampled_from([unit_weight, estimated_area_weight]),
)
@settings(max_examples=100, deadline=None)
def test_psrs_order_is_total_permutation(spec, weight):
    jobs = [J(i, n, rt) for i, (n, rt) in enumerate(spec)]
    order = psrs_order(jobs, 16, weight=weight)
    assert sorted(j.job_id for j in order) == list(range(len(jobs)))


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=16),
            st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
        ),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=100, deadline=None)
def test_preemptive_schedule_completes_everything(spec):
    jobs = [J(i, n, rt) for i, (n, rt) in enumerate(spec)]
    entries = preemptive_psrs(jobs, 16)
    assert len(entries) == len(jobs)
    by_id = {e.job.job_id: e for e in entries}
    for job in jobs:
        # A job can never complete before its own runtime has elapsed.
        assert by_id[job.job_id].completion_time >= job.estimated_runtime - 1e-9


# -- the conversion against its earlier implementation ---------------------------
#
# ``_oracle_preemptive_psrs`` and ``_oracle_psrs_order`` are the two
# functions as they were before the conversion walked only the occupied
# bins and the kernel dropped started jobs by identity (one pass) instead
# of ``list.remove`` (an ``==`` scan per job): kept verbatim as the oracle.


def _oracle_preemptive_psrs(
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
        for job in list(preempted):
            if job.nodes <= free:
                preempted.remove(job)
                running[job.job_id] = job
                start_times[job.job_id] = now
                free -= job.nodes
        for job in list(pending):
            if job.nodes <= half and job.nodes <= free:
                pending.remove(job)
                running[job.job_id] = job
                start_times[job.job_id] = now
                free -= job.nodes

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


def _oracle_psrs_order(
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
    entries = _oracle_preemptive_psrs(jobs, total_nodes, weight=weight, patience=patience)

    small_bins: dict[int, list[PreemptiveScheduleEntry]] = {}
    wide_bins: dict[int, list[PreemptiveScheduleEntry]] = {}
    for entry in entries:
        if entry.is_wide:
            wide_bins.setdefault(_bin_index(entry.completion_time, wide_offset), []).append(entry)
        else:
            small_bins.setdefault(_bin_index(entry.completion_time, small_offset), []).append(entry)

    def drain(bins: dict[int, list[PreemptiveScheduleEntry]], k: int) -> list[Job]:
        batch = bins.pop(k, [])
        batch.sort(key=lambda e: (-_smith_ratio(e.job, weight), e.job.job_id))
        return [e.job for e in batch]

    order: list[Job] = []
    max_bin = max([*small_bins, *wide_bins], default=-1)
    for k in range(max_bin + 1):
        order.extend(drain(small_bins, k))  # alternation starts with small
        order.extend(drain(wide_bins, k))
    return order


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=16),
            st.one_of(
                st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 64.0]),
                st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            ),
            st.one_of(st.none(), st.floats(min_value=0.0, max_value=1e3)),
        ),
        max_size=40,
    ),
    st.sampled_from([unit_weight, estimated_area_weight, lambda j: j.effective_weight]),
    st.sampled_from([0.0, 0.5, 1.0, 3.0]),
    st.sampled_from([(1.0, 1.5), (2.0, 1.0), (0.25, 7.0)]),
)
@settings(max_examples=300, deadline=None)
def test_psrs_order_is_the_earlier_conversion(spec, weight, patience, offsets):
    """Occupied bins only, identity removal: the same order, job for job."""
    jobs = [J(i, n, rt, weight=w) for i, (n, rt, w) in enumerate(spec)]
    small, wide = offsets
    kwargs = dict(weight=weight, patience=patience, small_offset=small, wide_offset=wide)
    got = psrs_order(jobs, 16, **kwargs)
    expected = _oracle_psrs_order(jobs, 16, **kwargs)
    assert [id(job) for job in got] == [id(job) for job in expected]
    entries = preemptive_psrs(jobs, 16, weight=weight, patience=patience)
    assert entries == _oracle_preemptive_psrs(jobs, 16, weight=weight, patience=patience)
