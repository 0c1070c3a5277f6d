"""The compiled backfilling queue walks and their loader.

``repro/core/_walk.c`` keeps conservative backfilling's reservation plan
in the extension (``_ReservationPlan.keep_prefix`` and ``place`` ported to
C, one call per decision) and ports the blocked-head phase of
``EasyBackfill.select_indexed``; the Python walks stay the reference.
These tests hold each pair to the same started jobs (and, for
conservative backfilling, the same planned starts and plan profile), bit
for bit, over single walks and over whole decision sequences; check that
the extension's entry points refuse every malformed input before they
read the profile, that a plan's memory stays bounded and its references
are released; and check that every way the loader can fail leaves the
Python walks running with the same results and says why in
``native.status()``.
"""

from __future__ import annotations

import gc
import heapq
import operator
import os
import random
import shutil
import subprocess
import sys
import time
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core import native
from repro.core.job import Job
from repro.core.machine import Machine
from repro.core.profile import AvailabilityProfile
from repro.core.scheduler import RunningJob, SchedulerContext
from repro.core.simulator import simulate
from repro.core.state import SchedulingState
from repro.schedulers.base import JobQueue, OrderedQueueScheduler, SubmitOrderPolicy
from repro.schedulers.disciplines import (
    ConservativeBackfill,
    EasyBackfill,
    _ReservationPlan,
)
from repro.schedulers.registry import build_scheduler, registered_configurations
from tests.conftest import make_jobs, schedule_digest

SRC = Path(repro.__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def kernel():
    """The compiled conservative plan's type."""
    kernel = native.conservative_plan()
    if kernel is None:
        pytest.skip(f"compiled walk unavailable: {native.status()}")
    return kernel


# -- kernel vs Python walk ------------------------------------------------------


def _profile(total: int, origin: float, reservations, rng_seed: int | None):
    """A plan-like profile: reservations drawn by hypothesis, or 200+
    segments of random ones (the size where a first-fit scan is longest)."""
    profile = AvailabilityProfile(total, origin)
    if rng_seed is not None:
        import random

        rng = random.Random(rng_seed)
        for _ in range(120):
            profile.allocate(
                rng.randint(1, max(1, total // 4)),
                rng.uniform(10.0, 5000.0),
                after=origin + rng.uniform(0.0, 1e5),
            )
        assert len(profile) >= 200
    for offset, duration, nodes in reservations:
        profile.allocate(min(nodes, total), duration, after=origin + offset)
    return profile


estimates = st.one_of(
    st.sampled_from([0.0, 1e-12, 1e-10, 1e-9]),  # zero, sub-epsilon, epsilon
    # Whole seconds on whole-second offsets: windows ending exactly on a
    # breakpoint, where every >= against > matters.
    st.integers(min_value=1, max_value=20).map(float),
    st.floats(min_value=0.5, max_value=2e4, allow_nan=False),
)
offsets = st.one_of(
    st.integers(min_value=0, max_value=30).map(float),
    st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
)


@st.composite
def walk_case(draw):
    big = draw(st.booleans())
    total = 256 if big else draw(st.integers(min_value=1, max_value=32))
    # Origins near 2e7 and beyond absorb a 1e-9 duration (t + d == t).
    origin = draw(st.sampled_from([0.0, 1e7, 2.5e7, 3e7 + 0.5]))
    reservations = draw(
        st.lists(
            st.tuples(
                offsets,
                estimates,
                st.integers(min_value=1, max_value=total),
            ),
            max_size=15,
        )
    )
    seed = draw(st.integers(min_value=0, max_value=5)) if big else None
    profile = _profile(total, origin, reservations, seed)
    widths = st.one_of(st.just(total), st.integers(min_value=1, max_value=total))
    rows = draw(st.lists(st.tuples(widths, estimates), max_size=30))
    queue = [
        Job(job_id=i, submit_time=0.0, nodes=w, runtime=1.0, estimate=e)
        for i, (w, e) in enumerate(rows)
    ]
    keep = draw(st.integers(min_value=0, max_value=len(queue)))  # == len: empty tail
    # Free nodes at walk entry; 0 leaves no job fitting (shortest == inf).
    free = draw(st.integers(min_value=0, max_value=total))
    return profile, queue, keep, free


def _load(kernel, profile, queue, free, clamps=()):
    """A fresh compiled plan loaded from ``profile`` and walked over
    ``queue``: the plan and the started positions."""
    plan = kernel()
    queue = JobQueue.of(queue)
    started = plan.walk(
        queue, queue.nodes, queue.estimates, profile.origin, free, profile, clamps
    )
    return plan, started


def _both_walks(profile, queue, keep, free, kernel):
    """The Python plan and the compiled one through the same two decisions
    at the profile's origin: ``queue[:keep]`` placed on ``profile``, then,
    with the started jobs gone, the planned ones kept by identity and the
    rest of ``queue`` placed behind them.  Each side's plan and the
    ``(started job ids, started positions)`` of the second decision."""
    now = profile.origin
    python = _ReservationPlan(profile.clone())
    first, _indices = python.place(queue[:keep], 0, now, free)
    compiled, positions = _load(kernel, profile, queue[:keep], free)
    assert positions == _indices
    assert compiled.steps() == python.profile.steps()
    gone = {id(job) for job in first}
    rest = JobQueue([job for job in queue if id(job) not in gone])
    free -= sum(job.nodes for job in first)
    kept = python.keep_prefix(rest, now)
    started, indices = python.place(rest, kept, now, free)
    positions = compiled.walk(rest, rest.nodes, rest.estimates, now, free)
    c_started = [rest[i] for i in positions]
    ids = [job.job_id for job in started]
    return (python, (ids, indices)), (
        compiled,
        ([job.job_id for job in c_started], positions),
    )


def _same_bits(a, b):
    return [repr(x) for x in a] == [repr(float(x)) for x in b]


def _same_plans(python, compiled):
    assert [j.job_id for j in compiled.jobs] == [j.job_id for j in python.jobs]
    assert all(map(operator.is_, compiled.jobs, python.jobs))
    assert _same_bits([float(s) for s in python.starts], compiled.starts)
    steps, c_steps = python.profile.steps(), compiled.steps()
    assert [level for _t, level in c_steps] == [level for _t, level in steps]
    assert _same_bits([float(t) for t, _level in steps], [t for t, _level in c_steps])


@given(case=walk_case())
@settings(max_examples=400, deadline=None)
def test_kernel_walk_is_the_python_walk(kernel, case):
    profile, queue, keep, free = case
    (python, expected), (compiled, got) = _both_walks(
        profile, queue, keep, free, kernel
    )
    assert got == expected
    _same_plans(python, compiled)


@pytest.mark.parametrize("end", [4.0, 5.0, 6.0])
def test_window_ending_on_a_breakpoint(kernel, end):
    """The whole machine is reserved from 5: a 2-node job of estimate 5
    fits now exactly (its window ends on the breakpoint), one of 6 does
    not; both walks agree on which."""
    profile = AvailabilityProfile(4, 0.0)
    profile.reserve(5.0, 5.0, 4)
    queue = [Job(0, 0.0, 2, 1.0, estimate=end), Job(1, 0.0, 2, 1.0, estimate=7.0)]
    (python, expected), (compiled, got) = _both_walks(profile, queue, 0, 4, kernel)
    assert got == expected
    assert expected[0] == ([0] if end <= 5.0 else [])
    assert (compiled.jobs, compiled.starts) == (python.jobs, python.starts)
    assert compiled.steps() == python.profile.steps()


def test_kernel_walks_of_every_size_match_the_python_walk(kernel):
    """Short and long queues on short and long profiles, one after the
    other on one plan: the memory the plan keeps grows, results stay the
    Python walk's."""
    plan = kernel()
    for n, seed in ((5, 1), (400, 2), (3, 3), (900, 4)):
        jobs = JobQueue(make_jobs(n, seed=seed, max_nodes=64))
        profile = _profile(64, 0.0, [], seed)
        python = _ReservationPlan(profile.clone())
        expected = python.place(jobs, 0, 0.0, 17)[1]
        got = plan.walk(jobs, jobs.nodes, jobs.estimates, 0.0, 17, profile, ())
        assert got == expected
        _same_plans(python, plan)
        (python, expected), (compiled, got) = _both_walks(profile, jobs, n // 2, 17, kernel)
        assert got == expected
        _same_plans(python, compiled)


def _appended(jobs):
    queue = JobQueue()
    for job in jobs:
        queue.append(job)
    return queue


def _assert_emptied(plan, queue):
    """A walk that raised leaves the plan empty: nothing to reuse."""
    assert plan.steps() == [] and plan.jobs == [] and plan.starts == []
    with pytest.raises(ValueError, match="holds no profile"):
        plan.walk(queue, queue.nodes, queue.estimates, 0.0, 4)


# The queue's columns made whole at construction, or grown job by job.
@pytest.mark.parametrize("make", [JobQueue, _appended], ids=["columns", "built"])
def test_job_wider_than_the_machine_raises_the_same_error(kernel, make):
    profile = AvailabilityProfile(4, 0.0)
    queue = make([Job(0, 0.0, 8, 5.0), Job(1, 0.0, 1, 5.0)])
    with pytest.raises(ValueError) as python:
        _ReservationPlan(profile.clone()).place(queue, 0, 0.0, 4)
    plan = kernel()
    with pytest.raises(ValueError) as compiled:
        plan.walk(queue, queue.nodes, queue.estimates, 0.0, 4, profile, ())
    message = "8 nodes never fit a 4-node machine"
    assert str(compiled.value) == str(python.value) == message
    assert profile.steps() == [(0.0, 4)]  # read, never edited
    _assert_emptied(plan, queue)


@pytest.mark.parametrize(
    "columns",
    [
        (array("i", [1, 1]), array("d", [1.0, 1.0])),  # 32-bit widths
        (array("q", [1, 1]), array("f", [1.0, 1.0])),  # 32-bit estimates
        (array("q", [1]), array("d", [1.0, 1.0])),  # shorter than the queue
    ],
    ids=["int32", "float32", "short"],
)
def test_columns_are_checked_before_their_pointers_are_passed(kernel, columns):
    queue = JobQueue([Job(0, 0.0, 1, 1.0), Job(1, 0.0, 1, 1.0)])
    queue.nodes, queue.estimates = columns  # tampered with
    plan = kernel()
    profile = AvailabilityProfile(4, 0.0)
    with pytest.raises(ValueError, match="queue columns"):
        plan.walk(queue, queue.nodes, queue.estimates, 0.0, 4, profile, ())
    with pytest.raises(ValueError, match="queue columns"):
        plan.walk(list(queue), array("q", [1, 1]), array("d", [1.0]), 0.0, 4)


def test_profile_below_the_job_width_is_an_error_not_a_wild_read(kernel):
    """A profile whose last level is below a job's width (never built by
    the simulator) makes the kernel stop at the last segment."""
    profile = AvailabilityProfile(8, 0.0)
    # Corrupt on purpose: 8 free until 10, then 2 forever.
    profile._times, profile._free = [0.0, 10.0], [8, 2]
    # The 1-node job keeps the walk going past the origin check; the
    # 4-node one needs 100 s and finds no segment that wide after 10.
    queue = JobQueue([Job(0, 0.0, 4, 100.0), Job(1, 0.0, 1, 1.0)])
    plan = kernel()
    with pytest.raises(ValueError, match="no segment of the profile has 4 free nodes"):
        plan.walk(queue, queue.nodes, queue.estimates, 0.0, 8, profile, ())
    assert profile.steps() == [(0.0, 8), (10.0, 2)]  # left as it was
    _assert_emptied(plan, queue)


def test_overrun_clamp_beyond_the_free_nodes_raises_the_overcommit_message(kernel):
    """Clamps wider than the origin's level (never so in a simulation):
    the load fails with the message reserving from the origin raises."""
    profile = AvailabilityProfile.from_running(8, 0.0, [(10.0, 5)])
    queue = JobQueue([Job(0, 0.0, 1, 1.0)])
    plan = kernel()
    with pytest.raises(ValueError) as compiled:
        plan.walk(queue, queue.nodes, queue.estimates, 0.0, 3, profile, (2, 2))
    with pytest.raises(ValueError) as python:
        profile.clone().reserve_from_origin(1.0, 4)
    assert str(compiled.value) == (
        "reservation of 2 nodes from origin exceeds availability (1 free)"
    )
    assert str(python.value).startswith("reservation of 4 nodes from origin")
    assert profile.steps() == [(0.0, 3), (10.0, 8)]
    _assert_emptied(plan, queue)


def test_withdrawing_above_the_machine_is_an_error_not_a_wild_write(kernel):
    """A profile with a level above the machine (never built by the
    simulator): withdrawing a reservation planned on it would lift that
    level further, which both walks refuse."""
    profile = AvailabilityProfile(4, 0.0)
    # Corrupt on purpose: 1 free until 10, then 5 of 4 forever.
    profile._times, profile._free = [0.0, 10.0], [1, 5]
    a, b = Job(0, 0.0, 2, 5.0), Job(1, 0.0, 1, 1.0)
    python = _ReservationPlan(profile.clone())
    assert python.place([a, b], 0, 0.0, 2) == ([b], [1])
    plan, started = _load(kernel, profile, [a, b], 2)
    assert started == [1] and plan.jobs == [a] and plan.starts == [10.0]
    assert plan.steps() == python.profile.steps()
    assert plan.steps() == [(0.0, 0), (1.0, 1), (10.0, 3), (15.0, 5)]
    with pytest.raises(ValueError, match="unreserve of 2 nodes .* exceeds total_nodes"):
        python.keep_prefix([], 0.0)
    queue = JobQueue()
    with pytest.raises(ValueError) as compiled:
        plan.walk(queue, queue.nodes, queue.estimates, 0.0, 1)
    assert str(compiled.value) == "unreserve of 2 nodes exceeds total_nodes (4)"
    _assert_emptied(plan, queue)


# -- the EASY walk vs the Python walk ------------------------------------------


class _Context:
    """Just what ``EasyBackfill.select_indexed`` reads from a context: every
    ``profile`` access is a fresh copy of one snapshot, so both walks plan
    on the same one."""

    state = None  # the compiled walk copies ``profile`` as it is

    def __init__(self, snapshot, free, vectorize):
        self.snapshot = snapshot
        self.now = snapshot.origin
        self.free_nodes = free
        self.total_nodes = snapshot.total_nodes
        self.vectorize = vectorize

    @property
    def profile(self):
        return self.snapshot.clone()

    def queue_min_nodes(self, expected_count):
        return None


@pytest.fixture(scope="module")
def easy():
    """An EASY discipline whose compiled walk loaded."""
    discipline = EasyBackfill()
    if discipline._compiled_walk() is None:
        pytest.skip(f"compiled walk unavailable: {native.status()}")
    return discipline


def _easy_both(discipline, snapshot, free, queue):
    """``select_indexed`` with ``ctx.vectorize`` off and on: job ids and
    indices of each."""
    out = []
    for vectorize in (False, True):
        ctx = _Context(snapshot, free, vectorize)
        started, indices = discipline.select_indexed(queue, ctx)
        out.append(([job.job_id for job in started], list(indices or ())))
    return out


@st.composite
def easy_case(draw):
    """A decision snapshot as the simulator takes it (running jobs'
    projected ends, overrunning ones clamped) and a queue on it.

    Half the cases live inside the overrun clamp's second: running jobs
    end there and queued estimates are zero or sub-second, so a clamped
    zero estimate can move the shadow and restart the scan."""
    tight = draw(st.booleans())
    total = draw(st.sampled_from([4, 8] if tight else [1, 4, 16, 256]))
    # Origins near 2e7 and beyond absorb a 1e-12 estimate (t + d == t).
    now = draw(st.sampled_from([0.0, 100.0, 2.5e7, 3e7 + 0.5]))
    if tight:
        ends = st.sampled_from([-1.0, 0.25, 0.5, 0.75])
        queued = st.sampled_from([0.0, 0.5, 0.8, 1.0, 5.0])
    else:
        # At or before now (overrun, clamped to now + 1), or whole seconds
        # later (ends that estimates can tie with).
        ends = st.one_of(
            st.sampled_from([-50.0, -1.0, 0.0]),
            st.integers(min_value=1, max_value=40).map(float),
            st.floats(min_value=0.5, max_value=5e3, allow_nan=False),
        )
        queued = estimates
    running = []
    busy = 0
    for end_offset, width in draw(
        st.lists(
            st.tuples(ends, st.integers(1, total // 2 if tight else total)),
            max_size=2 if tight else 8,
        )
    ):
        if busy + width <= total:
            running.append((now + end_offset, width))
            busy += width
    snapshot = AvailabilityProfile.from_running(total, now, running)
    # Sometimes a plan-like snapshot with future reservations, where a
    # case-2 backfill can move the shadow.
    for offset, duration, width in draw(
        st.lists(st.tuples(offsets, estimates, st.integers(1, total)), max_size=4)
    ):
        snapshot.allocate(width, duration, after=now + 1.0 + offset)
    # Full-width jobs, and narrow ones that fit the few free nodes a busy
    # snapshot leaves (several backfills per decision).
    widths = st.one_of(
        st.just(total),
        st.integers(min_value=1, max_value=max(1, total // 8)),
        st.integers(min_value=1, max_value=total),
    )
    rows = draw(
        st.lists(st.tuples(widths, queued), min_size=1, max_size=8 if tight else 25)
    )
    if tight:
        rows[0] = (total, rows[0][1])  # a full-width head waits for every end
    queue = [
        Job(job_id=i, submit_time=0.0, nodes=w, runtime=1.0, estimate=e)
        for i, (w, e) in enumerate(rows)
    ]
    return snapshot, total - busy, queue


@given(case=easy_case())
@settings(max_examples=1500, deadline=None)
def test_easy_kernel_is_the_python_walk(easy, case):
    snapshot, free, queue = case
    python, compiled = _easy_both(easy, snapshot, free, queue)
    assert compiled == python


def test_easy_tie_with_the_shadow_backfills():
    """``now + estimate == shadow`` is a backfill (the test is ``<=``)."""
    snapshot = AvailabilityProfile.from_running(4, 0.0, [(10.0, 2)])
    queue = [Job(0, 0.0, 4, 1.0, estimate=5.0), Job(1, 0.0, 2, 1.0, estimate=10.0)]
    discipline = EasyBackfill()
    python, compiled = _easy_both(discipline, snapshot, 2, queue)
    assert python == ([1], [1])
    assert compiled == python


def test_easy_shadow_uses_the_raw_head_estimate():
    """A zero-estimate head's shadow is where it fits for zero seconds (10),
    not for the epsilon its reservation would hold (20, past a dip at
    10.5): the 15-second job ends after the real shadow and stays."""
    snapshot = AvailabilityProfile.from_running(8, 0.0, [(10.0, 4)])
    snapshot.reserve(10.5, 9.5, 8)  # the whole machine over [10.5, 20)
    queue = [
        Job(0, 0.0, 8, 1.0, estimate=0.0),  # head: shadow 10, extra 0
        Job(1, 0.0, 1, 1.0, estimate=15.0),
    ]
    python, compiled = _easy_both(EasyBackfill(), snapshot, 4, queue)
    assert compiled == python == ([], [])


def test_easy_clamped_zero_estimate_moves_the_shadow_and_rescans():
    """A zero estimate backfills as ending now (the raw estimate) but is
    reserved for the overrun epsilon (the clamp), which here pushes the
    shadow from 0.5 to 1.0 and admits a job the scan had passed."""
    snapshot = AvailabilityProfile.from_running(8, 0.0, [(0.5, 4)])
    queue = [
        Job(0, 0.0, 8, 1.0, estimate=5.0),  # head: shadow 0.5, extra 0
        Job(1, 0.0, 1, 1.0, estimate=0.8),  # refused: ends after 0.5
        Job(2, 0.0, 3, 1.0, estimate=0.0),  # backfills, holds 3 until 1.0
    ]
    python, compiled = _easy_both(EasyBackfill(), snapshot, 4, queue)
    assert compiled == python == ([2, 1], [2, 1])


def test_easy_case_two_backfill_that_moves_the_shadow_rescans():
    """A case-2 backfill (on extra nodes, past the shadow) moves the shadow
    when the head's window runs into a later dip.  Simulator snapshots
    never have one (they are prefix-anchored: only extra shrinks); a plan
    with a future reservation does, and both walks still agree."""
    snapshot = AvailabilityProfile.from_running(16, 0.0, [(10.0, 8)])
    snapshot.reserve(20.0, 20.0, 2)  # 14 free over [20, 40)
    queue = [
        Job(0, 0.0, 14, 1.0, estimate=15.0),  # head: shadow 10, extra 2
        Job(1, 0.0, 3, 1.0, estimate=11.0),  # refused: ends after 10, 3 > 2
        Job(2, 0.0, 2, 1.0, estimate=22.0),  # case 2; the head now dips at 20
    ]
    # After job 2 the shadow is 22, and job 1 ends by it.
    python, compiled = _easy_both(EasyBackfill(), snapshot, 8, queue)
    assert compiled == python == ([2, 1], [2, 1])


@pytest.mark.parametrize("vectorize", [False, True], ids=["python", "compiled"])
def test_easy_job_wider_than_the_machine_raises_the_same_error(easy, vectorize):
    snapshot = AvailabilityProfile(4, 0.0)
    queue = [Job(0, 0.0, 8, 5.0), Job(1, 0.0, 1, 5.0)]
    with pytest.raises(ValueError) as reference:
        snapshot.clone().earliest_start(8, 5.0)
    ctx = _Context(snapshot, 4, vectorize)
    with pytest.raises(ValueError) as walk:
        easy.select_indexed(queue, ctx)
    message = "8 nodes never fit a 4-node machine"
    assert str(walk.value) == str(reference.value) == message


@pytest.mark.parametrize("vectorize", [False, True], ids=["python", "compiled"])
def test_easy_snapshot_below_the_free_count_raises_the_same_error(easy, vectorize):
    """Free nodes the snapshot does not have (never so in a simulation):
    reserving the started prefix fails the same way on both walks."""
    snapshot = AvailabilityProfile.from_running(8, 0.0, [(10.0, 4)])
    queue = [
        Job(0, 0.0, 4, 1.0, estimate=5.0),
        Job(1, 0.0, 4, 1.0, estimate=5.0),
        Job(2, 0.0, 8, 1.0, estimate=5.0),  # blocked head
        Job(3, 0.0, 1, 1.0, estimate=5.0),
    ]
    with pytest.raises(ValueError) as walk:
        easy.select_indexed(queue, _Context(snapshot, 8, vectorize))
    assert str(walk.value) == (
        "reservation of 4 nodes from origin exceeds availability (0 free)"
    )


def test_easy_profile_below_the_head_width_is_an_error_not_a_wild_read(easy):
    snapshot = AvailabilityProfile(8, 0.0)
    # Corrupt on purpose: 8 free until 10, then 2 forever.
    snapshot._times, snapshot._free = [0.0, 10.0], [8, 2]
    queue = [Job(0, 0.0, 4, 100.0), Job(1, 0.0, 1, 1.0)]
    ctx = _Context(snapshot, 3, True)
    with pytest.raises(ValueError, match="no segment of the profile has 4 free nodes"):
        easy.select_indexed(queue, ctx)


def test_easy_kernel_walks_of_every_size_match_the_python_walk(easy):
    """Queues and profiles past the scratch the extension first keeps:
    results stay the Python walk's."""
    for n, seed in ((5, 1), (400, 2), (3, 3), (900, 4)):
        jobs = make_jobs(n, seed=seed, max_nodes=64)
        running = [(float(10 * (i + 1)), 1) for i in range(min(n, 60))]
        snapshot = AvailabilityProfile.from_running(64, 0.0, running)
        head = Job(10**6, 0.0, 64, 1.0, estimate=50.0)
        python, compiled = _easy_both(easy, snapshot, 4, [head, *jobs])
        assert compiled == python


# -- the entry points check every input before reading the profile -------------


class _Spy:
    """A profile that logs every attribute the walk reads or writes."""

    def __init__(self, profile):
        self.__dict__.update(real=profile, log=[])

    def __getattr__(self, name):
        self.log.append(name)
        return getattr(self.real, name)

    def __setattr__(self, name, value):
        self.log.append(f"set {name}")
        setattr(self.real, name, value)


def _queue_columns(count=3):
    return array("q", [4] + [1] * (count - 1)), array("d", [5.0] * count)


def _call(kind, profile, nodes, estimates, at=0):
    """One walk over the columns on a fresh plan or EASY's scratch.  ``at``
    is the blocked head (EASY) or how many jobs the queue has beyond its
    columns (conservative)."""
    if kind == "conservative":
        kernel = native.conservative_plan()
        queue = [Job(i, 0.0, 1, 1.0) for i in range(len(nodes) + at)]
        call = lambda: kernel().walk(queue, nodes, estimates, 0.0, 2, profile, ())
        walk = kernel
    else:
        walk = native.easy_walk()
        call = lambda: walk(profile, (), nodes, estimates, at, 2, 0.0)
    if walk is None:
        pytest.skip(f"compiled walk unavailable: {native.status()}")
    return call()


BAD_COLUMNS = {
    "int32": lambda n, e: (array("i", n), e),
    "float32": lambda n, e: (n, array("f", e)),
    "c-long": lambda n, e: (array("l", n), e),  # 8 bytes, but not 'q'
    "list": lambda n, e: (list(n), e),
    "short-widths": lambda n, e: (n[:-1], e),
    "short-estimates": lambda n, e: (n, e[:-1]),
}


@pytest.mark.parametrize("kind", ["conservative", "easy"])
@pytest.mark.parametrize("bad", sorted(BAD_COLUMNS))
def test_bad_columns_raise_before_the_profile_is_touched(kind, bad):
    profile = AvailabilityProfile.from_running(4, 0.0, [(10.0, 2)])
    before = profile.steps()
    spy = _Spy(profile)
    nodes, estimates = BAD_COLUMNS[bad](*_queue_columns())
    with pytest.raises(ValueError, match="queue columns"):
        _call(kind, spy, nodes, estimates)
    assert spy.log == []
    assert profile.steps() == before


@pytest.mark.parametrize("kind", ["conservative", "easy"])
@pytest.mark.parametrize("at", [-1, 3, 4], ids=["negative", "past-end", "far"])
def test_offset_or_head_out_of_range_raises_before_the_profile_is_touched(kind, at):
    spy = _Spy(AvailabilityProfile.from_running(4, 0.0, [(10.0, 2)]))
    with pytest.raises(ValueError, match="queue columns"):
        _call(kind, spy, *_queue_columns(), at=at)
    assert spy.log == []


BAD_PROFILES = {
    "empty": ([], [], ValueError, "must have segments"),
    "uneven": ([0.0, 5.0], [2], ValueError, "must have segments"),
    "tuples": ((0.0,), (4,), TypeError, "must be lists"),
    "text-time": (["0"], [4], TypeError, "times must be floats"),
    "float-level": ([0.0], [4.0], TypeError, "levels ints"),
}


@pytest.mark.parametrize("kind", ["conservative", "easy"])
@pytest.mark.parametrize("bad", sorted(BAD_PROFILES))
def test_malformed_profile_raises_and_is_left_as_it_was(kind, bad):
    times, levels, error, message = BAD_PROFILES[bad]
    profile = AvailabilityProfile(4, 0.0)
    profile._times, profile._free = times, levels  # corrupt on purpose
    saved = (list(times), list(levels))
    nodes, estimates = _queue_columns()
    with pytest.raises(error, match=message):
        _call(kind, profile, nodes, estimates)
    assert profile._times is times and profile._free is levels
    assert (list(times), list(levels)) == saved


class _Reentrant:
    """A profile whose first read runs ``inside()``: a walk entered from
    Python code that runs while another walk is under way (a property, a
    finalizer, a collection, another thread)."""

    def __init__(self, profile, inside):
        self.real, self.inside = profile, inside
        self.total_nodes = profile.total_nodes

    @property
    def _times(self):
        inside, self.inside = self.inside, None
        if inside is not None:
            inside()
        return self.real._times

    @property
    def _free(self):
        return self.real._free


def test_a_walk_run_while_the_scratch_is_lent_gets_its_own(kernel):
    """A walk entered while another is under way must not write into the
    memory the first still reads.  A conservative walk on another plan
    uses that plan's own memory, and one on the plan under way is refused
    (its plan may be half loaded); an EASY walk entered while EASY's kept
    scratch is lent takes scratch of its own."""
    easy = native.easy_walk()
    jobs = make_jobs(60, seed=6, max_nodes=48)
    queue = JobQueue(jobs)
    outer = _profile(64, 0.0, [], 1)
    inner = _profile(64, 0.0, [], 2)
    expected_outer = _load(kernel, outer, jobs, 17)[0]
    expected_inner = _load(kernel, inner, jobs, 9)[0]
    snapshot = AvailabilityProfile.from_running(
        64, 0.0, [(float(10 * (i + 1)), 1) for i in range(60)]
    )
    narrow = make_jobs(60, seed=6, max_nodes=4)
    blocked = JobQueue([Job(10**6, 0.0, 64, 1.0, estimate=50.0), *narrow])

    def easy_picks(profile=snapshot):
        return easy(profile, (), blocked.nodes, blocked.estimates, 0, 4, 0.0)

    expected_picks = easy_picks()
    assert expected_picks
    nested, refused, picks = [], [], []
    plan = kernel()

    def walks_inside(plan_under_way=True):
        other = kernel()
        other.walk(queue, queue.nodes, queue.estimates, 0.0, 9, inner, ())
        nested.append(other)
        picks.append(easy_picks())
        if plan_under_way:
            with pytest.raises(RuntimeError, match="plan is in use") as exc:
                plan.walk(queue, queue.nodes, queue.estimates, 0.0, 9)
            refused.append(exc)
            with pytest.raises(RuntimeError, match="plan is in use"):
                plan.steps()

    for _ in range(3):
        reentrant = _Reentrant(outer, walks_inside)
        plan.walk(queue, queue.nodes, queue.estimates, 0.0, 17, reentrant, ())
        assert plan.steps() == expected_outer.steps()
        assert plan.starts == expected_outer.starts
        reentrant = _Reentrant(snapshot, lambda: walks_inside(False))
        assert easy_picks(reentrant) == expected_picks
    assert len(nested) == 6 and len(refused) == 3
    for other in nested:
        assert other.steps() == expected_inner.steps()
        assert other.starts == expected_inner.starts
    assert picks == [expected_picks] * 6


# -- the kept plan against the Python plan, decision after decision -------------


class _Lockstep:
    """A machine, its state and its wait queue moved by hand, delta for
    delta the way the simulator moves them, and decided at every event by
    two conservative disciplines at once: the Python plan and the compiled
    one, which must start the same jobs and keep the same plan."""

    def __init__(self, total, depth, filtered, verify):
        self.machine = Machine(total)
        self.running = {}
        self.state = SchedulingState(total, verify_every=1 if verify else 0)
        self.ctx = SchedulerContext(self.machine, self.running, state=self.state)
        self.queue = JobQueue()
        self.python = ConservativeBackfill(depth)
        self.compiled = ConservativeBackfill(depth)
        self.filtered = filtered
        self.ends = []  # (actual end, job id, job), a heap
        self.now = 0.0
        self.reused = 0

    def submit(self, job):
        self.queue.append(job)
        self.state.note_enqueued(job.nodes)
        self.decide()

    def withdraw(self, position):
        job = self.queue[position]
        self.queue.delete([position])
        self.state.note_dequeued(job.nodes)
        self.decide()

    def reorder(self, seed):
        # What a recomputing order (SMART, PSRS) does to the store.
        order = list(self.queue)
        random.Random(seed).shuffle(order)
        self.queue.reorder(order)
        self.decide()

    def advance(self, dt):
        until = self.now + dt
        while self.ends and self.ends[0][0] <= until:
            end, job_id, _job = heapq.heappop(self.ends)
            self.now = max(self.now, end)
            self.ctx.now = self.now
            self.machine.release(job_id)
            del self.running[job_id]
            self.state.on_release(job_id)
            self.decide()
        self.now = until
        self.decide()

    def decide(self):
        ctx = self.ctx
        ctx.now = self.now
        queue = self.queue
        # A wrapper's filtered queue: a plain list, copied into columns.
        view = [job for job in queue if job.job_id % 3] if self.filtered else queue
        kept = self.compiled._valid_plan(ctx) is not None
        ctx.vectorize = False
        started, indices = self.python.select_indexed(view, ctx)
        ctx.vectorize = True
        c_started, c_indices = self.compiled.select_indexed(view, ctx)
        assert [j.job_id for j in c_started] == [j.job_id for j in started]
        assert list(c_indices or ()) == list(indices or ())
        python, compiled = self.python._plan, self.compiled._plan
        assert (python is None) == (compiled is None)
        if python is not None:
            _same_plans(python, compiled)
            self.reused += kept
        for job in started:
            queue.delete([queue.position(job)])
            self.state.note_dequeued(job.nodes)
            self.machine.allocate(job)
            self.running[job.job_id] = RunningJob(job=job, start_time=self.now)
            self.state.on_start(job.job_id, job.estimated_runtime, job.nodes)
            heapq.heappush(self.ends, (self.now + job.runtime, job.job_id, job))


@st.composite
def decision_sequences(draw):
    """Arrivals (zero, sub-epsilon and whole-second estimates; runs that
    end early, on time or in overrun), clock advances that complete what
    is due, withdrawals and reorders of the queue, on machines of 4 to 64
    nodes, with or without a ``depth`` bound, a filtering wrapper and
    state verification."""
    total = draw(st.sampled_from([4, 8, 16, 64]))
    widths = st.one_of(st.just(total), st.integers(min_value=1, max_value=total))
    event = st.one_of(
        st.tuples(
            st.just("arrive"),
            widths,
            estimates,
            st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0]),  # runtime / estimate
        ),
        st.tuples(
            st.just("advance"),
            st.one_of(
                st.integers(min_value=0, max_value=30).map(float),
                st.floats(min_value=0.0, max_value=60.0, allow_nan=False),
            ),
        ),
        st.tuples(st.just("withdraw"), st.integers(min_value=0, max_value=1 << 16)),
        st.tuples(st.just("reorder"), st.integers(min_value=0, max_value=1 << 16)),
    )
    events = draw(st.lists(event, min_size=1, max_size=60))
    depth = draw(st.sampled_from([None, None, 1, 3]))
    return total, events, depth, draw(st.booleans()), draw(st.booleans())


def _play(kernel, case):
    total, events, depth, filtered, verify = case
    machine = _Lockstep(total, depth, filtered, verify)
    for job_id, event in enumerate(events):
        kind = event[0]
        if kind == "arrive":
            _kind, width, estimate, used = event
            # A zero estimate runs ``used`` seconds: an overrun from the start.
            runtime = estimate * used if estimate > 0 else used
            machine.submit(Job(job_id, machine.now, width, runtime, estimate=estimate))
        elif kind == "advance":
            machine.advance(event[1])
        elif machine.queue and kind == "withdraw":
            machine.withdraw(event[1] % len(machine.queue))
        elif machine.queue:
            machine.reorder(event[1])
    machine.advance(1e6)
    return machine


@given(case=decision_sequences())
@settings(max_examples=300, deadline=None)
def test_kept_plan_is_the_python_plan_decision_after_decision(kernel, case):
    _play(kernel, case)


def test_decision_sequences_reuse_the_kept_plan(kernel):
    """The lockstep machine above does reach kept plans, overruns and
    withdrawals past the kept prefix (so the property checks them)."""
    rng = random.Random(5)
    events = []
    for _ in range(300):
        roll = rng.random()
        if roll < 0.5:
            events.append(("arrive", rng.randint(1, 16), float(rng.randint(1, 30)),
                           rng.choice([0.5, 1.0, 2.0])))
        elif roll < 0.8:
            events.append(("advance", float(rng.randint(0, 10))))
        elif roll < 0.9:
            events.append(("withdraw", rng.randrange(1 << 16)))
        else:
            events.append(("reorder", rng.randrange(1 << 16)))
    machine = _play(kernel, (16, events, None, False, True))
    assert machine.reused > 20
    assert machine.state.verifications > 0


# -- the plan's memory and references ---------------------------------------------


def test_plans_release_their_memory_and_their_jobs(kernel):
    """Cells run over and over — plans created, kept, reused, invalidated
    and dropped by ``reset()`` — hold no memory or job past their use:
    traced memory (which sees ``PyMem_*``) stays flat."""
    import tracemalloc

    config = [c for c in _conservative_cells() if c.key == "fcfs/conservative"][0]
    jobs = make_jobs(300, seed=9, max_nodes=48, mean_gap=20.0)

    def cell():
        scheduler = build_scheduler(config, 64)
        simulate(jobs, scheduler, 64, backend="numpy")
        assert isinstance(scheduler.discipline._plan, kernel)
        scheduler.reset()
        assert scheduler.discipline._plan is None

    cell()
    tracemalloc.start()
    try:
        cell()
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(8):
            cell()
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 16 * 1024, grown


def test_a_plan_releases_the_jobs_it_no_longer_plans(kernel):
    """Withdrawn and reloaded-away jobs lose the plan's reference, and a
    dropped plan gives all of them back."""
    profile = AvailabilityProfile(4, 0.0)
    profile.reserve(0.0, 10.0, 3)  # one node free until 10
    # Five wide jobs planned after 10, and a narrow one that starts now
    # (it keeps the walk from stopping early).
    jobs = [Job(i, 0.0, 2 + i % 3, 5.0) for i in range(5)] + [Job(5, 0.0, 1, 5.0)]

    def refs():
        return [sys.getrefcount(job) for job in jobs]

    base = refs()
    queue = JobQueue(jobs)
    plan = kernel()
    assert plan.walk(queue, queue.nodes, queue.estimates, 0.0, 1, profile, ()) == [5]
    assert plan.jobs == jobs[:5]
    assert refs() == [b + 2 for b in base[:5]] + [base[5] + 1]  # queue, plan
    short = JobQueue(jobs[:2])  # the other four left the queue
    assert plan.walk(short, short.nodes, short.estimates, 0.0, 1) == []
    assert plan.jobs == jobs[:2]
    del queue
    assert refs() == [b + 2 for b in base[:2]] + base[2:]  # short, plan
    plan.walk(short, short.nodes, short.estimates, 0.0, 4, AvailabilityProfile(4, 0.0), ())
    assert plan.jobs == []  # the first starts, the second waits unplanned
    assert refs() == [b + 1 for b in base[:2]] + base[2:]
    del short
    queue = JobQueue(jobs)
    plan.walk(queue, queue.nodes, queue.estimates, 0.0, 1, profile, ())
    assert refs() == [b + 2 for b in base[:5]] + [base[5] + 1]
    del plan
    assert refs() == [b + 1 for b in base]


def test_a_plan_takes_part_in_garbage_collection(kernel):
    """A plan is a container: a cycle through the jobs it plans is
    collected."""
    import weakref

    class Marker:
        pass

    profile = AvailabilityProfile(4, 0.0)
    profile.reserve(0.0, 10.0, 3)
    plan = kernel()
    assert gc.is_tracked(plan)
    marker = Marker()
    job = Job(0, 0.0, 2, 5.0, meta={"marker": marker})
    marker.plan = plan  # job -> meta -> marker -> plan -> job
    queue = JobQueue([job, Job(1, 0.0, 1, 5.0)])
    assert plan.walk(queue, queue.nodes, queue.estimates, 0.0, 1, profile, ()) == [1]
    assert job in gc.get_referents(plan)
    alive = weakref.ref(marker)
    del plan, marker, job, queue
    gc.collect()
    assert alive() is None


# -- whole simulations on both backends -----------------------------------------


def _conservative_cells():
    keys = ("fcfs/conservative", "psrs/conservative", "smart-ffia/conservative")
    return [c for c in registered_configurations() if c.key in keys]


def _backfilling_cells():
    keys = ("fcfs/easy", "psrs/easy", "smart-ffia/easy")
    return _conservative_cells() + [
        c for c in registered_configurations() if c.key in keys
    ]


@pytest.mark.parametrize("seed", [3, 4])
@pytest.mark.parametrize("config", _backfilling_cells(), ids=lambda c: c.key)
def test_registry_cells_match_the_python_walk(config, seed):
    """Early completions (loose estimates), arrivals and zero estimates:
    the fast backend's compiled walks give the python backend's schedule.
    Under ``REPRO_VERIFY_STATE=1`` every reused conservative plan is also
    re-walked from scratch through the kernel."""
    jobs = make_jobs(150, seed=seed, max_nodes=48, mean_gap=25.0)
    jobs[5] = Job(5, jobs[5].submit_time, 3, 0.0, estimate=0.0)
    runs = {
        backend: simulate(jobs, build_scheduler(config, 64), 64, backend=backend)
        for backend in ("python", "numpy")
    }
    python, numpy = runs["python"], runs["numpy"]
    assert schedule_digest(numpy.schedule) == schedule_digest(python.schedule)
    assert (numpy.decision_points, numpy.max_queue_length) == (
        python.decision_points,
        python.max_queue_length,
    )


@pytest.mark.parametrize(
    "key", ["psrs/easy", "smart-ffia/easy", "psrs/conservative"]
)
def test_reordered_queues_reach_the_compiled_walks(kernel, easy, monkeypatch, key):
    """PSRS and SMART queues take the compiled walks on the fast backend,
    which read the order policy's own store in place."""
    (config,) = [c for c in registered_configurations() if c.key == key]
    scheduler = build_scheduler(config, 64)
    reads = []

    def spy(method):
        def read(self, kernel, queue, *args):
            reads.append(queue is scheduler.order_policy.queue)
            return method(self, kernel, queue, *args)

        return read

    monkeypatch.setattr(
        EasyBackfill, "_select_compiled", spy(EasyBackfill._select_compiled)
    )
    monkeypatch.setattr(
        ConservativeBackfill,
        "_select_compiled",
        spy(ConservativeBackfill._select_compiled),
    )
    jobs = make_jobs(150, seed=3, max_nodes=48, mean_gap=25.0)
    simulate(jobs, scheduler, 64, backend="numpy")
    assert reads and all(reads)


def test_bounded_depth_reads_the_column_prefix():
    jobs = make_jobs(120, seed=8, max_nodes=48, mean_gap=20.0)
    runs = [
        simulate(
            jobs,
            OrderedQueueScheduler(SubmitOrderPolicy(), ConservativeBackfill(depth=4)),
            64,
            backend=backend,
        )
        for backend in ("python", "numpy")
    ]
    assert [(i.job.job_id, i.start_time) for i in runs[0].schedule] == [
        (i.job.job_id, i.start_time) for i in runs[1].schedule
    ]


# -- the loader ------------------------------------------------------------------


@pytest.fixture
def loader(monkeypatch, tmp_path):
    """A loader that has not run yet in this process, caching under
    ``tmp_path/cache``; the session's kernel is restored afterwards."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(native, "_status", None)
    monkeypatch.setattr(native, "_kernels", None)
    return tmp_path / "cache" / "repro"


needs_compiler = pytest.mark.skipif(shutil.which("cc") is None, reason="no cc on PATH")


def _cell_results():
    """One conservative cell on each backend: (python, numpy) triples."""
    jobs = make_jobs(100, seed=12, max_nodes=48, mean_gap=30.0)
    config = _conservative_cells()[0]
    out = []
    for backend in ("python", "numpy"):
        result = simulate(jobs, build_scheduler(config, 64), 64, backend=backend)
        out.append((schedule_digest(result.schedule), result.decision_points))
    return out


def _assert_fallback(reason: str):
    assert native.conservative_plan() is None
    assert native.status().startswith("python walk:")
    assert reason in native.status()
    python, numpy = _cell_results()
    assert numpy == python


def test_no_compiler_leaves_the_python_walk(loader, monkeypatch, tmp_path):
    empty = tmp_path / "bin"
    empty.mkdir()
    monkeypatch.setenv("PATH", str(empty))
    _assert_fallback("no C compiler")
    assert not any(loader.glob("*.so"))


def test_read_only_cache_leaves_the_python_walk(loader, monkeypatch):
    loader.mkdir(parents=True, mode=0o700)
    loader.chmod(0o500)
    if os.access(loader, os.W_OK):  # privileged users write through modes
        def read_only(*args, **kwargs):
            raise OSError(30, "Read-only file system")

        monkeypatch.setattr(native.tempfile, "mkstemp", read_only)
    try:
        _assert_fallback("could not build")
    finally:
        loader.chmod(0o700)


@pytest.mark.parametrize("mode", [0o770, 0o707], ids=["group", "world"])
def test_writable_cache_directory_is_refused(loader, mode):
    loader.mkdir(parents=True)
    loader.chmod(mode)
    _assert_fallback("group- or world-writable")
    assert not any(loader.iterdir())  # nothing compiled into it


def test_cache_under_a_writable_parent_is_refused(loader):
    """Whoever may write the directory above the cache could swap the
    cache for one of their own between the checks and the load."""
    loader.parent.mkdir()
    loader.parent.chmod(0o770)
    _assert_fallback("group- or world-writable")
    assert os.path.realpath(loader.parent) + ":" in native.status()
    assert not any(loader.glob("*.so"))


@needs_compiler
def test_cache_under_a_sticky_shared_directory_loads(loader):
    """A world-writable parent is safe when sticky, as ``/tmp`` is: only
    an entry's owner may rename or remove it."""
    loader.parent.mkdir()
    loader.parent.chmod(0o1777)
    assert native.conservative_plan() is not None
    assert native.status().startswith("loaded"), native.status()


def test_no_home_means_no_compile(loader, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", "relative/ignored")
    monkeypatch.setattr(native.os.path, "expanduser", lambda path: path)
    _assert_fallback("no private cache directory")


def test_cache_under_a_file_is_unusable(loader, monkeypatch, tmp_path):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    _assert_fallback("no private cache directory")


def test_no_python_headers_leaves_the_python_walk(loader, monkeypatch, tmp_path):
    """An interpreter without its C headers builds nothing: ``status()``
    names the missing ``Python.h`` and the cells are the Python walk's."""
    include = tmp_path / "include"
    include.mkdir()
    _include, suffix = native._interpreter()
    monkeypatch.setattr(native, "_interpreter", lambda: (str(include), suffix))
    _assert_fallback(f"no Python.h in {include}")
    assert not any(loader.glob("*.so"))


def test_library_name_moves_with_the_abi_and_the_include_directory(tmp_path):
    """Each interpreter builds and loads its own extension: the name ends
    in the ABI suffix and hashes it and the include directory."""
    include, suffix = native._interpreter()
    source = native._SOURCE.read_bytes()
    library, sidecar = native._library(tmp_path, source, include, suffix)
    assert library.name.endswith(suffix) and sidecar.suffix == ".sha256"
    other_abi = ".cpython-399-x86_64-linux-gnu.so"
    moved = native._library(tmp_path, source, include, other_abi)[0]
    assert moved.name.endswith(other_abi)
    assert moved.name.split(".")[0] != library.name.split(".")[0]
    elsewhere = native._library(tmp_path, source, include + "-other", suffix)[0]
    assert elsewhere.name.endswith(suffix) and elsewhere != library
    assert native._command(include)[-2:] == ("-I", include)


def _loader_env(cache: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["XDG_CACHE_HOME"] = str(cache)
    return env


#: Waits until an agreed instant, loads, runs one walk against Python.
_LOAD_AND_WALK = """
import sys, time
time.sleep(max(0.0, float(sys.argv[1]) - time.time()))
from repro.core import native
from repro.core.job import Job
from repro.core.profile import AvailabilityProfile
from repro.schedulers.base import JobQueue
from repro.schedulers.disciplines import _ReservationPlan
kernel = native.conservative_plan()
print(native.status())
if kernel is not None:
    profile = AvailabilityProfile(8, 0.0)
    profile.allocate(6, 50.0)
    queue = JobQueue(
        Job(i, 0.0, 1 + i % 7, 1.0, estimate=10.0 * (i + 1)) for i in range(20)
    )
    a = _ReservationPlan(profile.clone())
    b = kernel()
    started = b.walk(queue, queue.nodes, queue.estimates, 0.0, 2, profile, ())
    assert a.place(queue, 0, 0.0, 2)[1] == started
    assert (a.starts, a.jobs, a.profile.steps()) == (b.starts, b.jobs, b.steps())
    print("walk ok")
"""


def _load_in_child(cache: Path, at: float = 0.0) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-c", _LOAD_AND_WALK, str(at)],
        env=_loader_env(cache),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def _finish(child: subprocess.Popen) -> str:
    out, err = child.communicate(timeout=120)
    assert child.returncode == 0, err
    return out


@needs_compiler
@pytest.mark.parametrize("damage", ["truncated", "garbage", "digest"])
def test_damaged_library_is_rebuilt_not_mapped(tmp_path, damage):
    cache = tmp_path / "cache"
    first = _finish(_load_in_child(cache))
    assert "(built)" in first and "walk ok" in first
    (library,) = (cache / "repro").glob("*.so")
    digest = library.with_suffix(".sha256")
    if damage == "truncated":
        library.write_bytes(library.read_bytes()[: library.stat().st_size // 2])
    elif damage == "garbage":
        library.write_bytes(os.urandom(library.stat().st_size))
    else:
        digest.write_text("0" * 64 + "\n")
    again = _finish(_load_in_child(cache))
    assert "(built)" in again and "walk ok" in again
    third = _finish(_load_in_child(cache))
    assert third.startswith("loaded") and "(built)" not in third


@needs_compiler
def test_library_not_owned_safely_is_refused(tmp_path):
    cache = tmp_path / "cache"
    _finish(_load_in_child(cache))
    (library,) = (cache / "repro").glob("*.so")
    library.chmod(0o720)
    out = _finish(_load_in_child(cache))
    assert out.startswith("python walk: refused") and "group- or world-writable" in out
    assert "walk ok" not in out


@needs_compiler
def test_two_processes_building_at_once_share_one_library(tmp_path):
    cache = tmp_path / "cache"
    at = time.time() + 1.0  # both start compiling at the same instant
    children = [_load_in_child(cache, at) for _ in range(2)]
    outs = [_finish(child) for child in children]
    for out in outs:
        assert out.startswith("loaded") and "walk ok" in out
    files = sorted(p.name for p in (cache / "repro").iterdir())
    assert len(files) == 2 and files[0].endswith(".sha256") and files[1].endswith(".so")
    assert "(built)" not in _finish(_load_in_child(cache))


@needs_compiler
def test_kernel_loads_where_a_compiler_exists():
    assert native.status().startswith("loaded"), native.status()
    assert native.status().split()[1].endswith(native._interpreter()[1])


def test_regression_gate_floors_the_compiled_walk_at_2x():
    from benchmarks.check_regression import compare

    key, easy = "simulate_conservative_2k_speedup_x", "simulate_easy_1k_speedup_x"
    baseline = {"seconds": {key: 6.0, easy: 1.6}}
    assert compare(baseline, {"seconds": {key: 2.5, easy: 1.3}}, 3.0) == []
    (problem,) = compare(baseline, {"seconds": {key: 1.9, easy: 1.3}}, 3.0)
    assert problem.startswith(key) and "2x bar" in problem


def test_regression_gate_floors_the_easy_20k_speedup_at_1_2x():
    from benchmarks.check_regression import compare

    key = "simulate_easy_20k_speedup_x"
    baseline = {"seconds": {key: 3.6}}
    assert compare(baseline, {"seconds": {key: 1.3}}, 3.0) == []
    (problem,) = compare(baseline, {"seconds": {key: 1.1}}, 3.0)
    assert problem.startswith(key) and "1.2x bar" in problem


def test_importing_the_cli_does_not_load_the_kernel(tmp_path):
    """Neither the import nor an EASY cell on the python backend loads the
    kernels; the first EASY cell on the fast backend does."""
    code = """
import sys, repro.experiments.cli
from repro.core.simulator import simulate
from repro.schedulers.registry import build_scheduler, registered_configurations
from tests.conftest import make_jobs

loaded = lambda: "repro.core.native" in sys.modules
print(loaded())
config = next(c for c in registered_configurations() if c.key == "fcfs/easy")
jobs = make_jobs(60, seed=5, max_nodes=48, mean_gap=20.0)
simulate(jobs, build_scheduler(config, 64), 64, backend="python")
print(loaded())
simulate(jobs, build_scheduler(config, 64), 64, backend="numpy")
print(loaded())
"""
    env = _loader_env(tmp_path / "cache")
    env["PYTHONPATH"] += os.pathsep + str(SRC.parent)
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.split() == ["False", "False", "True"]
