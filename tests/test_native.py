"""The compiled backfilling queue walks and their loader.

``repro/core/_walk.c`` ports ``_ReservationPlan.place`` and the
blocked-head phase of ``EasyBackfill.select_indexed`` to C; the Python
walks stay the reference.  These tests hold each pair to the same started
jobs (and, for conservative backfilling, the same planned starts and
profile), bit for bit, and check that every way the loader can fail leaves
the Python walks running with the same results and says why in
``native.status()``.
"""

from __future__ import annotations

import os
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
from repro.core.profile import AvailabilityProfile
from repro.core.simulator import simulate
from repro.schedulers.base import OrderedQueueScheduler, SubmitOrderPolicy
from repro.schedulers.disciplines import (
    ConservativeBackfill,
    EasyBackfill,
    _ReservationPlan,
)
from repro.schedulers.registry import build_scheduler, registered_configurations
from tests.conftest import make_jobs, schedule_digest

SRC = Path(repro.__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def walk():
    """The compiled walk (one per module: it owns scratch buffers)."""
    walk = native.conservative_walk()
    if walk is None:
        pytest.skip(f"compiled walk unavailable: {native.status()}")
    return walk


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
    columns = draw(st.booleans())
    return profile, queue, keep, free, columns


def _columns(queue):
    return (
        array("q", [job.nodes for job in queue]),
        array("d", [job.estimated_runtime for job in queue]),
    )


def _both_walks(profile, queue, keep, free, columns, walk):
    now = profile.origin
    python = _ReservationPlan(None, profile.clone())
    compiled = _ReservationPlan(None, profile.clone())
    expected = python.place(queue, keep, now, free)
    got = compiled.place_compiled(
        walk, queue, keep, now, free, _columns(queue) if columns else None
    )
    return (python, expected), (compiled, got)


def _same_bits(a, b):
    return [repr(x) for x in a] == [repr(float(x)) for x in b]


@given(case=walk_case())
@settings(max_examples=400, deadline=None)
def test_kernel_walk_is_the_python_walk(walk, case):
    profile, queue, keep, free, columns = case
    (python, (started, indices)), (compiled, (c_started, c_indices)) = _both_walks(
        profile, queue, keep, free, columns, walk
    )
    assert [j.job_id for j in c_started] == [j.job_id for j in started]
    assert c_indices == indices
    assert [j.job_id for j in compiled.jobs] == [j.job_id for j in python.jobs]
    assert _same_bits([float(s) for s in python.starts], compiled.starts)
    steps, c_steps = python.profile.steps(), compiled.profile.steps()
    assert [level for _t, level in c_steps] == [level for _t, level in steps]
    assert _same_bits([float(t) for t, _level in steps], [t for t, _level in c_steps])


@pytest.mark.parametrize("end", [4.0, 5.0, 6.0])
def test_window_ending_on_a_breakpoint(walk, end):
    """The whole machine is reserved from 5: a 2-node job of estimate 5
    fits now exactly (its window ends on the breakpoint), one of 6 does
    not; both walks agree on which."""
    profile = AvailabilityProfile(4, 0.0)
    profile.reserve(5.0, 5.0, 4)
    queue = [Job(0, 0.0, 2, 1.0, estimate=end), Job(1, 0.0, 2, 1.0, estimate=7.0)]
    (python, expected), (compiled, got) = _both_walks(profile, queue, 0, 4, True, walk)
    assert got == expected
    assert [j.job_id for j in expected[0]] == ([0] if end <= 5.0 else [])
    assert (compiled.jobs, compiled.starts) == (python.jobs, python.starts)
    assert compiled.profile.steps() == python.profile.steps()


def test_kernel_reuses_its_buffers_across_growing_walks(walk):
    """One walk object serves walks of every size: buffers grow, results
    stay the Python walk's."""
    for n, seed in ((5, 1), (400, 2), (3, 3), (900, 4)):
        jobs = make_jobs(n, seed=seed, max_nodes=64)
        profile = _profile(64, 0.0, [], seed)
        (python, expected), (compiled, got) = _both_walks(
            profile, jobs, 0, 17, seed % 2 == 0, walk
        )
        assert got == expected
        assert compiled.starts == python.starts
        assert compiled.profile.steps() == python.profile.steps()


@pytest.mark.parametrize("columns", [True, False], ids=["columns", "built"])
def test_job_wider_than_the_machine_raises_the_same_error(walk, columns):
    profile = AvailabilityProfile(4, 0.0)
    queue = [Job(0, 0.0, 8, 5.0), Job(1, 0.0, 1, 5.0)]
    with pytest.raises(ValueError) as python:
        _ReservationPlan(None, profile.clone()).place(queue, 0, 0.0, 4)
    plan = _ReservationPlan(None, profile.clone())
    with pytest.raises(ValueError) as compiled:
        plan.place_compiled(
            walk, queue, 0, 0.0, 4,
            _columns(queue) if columns else None,
        )  # fmt: skip
    message = "8 nodes never fit a 4-node machine"
    assert str(compiled.value) == str(python.value) == message
    assert plan.profile.steps() == profile.steps()  # left as it was


@pytest.mark.parametrize(
    "columns",
    [
        (array("i", [1, 1]), array("d", [1.0, 1.0])),  # 32-bit widths
        (array("q", [1, 1]), array("f", [1.0, 1.0])),  # 32-bit estimates
        (array("q", [1]), array("d", [1.0, 1.0])),  # shorter than the queue
    ],
    ids=["int32", "float32", "short"],
)
def test_columns_are_checked_before_their_pointers_are_passed(walk, columns):
    queue = [Job(0, 0.0, 1, 1.0), Job(1, 0.0, 1, 1.0)]
    plan = _ReservationPlan(None, AvailabilityProfile(4, 0.0))
    with pytest.raises(ValueError, match="queue columns"):
        plan.place_compiled(walk, queue, 0, 0.0, 4, columns)


def test_profile_below_the_job_width_is_an_error_not_a_wild_read(walk):
    """A profile whose last level is below a job's width (never built by
    the simulator) makes the kernel stop at the last segment."""
    profile = AvailabilityProfile(8, 0.0)
    # Corrupt on purpose: 8 free until 10, then 2 forever.
    profile._times, profile._free = [0.0, 10.0], [8, 2]
    # The 1-node job keeps the walk going past the origin check; the
    # 4-node one needs 100 s and finds no segment that wide after 10.
    queue = [Job(0, 0.0, 4, 100.0), Job(1, 0.0, 1, 1.0)]
    plan = _ReservationPlan(None, profile)
    with pytest.raises(ValueError, match="no segment of the profile has 4 free nodes"):
        plan.place_compiled(walk, queue, 0, 0.0, 8, None)


# -- the EASY walk vs the Python walk ------------------------------------------


class _Context:
    """Just what ``EasyBackfill.select_indexed`` reads from a context: every
    ``profile`` access is a fresh copy of one snapshot, so both walks plan
    on the same one."""

    def __init__(self, snapshot, free, queue, vectorize):
        self.snapshot = snapshot
        self.now = snapshot.origin
        self.free_nodes = free
        self.total_nodes = snapshot.total_nodes
        self.vectorize = vectorize
        self.queue_columns = _columns(queue) if vectorize else None

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
        ctx = _Context(snapshot, free, queue, vectorize)
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
    ctx = _Context(snapshot, 4, queue, vectorize)
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
        easy.select_indexed(queue, _Context(snapshot, 8, queue, vectorize))
    assert str(walk.value) == (
        "reservation of 4 nodes from origin exceeds availability (0 free)"
    )


def test_easy_profile_below_the_head_width_is_an_error_not_a_wild_read(easy):
    snapshot = AvailabilityProfile(8, 0.0)
    # Corrupt on purpose: 8 free until 10, then 2 forever.
    snapshot._times, snapshot._free = [0.0, 10.0], [8, 2]
    queue = [Job(0, 0.0, 4, 100.0), Job(1, 0.0, 1, 1.0)]
    ctx = _Context(snapshot, 3, queue, True)
    with pytest.raises(ValueError, match="no segment of the profile has 4 free nodes"):
        easy.select_indexed(queue, ctx)


def _frame(walk, segments, count, capacity=None, room=None):
    """The EASY walk's ``io`` frame for a call over ``count`` jobs."""
    io = walk._io
    if capacity is not None:
        io[native._IO_CAPACITY] = capacity
    if room is not None:
        io[native._IO_ROOM] = room
    nodes = array("q", [4] + [1] * (count - 1))
    estimates = array("d", [5.0] * count)
    io[native._IO_NODES] = nodes.buffer_info()[0]
    io[native._IO_ESTIMATES] = estimates.buffer_info()[0]
    io[native._IO_COUNT] = count
    io[native._IO_TOTAL] = 4
    io[native._IO_HEAD] = 0
    io[native._IO_FREE] = 2
    io[native._IO_SEGMENTS] = segments
    return io, (nodes, estimates)


@pytest.mark.parametrize(
    "frame",
    [
        dict(segments=0, count=3),  # no origin segment
        dict(segments=300, count=3, capacity=256),  # more steps than room
        dict(segments=250, count=8, capacity=256),  # no room for 8 inserts
        dict(segments=1, count=100, room=64),  # more jobs than picks
    ],
    ids=["empty", "overfull", "no-insert-room", "no-pick-room"],
)
def test_easy_kernel_checks_its_frame_before_touching_a_buffer(frame):
    walk = native.easy_walk()
    if walk is None:
        pytest.skip(f"compiled walk unavailable: {native.status()}")
    io, _keep = _frame(walk, **frame)
    times = walk._times
    times[0] = 0.0
    walk._levels[0] = 4
    before = (bytes(times), bytes(walk._levels))
    code = walk._function(walk._io_at, 0.0)
    assert code == -3  # WALK_NO_ROOM
    assert (io[native._IO_PICKS], io[native._IO_AT]) == (0, -1)
    assert (bytes(times), bytes(walk._levels)) == before


def test_easy_kernel_grows_its_buffers_for_long_queues_and_profiles(easy):
    """Queues and profiles past the first allocation: results stay the
    Python walk's."""
    for n, seed in ((5, 1), (400, 2), (3, 3), (900, 4)):
        jobs = make_jobs(n, seed=seed, max_nodes=64)
        running = [(float(10 * (i + 1)), 1) for i in range(min(n, 60))]
        snapshot = AvailabilityProfile.from_running(64, 0.0, running)
        head = Job(10**6, 0.0, 64, 1.0, estimate=50.0)
        python, compiled = _easy_both(easy, snapshot, 4, [head, *jobs])
        assert compiled == python


# -- whole simulations on both backends -----------------------------------------


def _conservative_cells():
    keys = ("fcfs/conservative", "psrs/conservative", "smart-ffia/conservative")
    return [c for c in registered_configurations() if c.key in keys]


def _backfilling_cells():
    easy = [c for c in registered_configurations() if c.key == "fcfs/easy"]
    return _conservative_cells() + easy


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
    assert native.conservative_walk() is None
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
    assert native.conservative_walk() is not None
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
from repro.schedulers.disciplines import _ReservationPlan
walk = native.conservative_walk()
print(native.status())
if walk is not None:
    profile = AvailabilityProfile(8, 0.0)
    profile.allocate(6, 50.0)
    queue = [Job(i, 0.0, 1 + i % 7, 1.0, estimate=10.0 * (i + 1)) for i in range(20)]
    a = _ReservationPlan(None, profile.clone())
    b = _ReservationPlan(None, profile.clone())
    assert a.place(queue, 0, 0.0, 2) == b.place_compiled(walk, queue, 0, 0.0, 2, None)
    assert (a.starts, a.profile.steps()) == (b.starts, b.profile.steps())
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
