"""Unit and property tests for the availability profile."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.profile import AvailabilityProfile


class TestBasics:
    def test_empty_profile_is_all_free(self):
        p = AvailabilityProfile(64, origin=10.0)
        assert p.free_at(10.0) == 64
        assert p.free_at(1e9) == 64

    def test_free_before_origin_raises(self):
        p = AvailabilityProfile(64, origin=10.0)
        with pytest.raises(ValueError, match="precedes"):
            p.free_at(9.0)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            AvailabilityProfile(0)

    def test_reserve_reduces_window_only(self):
        p = AvailabilityProfile(64)
        p.reserve(10.0, 5.0, 20)
        assert p.free_at(0.0) == 64
        assert p.free_at(10.0) == 44
        assert p.free_at(14.9) == 44
        assert p.free_at(15.0) == 64

    def test_zero_duration_reserve_is_noop(self):
        p = AvailabilityProfile(64)
        p.reserve(10.0, 0.0, 20)
        assert p.free_at(10.0) == 64

    def test_reserve_before_origin_raises(self):
        p = AvailabilityProfile(64, origin=5.0)
        with pytest.raises(ValueError, match="precedes"):
            p.reserve(4.0, 2.0, 1)

    def test_over_reserve_raises(self):
        p = AvailabilityProfile(10)
        p.reserve(0.0, 10.0, 8)
        with pytest.raises(ValueError, match="exceeds"):
            p.reserve(5.0, 1.0, 3)

    def test_overlapping_reservations_stack(self):
        p = AvailabilityProfile(10)
        p.reserve(0.0, 10.0, 4)
        p.reserve(5.0, 10.0, 4)
        assert p.free_at(0.0) == 6
        assert p.free_at(5.0) == 2
        assert p.free_at(10.0) == 6
        assert p.free_at(15.0) == 10

    def test_reserve_until_places_exact_end_breakpoint(self):
        # start + (end - start) loses the last ulp of ``end`` for these
        # values; reserve_until must keep the breakpoint exact anyway.
        start, end = 330.95490119465023, 1842.1866778581186
        assert start + (end - start) != end
        p = AvailabilityProfile(10, origin=start)
        p.reserve_until(start, end, 4)
        assert (end, 10) in p.steps()
        assert p.free_at(start) == 6

    def test_reserve_until_empty_span_is_noop(self):
        p = AvailabilityProfile(10)
        p.reserve_until(5.0, 5.0, 4)
        assert p.free_at(5.0) == 10


class TestEarliestStart:
    def test_empty_machine_starts_now(self):
        p = AvailabilityProfile(64, origin=100.0)
        assert p.earliest_start(64, 50.0) == 100.0

    def test_respects_after(self):
        p = AvailabilityProfile(64, origin=0.0)
        assert p.earliest_start(1, 1.0, after=42.0) == 42.0

    def test_waits_for_release(self):
        p = AvailabilityProfile(10)
        p.reserve(0.0, 100.0, 8)  # running job until t=100
        assert p.earliest_start(2, 5.0) == 0.0
        assert p.earliest_start(3, 5.0) == 100.0

    def test_fits_into_hole(self):
        p = AvailabilityProfile(10)
        p.reserve(0.0, 10.0, 8)
        p.reserve(50.0, 10.0, 8)
        # A 5s job needing 4 nodes fits the hole [10, 50).
        assert p.earliest_start(4, 5.0) == 10.0
        # A 45s job does not fit the hole; next chance after the second block.
        assert p.earliest_start(4, 45.0) == 60.0

    def test_hole_exactly_fits(self):
        p = AvailabilityProfile(10)
        p.reserve(0.0, 10.0, 8)
        p.reserve(50.0, 10.0, 8)
        assert p.earliest_start(4, 40.0) == 10.0

    def test_too_wide_raises(self):
        p = AvailabilityProfile(10)
        with pytest.raises(ValueError, match="never fit"):
            p.earliest_start(11, 1.0)

    def test_after_inside_hole(self):
        p = AvailabilityProfile(10)
        p.reserve(0.0, 10.0, 8)
        p.reserve(50.0, 10.0, 8)
        assert p.earliest_start(4, 5.0, after=20.0) == 20.0
        assert p.earliest_start(4, 35.0, after=20.0) == 60.0


class TestFromRunning:
    def test_builds_release_staircase(self):
        p = AvailabilityProfile.from_running(10, 0.0, [(5.0, 3), (8.0, 4)])
        assert p.free_at(0.0) == 3
        assert p.free_at(5.0) == 6
        assert p.free_at(8.0) == 10

    def test_equal_release_times_merge(self):
        p = AvailabilityProfile.from_running(10, 0.0, [(5.0, 3), (5.0, 4)])
        assert p.free_at(0.0) == 3
        assert p.free_at(5.0) == 10
        assert len(p.steps()) == 2

    def test_overrun_clamped_after_now(self):
        # Projected end in the past: the job overran its estimate.
        p = AvailabilityProfile.from_running(10, 100.0, [(50.0, 4)])
        assert p.free_at(100.0) == 6
        assert p.free_at(102.0) == 10

    def test_over_capacity_rejected(self):
        with pytest.raises(ValueError, match="hold"):
            AvailabilityProfile.from_running(10, 0.0, [(5.0, 8), (6.0, 8)])

    def test_empty_running(self):
        p = AvailabilityProfile.from_running(10, 7.0, [])
        assert p.free_at(7.0) == 10


class TestCloneAndCopyOnWrite:
    def test_clone_reads_identically(self):
        p = AvailabilityProfile(10)
        p.reserve(5.0, 10.0, 4)
        q = p.clone()
        assert q.steps() == p.steps()
        assert q.total_nodes == p.total_nodes

    def test_writes_to_clone_do_not_touch_original(self):
        p = AvailabilityProfile(10)
        p.reserve(5.0, 10.0, 4)
        q = p.clone()
        q.reserve(0.0, 3.0, 6)
        assert p.free_at(0.0) == 10
        assert q.free_at(0.0) == 4

    def test_writes_to_original_do_not_touch_clone(self):
        p = AvailabilityProfile(10)
        q = p.clone()
        p.reserve(0.0, 3.0, 6)
        assert q.free_at(0.0) == 10

    def test_clone_of_clone(self):
        p = AvailabilityProfile(10)
        p.reserve(0.0, 5.0, 2)
        q = p.clone().clone()
        q.reserve(0.0, 5.0, 3)
        assert p.free_at(0.0) == 8
        assert q.free_at(0.0) == 5


class TestRelease:
    def test_release_restores_reserved_window(self):
        p = AvailabilityProfile(10, origin=0.0)
        p.reserve(0.0, 100.0, 4)
        p.release(100.0, 4)  # the job ended at the origin, remainder freed
        assert p.free_at(0.0) == 10
        assert p.free_at(99.0) == 10

    def test_partial_release_after_advance(self):
        # A job reserved [0, 100) finishes early at 30: free [30, 100).
        p = AvailabilityProfile(10)
        p.reserve(0.0, 100.0, 4)
        p.advance_origin(30.0)
        p.release(100.0, 4)
        assert p.free_at(30.0) == 10
        assert p.free_at(99.0) == 10

    def test_release_of_nothing_is_noop(self):
        p = AvailabilityProfile(10)
        p.release(50.0, 0)
        p.release(0.0, 4)  # end at the origin: nothing to free
        assert p.steps() == [(0.0, 10)]

    def test_over_release_raises(self):
        p = AvailabilityProfile(10)
        with pytest.raises(ValueError):
            p.release(50.0, 4)  # nothing was reserved there


class TestUnreserve:
    def test_inverts_a_future_reservation(self):
        p = AvailabilityProfile(10)
        p.reserve(0.0, 40.0, 8)
        start = p.allocate(6, 30.0)
        assert start == 40.0
        p.unreserve(start, start + 30.0, 6)
        assert p.canonical_steps() == [(0.0, 2), (40.0, 10)]

    def test_part_before_the_origin_is_clamped_like_release(self):
        p = AvailabilityProfile(10)
        p.reserve(10.0, 50.0, 4)
        p.advance_origin(30.0)
        p.unreserve(10.0, 60.0, 4)  # [10, 30) is already gone
        assert p.canonical_steps() == [(30.0, 10)]
        p.unreserve(0.0, 30.0, 4)  # entirely passed: nothing to free
        p.unreserve(40.0, 50.0, 0)
        assert p.canonical_steps() == [(30.0, 10)]

    def test_unreserving_what_was_never_reserved_raises(self):
        p = AvailabilityProfile(10)
        p.reserve(0.0, 100.0, 4)
        with pytest.raises(ValueError, match="exceeds total_nodes"):
            p.unreserve(50.0, 150.0, 4)  # [100, 150) is already fully free
        with pytest.raises(ValueError, match="exceeds total_nodes"):
            p.unreserve(0.0, 100.0, 7)
        assert p.canonical_steps() == [(0.0, 6), (100.0, 10)]  # checked first

    def test_unreserve_detaches_clones(self):
        base = AvailabilityProfile(10)
        start = base.allocate(4, 20.0)
        snap = base.clone()
        snap.unreserve(start, start + 20.0, 4)
        assert base.free_at(0.0) == 6
        assert snap.free_at(0.0) == 10


class TestAdvanceOrigin:
    def test_drops_passed_segments(self):
        p = AvailabilityProfile(10)
        p.reserve(0.0, 10.0, 4)
        p.reserve(20.0, 10.0, 6)
        p.advance_origin(15.0)
        assert p.steps()[0] == (15.0, 10)
        assert p.free_at(20.0) == 4
        with pytest.raises(ValueError, match="precedes"):
            p.free_at(14.0)

    def test_advance_onto_breakpoint(self):
        p = AvailabilityProfile(10)
        p.reserve(0.0, 10.0, 4)
        p.advance_origin(10.0)
        assert p.steps() == [(10.0, 10)]

    def test_advance_backwards_is_noop(self):
        p = AvailabilityProfile(10, origin=50.0)
        p.advance_origin(40.0)
        assert p.steps()[0] == (50.0, 10)

    def test_advance_mid_reservation_keeps_level(self):
        p = AvailabilityProfile(10)
        p.reserve(0.0, 100.0, 7)
        p.advance_origin(60.0)
        assert p.free_at(60.0) == 3
        assert p.free_at(100.0) == 10


class TestCanonicalSteps:
    def test_merges_redundant_breakpoints(self):
        p = AvailabilityProfile(10)
        p.reserve(0.0, 10.0, 4)
        p.reserve(10.0, 10.0, 4)  # abuts the first: levels its end step
        assert p.steps() == [(0.0, 6), (10.0, 6), (20.0, 10)]
        assert p.canonical_steps() == [(0.0, 6), (20.0, 10)]

    def test_release_deletes_the_breakpoint_it_levels(self):
        p = AvailabilityProfile(10)
        p.reserve(0.0, 10.0, 4)
        p.release(10.0, 4)
        assert p.steps() == [(0.0, 10)]

    def test_release_keeps_a_breakpoint_that_is_still_a_step(self):
        p = AvailabilityProfile(10)
        p.reserve(0.0, 10.0, 4)
        p.reserve(0.0, 10.0, 3)
        p.release(10.0, 4)  # the 3-wide job still ends at 10
        assert p.steps() == [(0.0, 7), (10.0, 10)]
        p.release(10.0, 3)
        assert p.steps() == [(0.0, 10)]

    def test_unreserve_deletes_both_edges_it_levels(self):
        p = AvailabilityProfile(10)
        p.reserve(0.0, 40.0, 8)
        start = p.allocate(6, 30.0)
        assert p.steps() == [(0.0, 2), (40.0, 4), (70.0, 10)]
        p.unreserve(start, start + 30.0, 6)
        assert p.steps() == [(0.0, 2), (40.0, 10)]  # 40 is still a step

    def test_deleting_a_breakpoint_detaches_clones(self):
        base = AvailabilityProfile(10)
        base.reserve(0.0, 10.0, 4)
        snap = base.clone()
        base.release(10.0, 4)
        assert base.steps() == [(0.0, 10)]
        assert snap.steps() == [(0.0, 6), (10.0, 10)]

    def test_plain_profile_unchanged(self):
        p = AvailabilityProfile(10)
        p.reserve(5.0, 10.0, 4)
        assert p.canonical_steps() == p.steps()


# -- property-based tests ---------------------------------------------------------

reservations = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
        st.floats(min_value=0.1, max_value=1e4, allow_nan=False),
        st.integers(min_value=1, max_value=16),
    ),
    max_size=12,
)


@st.composite
def profile_and_query(draw):
    if draw(st.booleans()):
        total = draw(st.integers(min_value=16, max_value=128))
        profile = AvailabilityProfile(total)
    else:
        # The size of a conservative plan, where the scan is longest.
        total = 256
        profile = _busy_profile(seed=draw(st.integers(min_value=0, max_value=7)))
        assert len(profile.steps()) >= 200
    for start, duration, nodes in draw(reservations):
        if profile.earliest_start(nodes, duration, after=start) == start:
            profile.reserve(start, duration, nodes)
    nodes = draw(st.integers(min_value=1, max_value=total))
    duration = draw(st.floats(min_value=0.1, max_value=1e4, allow_nan=False))
    after = draw(st.floats(min_value=0.0, max_value=1e5, allow_nan=False))
    return profile, nodes, duration, after


@given(profile_and_query())
@settings(max_examples=200, deadline=None)
def test_earliest_start_window_is_actually_free(case):
    """The returned window must satisfy the capacity everywhere inside."""
    profile, nodes, duration, after = case
    start = profile.earliest_start(nodes, duration, after=after)
    assert start >= after
    # Check every breakpoint of the window.
    for time, free in profile.steps():
        if start <= time < start + duration:
            assert free >= nodes
    assert profile.free_at(start) >= nodes


@given(profile_and_query())
@settings(max_examples=200, deadline=None)
def test_earliest_start_is_reservable(case):
    """reserve() must accept what earliest_start() returned."""
    profile, nodes, duration, after = case
    start = profile.earliest_start(nodes, duration, after=after)
    profile.reserve(start, duration, nodes)  # must not raise


@given(profile_and_query())
@settings(max_examples=200, deadline=None)
def test_earliest_start_minimality_at_breakpoints(case):
    """No profile breakpoint in [after, start) admits the job."""
    profile, nodes, duration, after = case
    start = profile.earliest_start(nodes, duration, after=after)
    for time, _free in profile.steps():
        t = max(time, after)
        if t >= start:
            continue
        # The window starting at t must violate capacity somewhere.
        ok = profile.free_at(t) >= nodes and all(
            free >= nodes
            for bp, free in profile.steps()
            if t <= bp < t + duration
        )
        assert not ok, f"window at {t} < {start} would also fit"


@given(profile_and_query(), st.floats(min_value=0.0, max_value=2e5, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_allocate_then_unreserve_restores_the_step_function(case, advance_to):
    """unreserve() is the inverse of allocate()'s reservation — also after
    the origin moved into (or past) the reserved interval."""
    profile, nodes, duration, after = case
    before = profile.clone()
    start = profile.allocate(nodes, duration, after=after)
    # A query in between must not leak into the answers afterwards.
    assert profile.earliest_start(nodes, duration, after=after) >= start
    profile.advance_origin(advance_to)
    before.advance_origin(advance_to)
    profile.unreserve(start, start + duration, nodes)
    assert profile.canonical_steps() == before.canonical_steps()
    assert profile.earliest_start(nodes, duration, after=after) == (
        before.earliest_start(nodes, duration, after=after)
    )
    if start + duration > profile.origin:
        with pytest.raises(ValueError, match="exceeds total_nodes"):
            profile.unreserve(start, start + duration, profile.total_nodes + 1)


def _canonical_copy(profile):
    """The same step function with no level-equal breakpoint."""
    steps = profile.canonical_steps()
    copy = AvailabilityProfile(profile.total_nodes, origin=steps[0][0])
    for (time, free), (until, _free) in zip(steps, steps[1:]):
        copy.reserve_until(time, until, profile.total_nodes - free)
    assert copy.steps() == steps
    return copy


@given(profile_and_query(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_allocate_unreserve_round_trip_restores_steps_exactly(case, from_origin):
    """From a canonical profile the round trip leaves no breakpoint behind
    and takes none away — ``steps()``, not only ``canonical_steps()``."""
    profile, nodes, duration, after = case
    profile = _canonical_copy(profile)
    before = profile.steps()
    witness = profile.clone()
    start = profile.allocate(nodes, duration, after=None if from_origin else after)
    assert witness.steps() == before  # the clone is isolated
    profile.unreserve(start, start + duration, nodes)
    assert profile.steps() == before


running_sets = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
        st.integers(min_value=1, max_value=16),
    ),
    max_size=8,
)


@given(
    running_sets,
    st.integers(min_value=1, max_value=64),
    st.floats(min_value=0.1, max_value=2e5, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_reserve_from_origin_release_round_trip_restores_steps_exactly(
    running, nodes, duration
):
    """Start a job now, have it complete at once: the state profile's cycle."""
    profile = AvailabilityProfile.from_running(128, 10.0, running)
    before = profile.steps()
    assert before == profile.canonical_steps()
    assume(nodes <= profile.free_at(10.0))
    witness = profile.clone()
    profile.reserve_from_origin(duration, nodes)
    profile.release(10.0 + duration, nodes)
    assert profile.steps() == before
    assert witness.steps() == before
    with pytest.raises(ValueError, match="exceeds total_nodes"):
        profile.release(10.0 + duration, 129)


@given(profile_and_query())
@settings(max_examples=200, deadline=None)
def test_fits_at_origin_is_earliest_start_at_the_origin(case):
    profile, nodes, duration, after = case
    profile.advance_origin(after)
    assert profile.fits_at_origin(nodes, duration) == (
        profile.earliest_start(nodes, duration) == profile.origin
    )


@given(
    st.integers(min_value=1, max_value=64),
    st.floats(min_value=0.1, max_value=1e4, allow_nan=False),
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
            st.integers(min_value=1, max_value=64),
        ),
        max_size=10,
    ),
)
@settings(max_examples=150, deadline=None)
def test_from_running_tail_is_fully_free(nodes, duration, running):
    """After all running jobs release, the whole machine is available."""
    total = 64
    running = [(end, n) for end, n in running if n <= total]
    while sum(n for _e, n in running) > total:
        running.pop()
    profile = AvailabilityProfile.from_running(total, 0.0, running)
    steps = profile.steps()
    assert steps[-1][1] == total


# -- fused allocate, and scans over hundreds of segments ---------------------


def _busy_profile(n_reservations=120, total=256, seed=11):
    """A profile of 200+ segments, the size of a conservative plan."""
    import random

    rng = random.Random(seed)
    profile = AvailabilityProfile(total)
    for _ in range(n_reservations):
        nodes = rng.randint(1, total // 4)
        duration = rng.uniform(10.0, 5000.0)
        start = profile.earliest_start(nodes, duration, after=rng.uniform(0.0, 1e5))
        profile.reserve(start, duration, nodes)
    return profile


class TestAllocate:
    def test_bit_identical_to_query_then_reserve(self):
        import random

        rng = random.Random(13)
        fused = AvailabilityProfile(128)
        paired = AvailabilityProfile(128)
        for _ in range(150):
            nodes = rng.randint(1, 64)
            duration = rng.uniform(0.1, 5000.0)
            after = rng.uniform(0.0, 1e5)
            if rng.random() < 0.3:
                after = None  # the conservative walk's spelling
            start_fused = fused.allocate(nodes, duration, after=after)
            start_paired = paired.earliest_start(nodes, duration, after=after)
            paired.reserve(start_paired, duration, nodes)
            assert start_fused == start_paired
            assert fused.steps() == paired.steps()
        # The later half of the run scanned a plan-sized profile.
        assert len(fused.steps()) >= 192

    def test_bit_identical_when_the_float_sum_absorbs_the_duration(self):
        fused = AvailabilityProfile(16)
        fused.reserve(0.0, 5e7, 16)
        paired = fused.clone()
        tiny = 1e-9  # 5e7 + 1e-9 == 5e7
        start = paired.earliest_start(4, tiny)
        paired.reserve(start, tiny, 4)
        assert fused.allocate(4, tiny) == start == 5e7
        assert fused.steps() == paired.steps() == [(0.0, 0), (5e7, 16)]
        # ... and off a breakpoint, where the start edge is a new one.
        assert fused.allocate(4, tiny, after=6e7) == 6e7
        paired.reserve(paired.earliest_start(4, tiny, after=6e7), tiny, 4)
        assert fused.steps() == paired.steps() == [(0.0, 0), (5e7, 16), (6e7, 16)]

    def test_nonpositive_duration_is_pure_query(self):
        profile = _busy_profile(seed=17)
        before = profile.steps()
        start = profile.allocate(32, 0.0)
        assert start == profile.earliest_start(32, 0.0)
        assert profile.steps() == before

    def test_allocate_detaches_clones(self):
        base = _busy_profile(seed=19)
        reference = base.steps()
        snap = base.clone()
        snap.allocate(64, 1000.0)
        assert base.steps() == reference  # base untouched
