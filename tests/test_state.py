"""Unit tests for the incremental :class:`SchedulingState`.

The state's contract is mechanical equivalence: every snapshot must be the
same step function ``AvailabilityProfile.from_running`` would rebuild from
the running-job table.  These tests exercise the delta bookkeeping, the
snapshot isolation, the queue statistics with their refusal
guard, and the verification mode — including that an injected divergence
actually raises.
"""

import pytest

from repro.core.profile import _OVERRUN_EPSILON, AvailabilityProfile
from repro.core.state import (
    SchedulingState,
    StateDivergenceError,
    verify_every_from_env,
)


def rebuild(state: SchedulingState) -> AvailabilityProfile:
    return AvailabilityProfile.from_running(
        state.total_nodes, state.now, state.projected_releases()
    )


def assert_matches_rebuild(state: SchedulingState) -> None:
    assert state.snapshot().canonical_steps() == rebuild(state).canonical_steps()


class TestDeltas:
    def test_start_reserves_projected_run(self):
        state = SchedulingState(10)
        state.on_start(1, 50.0, 4)
        snap = state.snapshot()
        assert snap.free_at(0.0) == 6
        assert snap.free_at(50.0) == 10
        assert state.projected_releases() == [(50.0, 4)]

    def test_release_on_time_frees_nothing_extra(self):
        state = SchedulingState(10)
        state.on_start(1, 50.0, 4)
        state.advance(50.0)
        state.on_release(1)
        assert state.snapshot().free_at(50.0) == 10
        assert state.projected_releases() == []

    def test_early_completion_frees_remainder(self):
        state = SchedulingState(10)
        state.on_start(1, 100.0, 4)
        state.advance(30.0)
        state.on_release(1)  # finished 70s ahead of its estimate
        snap = state.snapshot()
        assert snap.free_at(30.0) == 10
        assert_matches_rebuild(state)

    def test_overrun_clamped_like_from_running(self):
        state = SchedulingState(10)
        state.on_start(1, 20.0, 4)
        state.advance(50.0)  # projection expired 30s ago, job still running
        snap = state.snapshot()
        assert snap.free_at(50.0) == 6
        assert snap.free_at(50.0 + _OVERRUN_EPSILON) == 10
        assert_matches_rebuild(state)

    def test_overrun_release_is_clean(self):
        state = SchedulingState(10)
        state.on_start(1, 20.0, 4)
        state.advance(50.0)
        state.on_release(1)  # overran: no remainder left to free
        assert state.snapshot().free_at(50.0) == 10
        assert_matches_rebuild(state)

    def test_backwards_advance_ignored(self):
        state = SchedulingState(10)
        state.advance(100.0)
        state.advance(40.0)
        assert state.now == 100.0

    def test_interleaved_stream_matches_rebuild(self):
        state = SchedulingState(64)
        state.on_start(1, 100.0, 16)
        state.on_start(2, 30.0, 8)
        state.advance(10.0)
        state.on_start(3, 200.0, 32)
        state.advance(30.0)
        state.on_release(2)
        state.advance(45.0)
        state.on_release(1)  # early
        state.advance(250.0)  # job 3 now overrun
        assert_matches_rebuild(state)


class TestSnapshots:
    def test_snapshot_is_copy_on_write_isolated(self):
        state = SchedulingState(10)
        state.on_start(1, 50.0, 4)
        snap = state.snapshot()
        snap.reserve(0.0, 10.0, 6)  # tentative planning in the discipline
        # The persistent profile is untouched...
        assert state.profile.free_at(0.0) == 6
        # ...and the next snapshot starts clean.
        assert state.snapshot().free_at(0.0) == 6

    def test_state_mutation_after_snapshot_does_not_leak(self):
        state = SchedulingState(10)
        state.on_start(1, 50.0, 4)
        snap = state.snapshot()
        state.on_start(2, 80.0, 3)
        assert snap.free_at(0.0) == 6  # old snapshot unchanged

    def test_counters(self):
        state = SchedulingState(10)
        state.on_start(1, 10.0, 2)
        state.on_release(1)
        state.snapshot()
        assert state.deltas == 2
        assert state.snapshots == 1


#: A delta script crossing every state the persistent profile can be
#: first read in: jobs running, an early completion, outages active, a job
#: in overrun.  ``(time, method, args)``; the clock advances before each.
_SCRIPT = (
    (0.0, "on_start", (1, 100.0, 8)),
    (0.0, "on_start", (2, 40.0, 16)),
    (10.0, "on_capacity_down", (90.0, 4)),
    (20.0, "on_start", (3, 25.0, 8)),
    (30.0, "on_release", (2,)),  # early
    (50.0, "on_capacity_down", (70.0, 2)),  # job 3 (end 45) is in overrun
    (60.0, "on_start_batch", ([(60.0, 4, 30.0, 4), (65.0, 5, 500.0, 2)],)),
    (70.0, "on_capacity_up", (70.0, 2)),
    (80.0, "on_release_batch", ([(80.0, 3), (85.0, 4)],)),
    (90.0, "on_capacity_up", (90.0, 4)),
    (120.0, "on_release", (1,)),  # overran its projection
    (130.0, "on_start", (6, 10.0, 32)),
)


def _play(state: SchedulingState, steps, read_from: int) -> list:
    """Apply ``steps``; snapshot after each one from index ``read_from`` on."""
    seen = []
    for i, (time, method, args) in enumerate(steps):
        state.advance(time)
        getattr(state, method)(*args)
        if i >= read_from:
            seen.append((i, state.snapshot().canonical_steps()))
    return seen


class TestLazyProfile:
    def test_no_profile_until_first_read(self):
        state = SchedulingState(64)
        _play(state, _SCRIPT, read_from=len(_SCRIPT))
        assert state.profile is None  # nothing read it: nothing built it
        assert state.deltas == 14 and state.snapshots == 0
        assert state.projected_releases() == [(140.0, 32), (565.0, 2)]

    @pytest.mark.parametrize("first_read", range(len(_SCRIPT)))
    def test_late_materialisation_equals_eager_maintenance(self, first_read):
        """Whenever the first read happens — outages active (steps 2-8), a
        job in overrun (steps 5-7, 10) — every snapshot from then on is the
        one a profile maintained from the start hands out, and the
        reference rebuild agrees (cadence 1 verifies each)."""
        eager = SchedulingState(64, verify_every=1)
        eager.snapshot()
        assert eager.profile is not None
        lazy = SchedulingState(64, verify_every=1)
        expected = dict(_play(eager, _SCRIPT, read_from=0))
        got = _play(lazy, _SCRIPT, read_from=first_read)
        assert got == [(i, expected[i]) for i in range(first_read, len(_SCRIPT))]
        assert lazy.deltas == eager.deltas == 14
        assert lazy.verifications == len(_SCRIPT) - first_read

    def test_verify_is_a_first_read_too(self):
        state = SchedulingState(64)
        _play(state, _SCRIPT[:6], read_from=6)  # outages active, job 3 overrun
        assert state.profile is None and state.has_overrun()
        state.verify()
        assert state.profile is not None
        # The persistent profile never holds the overrun clamp itself.
        assert state.profile.free_at(50.0) == 64 - 8 - 4 - 2
        assert state.snapshot().free_at(50.0) == 64 - 8 - 8 - 4 - 2


class TestQueueStats:
    def test_min_tracking(self):
        state = SchedulingState(10)
        state.note_enqueued(4)
        state.note_enqueued(2)
        state.note_enqueued(4)
        assert state.queue_min_nodes(3) == 2
        state.note_dequeued(2)
        assert state.queue_min_nodes(2) == 4
        state.note_dequeued(4)
        state.note_dequeued(4)
        assert state.queued_count == 0

    def test_refused_on_count_mismatch(self):
        # A wrapper filtered the queue: the cached stat would be wrong for
        # the filtered view, so it must refuse.
        state = SchedulingState(10)
        state.note_enqueued(4)
        state.note_enqueued(2)
        assert state.queue_min_nodes(1) is None

    def test_refused_when_empty(self):
        state = SchedulingState(10)
        assert state.queue_min_nodes(0) is None


class TestVerification:
    def test_consistent_state_verifies(self):
        state = SchedulingState(10, verify_every=1)
        state.on_start(1, 50.0, 4)
        state.advance(10.0)
        state.snapshot()  # cadence 1: verifies, must not raise
        assert state.verifications == 1

    def test_injected_divergence_raises(self):
        state = SchedulingState(10)
        state.on_start(1, 50.0, 4)
        state.verify()  # first read: builds the persistent profile, agrees
        state.on_start(2, 80.0, 3)  # from here on deltas maintain it
        state.verify()
        # Corrupt the persistent profile behind the bookkeeping's back —
        # exactly the class of bug verification exists to catch.
        state.profile.reserve(0.0, 5.0, 2)
        with pytest.raises(StateDivergenceError, match="diverged"):
            state.verify()
        state.verify_every = 1  # ...and the snapshot cadence catches it too
        with pytest.raises(StateDivergenceError, match="diverged"):
            state.snapshot()

    def test_dropped_delta_after_materialisation_raises(self):
        # The other half of the class: a delta the persistent profile
        # misses once it exists (the indexes see it, the profile does not).
        state = SchedulingState(10)
        state.on_start(1, 50.0, 4)
        state.snapshot()
        profile, state.profile = state.profile, None
        state.on_start(2, 80.0, 3)  # lands in the indexes only
        state.profile = profile
        with pytest.raises(StateDivergenceError, match="diverged"):
            state.verify()

    def test_cadence(self):
        state = SchedulingState(10, verify_every=3)
        for _ in range(7):
            state.snapshot()
        assert state.verifications == 2  # at the 3rd and 6th snapshot


class TestVerifyEveryFromEnv:
    def test_unset_disables(self, monkeypatch):
        monkeypatch.delenv("REPRO_VERIFY_STATE", raising=False)
        assert verify_every_from_env() == 0

    def test_zero_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY_STATE", "0")
        assert verify_every_from_env() == 0

    def test_integer_cadence(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY_STATE", "25")
        assert verify_every_from_env() == 25

    def test_truthy_string_means_every_snapshot(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY_STATE", "on")
        assert verify_every_from_env() == 1
