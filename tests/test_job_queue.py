"""The order policies' shared queue store, :class:`JobQueue`."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.job import Job
from repro.schedulers.admission import EXAMPLE1_RANKS, ClassPriorityOrderPolicy
from repro.schedulers.base import JobQueue, SubmitOrderPolicy
from repro.schedulers.baselines import BASELINE_KEYS, KeyOrderPolicy, RandomOrderPolicy
from repro.schedulers.psrs import PsrsOrderPolicy
from repro.schedulers.smart import SmartOrderPolicy, SmartVariant

POLICIES = {
    "submit": SubmitOrderPolicy,
    "psrs": lambda: PsrsOrderPolicy(16),
    "smart-ffia": lambda: SmartOrderPolicy(16, variant=SmartVariant.FFIA),
    "smart-nfiw": lambda: SmartOrderPolicy(16, variant=SmartVariant.NFIW),
    "sjf": lambda: KeyOrderPolicy(BASELINE_KEYS["sjf"], "SJF"),
    "random": lambda: RandomOrderPolicy(seed=3),
    "class-smart": lambda: ClassPriorityOrderPolicy(
        SmartOrderPolicy(16), EXAMPLE1_RANKS
    ),
}


def _assert_exact(queue, live):
    """Columns mirror the jobs; each live job is held exactly once."""
    assert list(queue.nodes) == [job.nodes for job in queue]
    assert list(queue.estimates) == [job.estimated_runtime for job in queue]
    assert sorted(map(id, queue)) == sorted(map(id, live))


# An operation: ("enqueue", nodes, estimate, class), ("ordered",),
# ("remove", pick) or ("start", picks) — picks index the live jobs / the
# last order.
operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("enqueue"),
            st.integers(1, 16),
            st.sampled_from([0.0, 5.0, 60.0, 3600.0]),
            st.sampled_from([None, *EXAMPLE1_RANKS]),
        ),
        st.tuples(st.just("ordered")),
        st.tuples(st.just("remove"), st.integers(0, 10**6)),
        st.tuples(st.just("start"), st.lists(st.integers(0, 10**6), max_size=4)),
    ),
    max_size=60,
)


class _TwoLists:
    """A recomputing policy's order kept as the last off-line order plus
    the arrivals since, two plain lists: the reference for the store's
    ``_planned`` count."""

    def __init__(self, policy):
        self.policy = policy
        self.planned: list[Job] = []
        self.fresh: list[Job] = []

    def remove(self, job):
        for part in (self.planned, self.fresh):
            part[:] = [queued for queued in part if queued is not job]

    def ordered(self):
        total = len(self.planned) + len(self.fresh)
        threshold = self.policy.recompute_threshold
        if self.fresh and len(self.planned) / total < threshold:
            self.planned = self.policy.compute_order(self.planned + self.fresh)
            self.fresh = []
        return self.planned + self.fresh


@pytest.mark.parametrize("name", sorted(POLICIES))
@given(ops=operations)
@settings(max_examples=60, deadline=None)
def test_store_columns_stay_exact_under_any_mutation(name, ops):
    """Each job once, columns exact and, for SMART and PSRS, the order the
    two-list reference gives."""
    policy = POLICIES[name]()
    reference = _TwoLists(policy) if hasattr(policy, "compute_order") else None
    live: list[Job] = []
    for step, op in enumerate(ops):
        if op[0] == "enqueue":
            _, nodes, estimate, label = op
            job = Job(
                step, float(step), nodes, 1.0, estimate=estimate,
                meta={"class": label} if label else {},
            )  # fmt: skip
            policy.enqueue(job, float(step))
            live.append(job)
            if reference:
                reference.fresh.append(job)
        elif op[0] == "ordered":
            order = policy.ordered(float(step))
            _assert_exact(JobQueue.of(order), live)
            if reference:
                assert list(map(id, order)) == list(map(id, reference.ordered()))
        elif live and op[0] == "remove":
            job = live.pop(op[1] % len(live))
            policy.remove(job)
            if reference:
                reference.remove(job)
        elif live:
            order = policy.ordered(float(step))
            if reference:
                assert list(map(id, order)) == list(map(id, reference.ordered()))
            indices = sorted({pick % len(order) for pick in op[1]})
            started = [order[i] for i in indices]
            policy.remove_indexed(indices, started)
            live = [job for job in live if all(job is not s for s in started)]
            for job in started if reference else ():
                reference.remove(job)
        _assert_exact(policy.queue, live)
        assert len(policy) == len(live)
    policy.reset()
    _assert_exact(policy.queue, [])


def test_of_reuses_a_store_and_copies_a_list():
    jobs = [Job(i, 0.0, i + 1, 1.0, estimate=2.0 * i) for i in range(3)]
    store = JobQueue(jobs)
    assert JobQueue.of(store) is store
    copied = JobQueue.of(jobs[1:])
    assert copied == jobs[1:] and list(copied.nodes) == [2, 3]


def test_position_is_by_identity_not_equality():
    job = Job(0, 0.0, 2, 1.0)
    twin = Job(0, 0.0, 2, 1.0)
    assert job == twin
    store = JobQueue([twin, job])
    assert store.position(job) == 1
    with pytest.raises(ValueError):
        JobQueue([twin]).position(job)

