"""Tests for the baseline order policies."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.job import Job
from repro.core.simulator import simulate
from repro.schedulers.baselines import (
    BASELINE_KEYS,
    KeyOrderPolicy,
    RandomOrderPolicy,
    baseline_scheduler,
)
from tests.conftest import make_jobs


def J(job_id, nodes, runtime, estimate=None):
    return Job(job_id=job_id, submit_time=0.0, nodes=nodes, runtime=runtime, estimate=estimate)


class TestKeyOrderPolicy:
    def test_sjf_orders_by_estimate(self):
        policy = KeyOrderPolicy(BASELINE_KEYS["sjf"], "SJF")
        for job in (J(0, 1, 100.0), J(1, 1, 10.0), J(2, 1, 50.0)):
            policy.enqueue(job, 0.0)
        assert [j.job_id for j in policy.ordered(0.0)] == [1, 2, 0]

    def test_ljf_reverses_sjf(self):
        policy = KeyOrderPolicy(BASELINE_KEYS["ljf"], "LJF")
        for job in (J(0, 1, 100.0), J(1, 1, 10.0)):
            policy.enqueue(job, 0.0)
        assert [j.job_id for j in policy.ordered(0.0)] == [0, 1]

    def test_width_keys(self):
        jobs = [J(0, 8, 10.0), J(1, 2, 10.0)]
        nf = KeyOrderPolicy(BASELINE_KEYS["nf"], "NF")
        wf = KeyOrderPolicy(BASELINE_KEYS["wf"], "WF")
        for p in (nf, wf):
            for job in jobs:
                p.enqueue(job, 0.0)
        assert [j.job_id for j in nf.ordered(0.0)] == [1, 0]
        assert [j.job_id for j in wf.ordered(0.0)] == [0, 1]

    def test_ties_broken_by_id(self):
        policy = KeyOrderPolicy(BASELINE_KEYS["sjf"], "SJF")
        for job in (J(5, 1, 10.0), J(1, 1, 10.0)):
            policy.enqueue(job, 0.0)
        assert [j.job_id for j in policy.ordered(0.0)] == [1, 5]

    def test_remove_and_len(self):
        policy = KeyOrderPolicy(BASELINE_KEYS["saf"], "SAF")
        a, b = J(0, 2, 10.0), J(1, 4, 10.0)
        policy.enqueue(a, 0.0)
        policy.enqueue(b, 0.0)
        policy.remove(a)
        assert len(policy) == 1
        assert policy.ordered(0.0)[0].job_id == 1


class TestRandomPolicy:
    def test_reset_restores_seed(self):
        jobs = make_jobs(30, seed=3, max_nodes=16)
        sched = baseline_scheduler("random", "list", seed=9)
        r1 = simulate(jobs, sched, 64)
        r2 = simulate(jobs, sched, 64)   # reset() must restore the RNG
        assert [(i.job.job_id, i.start_time) for i in r1.schedule] == [
            (i.job.job_id, i.start_time) for i in r2.schedule
        ]

    def test_does_not_use_estimates(self):
        assert not RandomOrderPolicy().uses_estimates


class TestFactory:
    def test_unknown_order_rejected(self):
        with pytest.raises(ValueError, match="unknown order"):
            baseline_scheduler("fifo")

    def test_unknown_discipline_rejected(self):
        with pytest.raises(ValueError, match="unknown discipline"):
            baseline_scheduler("sjf", "gang")


class TestSchedulingBehaviour:
    def test_sjf_beats_ljf_on_art(self):
        # SJF is the canonical mean-response winner on a backlog.
        jobs = make_jobs(60, seed=4, max_nodes=32, mean_gap=20.0)
        art = lambda r: sum(i.response_time for i in r.schedule) / len(r.schedule)
        sjf = art(simulate(jobs, baseline_scheduler("sjf", "easy"), 64))
        ljf = art(simulate(jobs, baseline_scheduler("ljf", "easy"), 64))
        assert sjf < ljf

    @given(st.sampled_from(sorted(BASELINE_KEYS) + ["random"]),
           st.sampled_from(["list", "easy", "conservative"]))
    @settings(max_examples=21, deadline=None)
    def test_every_baseline_schedules_validly(self, order, discipline):
        jobs = make_jobs(30, seed=5, max_nodes=48)
        res = simulate(jobs, baseline_scheduler(order, discipline), 64)
        assert len(res.schedule) == 30
        res.schedule.validate(64)
