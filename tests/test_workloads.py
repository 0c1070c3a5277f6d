"""Tests for the workload generators, models and transforms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.job import Job
from repro.workloads.ctc import CTCModel, ctc_like_workload
from repro.workloads.probabilistic import (
    ProbabilisticModel,
    fit_weibull,
    geometric_edges,
)
from repro.workloads.randomized import RandomizedModel, randomized_workload
from repro.workloads.stats import workload_stats
from repro.workloads.transforms import (
    cap_nodes,
    renumber,
    scale_interarrival,
    tag_interactive,
    take_prefix,
    with_exact_estimates,
    with_scaled_estimates,
)
from tests.conftest import make_jobs


class TestCTCModel:
    def test_deterministic_given_seed(self):
        a = ctc_like_workload(200, seed=5)
        b = ctc_like_workload(200, seed=5)
        assert [(j.submit_time, j.nodes, j.runtime) for j in a] == [
            (j.submit_time, j.nodes, j.runtime) for j in b
        ]

    def test_different_seeds_differ(self):
        a = ctc_like_workload(200, seed=5)
        b = ctc_like_workload(200, seed=6)
        assert [j.nodes for j in a] != [j.nodes for j in b]

    def test_shape_properties(self):
        jobs = ctc_like_workload(3000, seed=1)
        stats = workload_stats(jobs, 256)
        # The published CTC shape: ~1/3 serial, powers of two dominate,
        # heavy overestimates, slight overload on 256 nodes.
        assert 0.25 < stats.serial_fraction < 0.5
        assert stats.power_of_two_fraction > 0.6
        assert stats.mean_overestimate > 2.0
        assert 0.9 < stats.offered_load < 2.0

    def test_estimates_are_class_limits_and_bound_runtime(self):
        model = CTCModel()
        jobs = model.generate(500, seed=3)
        limits = set(model.class_limits)
        for job in jobs:
            assert job.estimate in limits
            assert job.runtime <= job.estimate + 1e-9

    def test_wide_jobs_rare_but_present(self):
        jobs = ctc_like_workload(5000, seed=2)
        over_256 = sum(1 for j in jobs if j.nodes > 256)
        assert 0 < over_256 < 0.01 * len(jobs)
        assert max(j.nodes for j in jobs) <= 430

    def test_submissions_increase(self):
        jobs = ctc_like_workload(300, seed=7)
        submits = [j.submit_time for j in jobs]
        assert submits == sorted(submits)

    def test_empty_and_validation(self):
        assert ctc_like_workload(0) == []
        with pytest.raises(ValueError):
            ctc_like_workload(-1)
        with pytest.raises(ValueError):
            CTCModel(jobs_per_day=0.0)
        with pytest.raises(ValueError):
            CTCModel(class_tightness=0.0)

    def test_arrival_rate_daily_cycle(self):
        model = CTCModel()
        # Monday 14:00 vs Monday 03:00.
        afternoon = model.arrival_rate(14 * 3600.0)
        night = model.arrival_rate(3 * 3600.0)
        assert afternoon > night

    def test_arrival_rate_weekend_suppression(self):
        model = CTCModel()
        monday_noon = model.arrival_rate(12 * 3600.0)
        saturday_noon = model.arrival_rate(5 * 86400.0 + 12 * 3600.0)
        assert monday_noon > saturday_noon


class TestWeibullFit:
    def test_recovers_known_parameters(self):
        rng = np.random.default_rng(0)
        samples = 120.0 * rng.weibull(0.7, size=20000)
        fit = fit_weibull(samples)
        assert fit.shape == pytest.approx(0.7, rel=0.05)
        assert fit.scale == pytest.approx(120.0, rel=0.05)

    def test_exponential_special_case(self):
        rng = np.random.default_rng(1)
        samples = rng.exponential(50.0, size=20000)
        fit = fit_weibull(samples)
        assert fit.shape == pytest.approx(1.0, rel=0.05)
        assert fit.scale == pytest.approx(50.0, rel=0.05)

    def test_mean_formula(self):
        fit = fit_weibull(np.random.default_rng(2).weibull(1.0, 5000))
        assert fit.mean() == pytest.approx(float(np.mean(
            np.random.default_rng(2).weibull(1.0, 5000))), rel=0.1)

    def test_rejects_tiny_samples(self):
        with pytest.raises(ValueError, match="at least 2"):
            fit_weibull([1.0])

    def test_ignores_zeros(self):
        fit = fit_weibull([0.0, 0.0, 1.0, 2.0, 3.0, 4.0])
        assert fit.n_samples == 4

    def test_sampling_round_trip(self):
        fit = fit_weibull(100.0 * np.random.default_rng(3).weibull(0.8, 5000))
        rng = np.random.default_rng(4)
        samples = fit.sample(rng, 20000)
        refit = fit_weibull(samples)
        assert refit.shape == pytest.approx(fit.shape, rel=0.08)


class TestGeometricEdges:
    def test_covers_max(self):
        edges = geometric_edges(1e4, base=2.0, first=60.0)
        assert edges[0] == 0.0
        assert edges[-1] >= 1e4
        ratios = edges[2:] / edges[1:-1]
        assert np.allclose(ratios, 2.0)

    def test_degenerate_max(self):
        assert list(geometric_edges(0.0)) == [0.0, 60.0]


class TestProbabilisticModel:
    def test_fit_and_sample_match_shape(self):
        source = renumber(cap_nodes(ctc_like_workload(3000, seed=11), 256))
        model = ProbabilisticModel.fit(source)
        resample = model.sample(3000, seed=12)
        s1 = workload_stats(source, 256)
        s2 = workload_stats(resample, 256)
        # The paper checks "consistence" between CTC and the artificial
        # workload; assert the moments agree loosely.
        assert s2.mean_nodes == pytest.approx(s1.mean_nodes, rel=0.25)
        assert s2.mean_runtime == pytest.approx(s1.mean_runtime, rel=0.35)
        assert s2.mean_interarrival == pytest.approx(s1.mean_interarrival, rel=0.25)
        assert s2.serial_fraction == pytest.approx(s1.serial_fraction, abs=0.1)

    def test_runtime_never_exceeds_estimate(self):
        source = renumber(cap_nodes(ctc_like_workload(1000, seed=13), 256))
        resample = ProbabilisticModel.fit(source).sample(1000, seed=14)
        for job in resample:
            assert job.runtime <= job.estimated_runtime + 1e-9

    def test_nodes_stay_in_source_support(self):
        source = renumber(cap_nodes(ctc_like_workload(1000, seed=15), 256))
        support = {j.nodes for j in source}
        resample = ProbabilisticModel.fit(source).sample(500, seed=16)
        assert {j.nodes for j in resample} <= support

    def test_needs_enough_jobs(self):
        with pytest.raises(ValueError, match="at least 3"):
            ProbabilisticModel.fit(
                [Job(job_id=0, submit_time=0.0, nodes=1, runtime=1.0)]
            )

    def test_cell_table_sorted_by_probability(self):
        source = renumber(cap_nodes(ctc_like_workload(500, seed=17), 256))
        model = ProbabilisticModel.fit(source)
        table = model.cell_table()
        probs = [row[3] for row in table]
        assert probs == sorted(probs, reverse=True)
        assert sum(probs) == pytest.approx(1.0)


class TestRandomizedModel:
    def test_table2_ranges(self):
        jobs = randomized_workload(2000, seed=20)
        gaps = np.diff([0.0] + [j.submit_time for j in jobs])
        assert gaps.min() >= 0.0 and gaps.max() <= 3600.0
        for job in jobs:
            assert 1 <= job.nodes <= 256
            assert 300.0 <= job.estimate <= 86400.0
            assert 1.0 <= job.runtime <= job.estimate

    def test_uniformity_rough(self):
        jobs = randomized_workload(5000, seed=21)
        nodes = np.array([j.nodes for j in jobs])
        assert abs(nodes.mean() - 128.5) < 5.0

    def test_custom_ranges(self):
        model = RandomizedModel(min_nodes=2, max_nodes=4)
        jobs = model.generate(100, seed=22)
        assert all(2 <= j.nodes <= 4 for j in jobs)

    def test_empty(self):
        assert randomized_workload(0) == []


class TestTransforms:
    def make(self):
        return [
            Job(job_id=0, submit_time=10.0, nodes=300, runtime=10.0, estimate=20.0),
            Job(job_id=1, submit_time=5.0, nodes=16, runtime=10.0, estimate=40.0),
            Job(job_id=2, submit_time=20.0, nodes=256, runtime=10.0, estimate=15.0),
        ]

    def test_cap_nodes_deletes_wide(self):
        out = cap_nodes(self.make(), 256)
        assert [j.job_id for j in out] == [1, 2]

    def test_with_exact_estimates(self):
        out = with_exact_estimates(self.make())
        assert all(j.estimate == j.runtime for j in out)

    def test_take_prefix_by_submission(self):
        out = take_prefix(self.make(), 2)
        assert [j.job_id for j in out] == [1, 0]

    def test_renumber(self):
        out = renumber(self.make())
        assert [j.job_id for j in out] == [0, 1, 2]
        assert out[0].submit_time == 5.0

    def test_scale_interarrival(self):
        out = scale_interarrival(self.make(), 0.5)
        assert out[0].submit_time == 5.0
        with pytest.raises(ValueError):
            scale_interarrival(self.make(), 0.0)

    def test_with_scaled_estimates(self):
        out = with_scaled_estimates(self.make(), 0.5)
        assert all(j.estimate == j.runtime * 0.5 for j in out)
        with pytest.raises(ValueError):
            with_scaled_estimates(self.make(), 0.0)

    def test_with_noisy_estimates(self):
        from repro.workloads.transforms import with_noisy_estimates

        jobs = self.make()
        exact = with_noisy_estimates(jobs, 0.0)
        assert all(j.estimate == j.runtime for j in exact)
        noisy = with_noisy_estimates(jobs, 1.0, seed=3)
        # Half-normal noise keeps estimates upper bounds.
        assert all(j.estimate >= j.runtime for j in noisy)
        # Deterministic given a seed.
        again = with_noisy_estimates(jobs, 1.0, seed=3)
        assert [j.estimate for j in noisy] == [j.estimate for j in again]
        with pytest.raises(ValueError):
            with_noisy_estimates(jobs, -1.0)


class TestTagInteractive:
    def test_only_narrow_tagged(self):
        jobs = make_jobs(60, seed=5, max_nodes=64)
        tagged = tag_interactive(jobs, fraction=1.0, seed=6, max_nodes=4)
        for job in tagged:
            if job.meta.get("interactive"):
                assert job.nodes <= 4
        assert any(j.meta.get("interactive") for j in tagged)

    def test_fraction_zero_is_identity(self):
        jobs = make_jobs(20, seed=7, max_nodes=8)
        tagged = tag_interactive(jobs, fraction=0.0)
        assert not any(j.meta.get("interactive") for j in tagged)

    def test_fraction_validated(self):
        with pytest.raises(ValueError):
            tag_interactive([], 2.0)

    def test_deterministic(self):
        jobs = make_jobs(30, seed=8, max_nodes=8)
        a = tag_interactive(jobs, 0.5, seed=9)
        b = tag_interactive(jobs, 0.5, seed=9)
        assert [j.meta.get("interactive") for j in a] == [
            j.meta.get("interactive") for j in b
        ]


class TestWorkloadStats:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            workload_stats([])

    def test_basic_fields(self):
        jobs = [
            Job(job_id=0, submit_time=0.0, nodes=1, runtime=100.0),
            Job(job_id=1, submit_time=100.0, nodes=2, runtime=100.0, estimate=200.0),
        ]
        stats = workload_stats(jobs, 4)
        assert stats.n_jobs == 2
        assert stats.span == 100.0
        assert stats.serial_fraction == 0.5
        assert stats.power_of_two_fraction == 1.0
        assert stats.total_node_seconds == 300.0
        assert stats.offered_load == pytest.approx(300.0 / 400.0)
        assert "jobs" in stats.describe()


@given(st.integers(min_value=1, max_value=300), st.integers(min_value=0, max_value=5))
@settings(max_examples=20, deadline=None)
def test_generators_produce_valid_streams(n, seed):
    from repro.core.job import validate_stream

    for jobs in (ctc_like_workload(n, seed=seed), randomized_workload(n, seed=seed)):
        validate_stream(jobs)
        assert len(jobs) == n
        assert all(j.submit_time >= 0 for j in jobs)
