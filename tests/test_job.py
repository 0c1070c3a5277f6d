"""Unit tests for the Job model."""

import math

import pytest

from repro.core.job import Job, sort_stream, validate_stream


def job(**kw):
    defaults = dict(job_id=1, submit_time=0.0, nodes=4, runtime=100.0)
    defaults.update(kw)
    return Job(**defaults)


class TestConstruction:
    def test_basic_fields(self):
        j = job(submit_time=5.0, nodes=8, runtime=60.0, estimate=120.0, user=3)
        assert j.submit_time == 5.0
        assert j.nodes == 8
        assert j.runtime == 60.0
        assert j.estimate == 120.0
        assert j.user == 3

    def test_negative_job_id_rejected(self):
        with pytest.raises(ValueError, match="job_id"):
            job(job_id=-1)

    @pytest.mark.parametrize(
        "field,value",
        [("job_id", 2**63), ("nodes", 2**63), ("user", 2**63), ("user", -(2**63) - 1)],
    )
    def test_integer_fields_must_fit_int64(self, field, value):
        # Packed workloads and the compiled walks store these as
        # array('q'): a wider value must fail here, not as an
        # OverflowError deep inside a run.
        with pytest.raises(ValueError, match=field):
            job(**{field: value})

    def test_zero_nodes_rejected(self):
        with pytest.raises(ValueError, match="nodes"):
            job(nodes=0)

    def test_negative_runtime_rejected(self):
        with pytest.raises(ValueError, match="runtime"):
            job(runtime=-1.0)

    def test_negative_submit_rejected(self):
        with pytest.raises(ValueError, match="submit_time"):
            job(submit_time=-0.5)

    def test_negative_estimate_rejected(self):
        with pytest.raises(ValueError, match="estimate"):
            job(estimate=-1.0)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="weight"):
            job(weight=-2.0)

    @pytest.mark.parametrize("field", ["submit_time", "runtime", "estimate", "weight"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_field_rejected(self, field, value):
        # ``nan < 0`` is false, so a plain sign check lets NaN through —
        # and a NaN submit time stalls the simulator's event loop.
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            job(**{field: value})

    def test_immutable(self):
        j = job()
        with pytest.raises(AttributeError):
            j.nodes = 16  # type: ignore[misc]


class TestDerivedQuantities:
    def test_estimated_runtime_defaults_to_runtime(self):
        assert job(runtime=50.0).estimated_runtime == 50.0

    def test_estimated_runtime_uses_estimate(self):
        assert job(runtime=50.0, estimate=80.0).estimated_runtime == 80.0

    def test_area_is_nodes_times_runtime(self):
        assert job(nodes=8, runtime=100.0).area == 800.0

    def test_estimated_area(self):
        assert job(nodes=8, runtime=100.0, estimate=200.0).estimated_area == 1600.0

    def test_effective_weight_defaults_to_area(self):
        assert job(nodes=4, runtime=10.0).effective_weight == 40.0

    def test_effective_weight_override(self):
        assert job(weight=7.0).effective_weight == 7.0

    def test_with_exact_estimate(self):
        j = job(runtime=33.0, estimate=99.0).with_exact_estimate()
        assert j.estimate == 33.0
        assert j.estimated_runtime == 33.0

    def test_with_exact_estimate_preserves_identity_fields(self):
        j = job(job_id=9, nodes=2, user=5).with_exact_estimate()
        assert (j.job_id, j.nodes, j.user) == (9, 2, 5)


class TestSmithRatios:
    def test_smith_ratio_default_weight(self):
        # weight = area = nodes * runtime, so ratio = nodes.
        assert job(nodes=8, runtime=100.0).smith_ratio() == 8.0

    def test_smith_ratio_uses_estimate(self):
        j = job(nodes=2, runtime=10.0, estimate=20.0, weight=40.0)
        assert j.smith_ratio() == 2.0

    def test_smith_ratio_zero_runtime_is_infinite(self):
        assert math.isinf(job(runtime=0.0, weight=1.0).smith_ratio())

    def test_modified_smith_ratio(self):
        j = job(nodes=4, runtime=10.0, weight=80.0)
        assert j.modified_smith_ratio() == 2.0

    def test_modified_smith_ratio_unit_weight_prefers_small_area(self):
        small = job(nodes=1, runtime=10.0, weight=1.0)
        big = job(nodes=16, runtime=100.0, weight=1.0)
        assert small.modified_smith_ratio() > big.modified_smith_ratio()


class TestStreamHelpers:
    def test_validate_rejects_duplicates(self):
        jobs = [job(job_id=1), job(job_id=1)]
        with pytest.raises(ValueError, match="duplicate"):
            validate_stream(jobs)

    def test_validate_accepts_unique(self):
        validate_stream([job(job_id=1), job(job_id=2)])

    def test_sort_stream_orders_by_submit_then_id(self):
        a = job(job_id=2, submit_time=10.0)
        b = job(job_id=1, submit_time=10.0)
        c = job(job_id=3, submit_time=5.0)
        assert [j.job_id for j in sort_stream([a, b, c])] == [3, 1, 2]
