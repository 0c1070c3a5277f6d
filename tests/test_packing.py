"""Packed columnar job arrays: round-trip bit-identity and digest parity."""

import pickle
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.job import Job
from repro.core.packing import (
    PackedJobs,
    fingerprint_packed,
    job_record,
    pack_jobs,
    unpack_jobs,
)
from repro.experiments.engine import fingerprint_jobs

# -- strategies -----------------------------------------------------------------

finite_time = st.floats(
    min_value=0.0, max_value=1e12, allow_nan=False, allow_infinity=False
)

estimates = st.one_of(
    st.none(),
    st.just(sys.float_info.max),
    st.just(0.0),
    finite_time,
)

weights = st.one_of(st.none(), st.just(0.0), finite_time)

metas = st.one_of(
    st.just({}),
    st.dictionaries(
        st.sampled_from(["class", "node_type", "queue"]),
        st.one_of(st.integers(0, 5), st.sampled_from(["batch", "express"])),
        max_size=2,
    ),
)


@st.composite
def job_streams(draw) -> list[Job]:
    n = draw(st.integers(min_value=0, max_value=40))
    jobs = []
    for job_id in range(n):
        jobs.append(
            Job(
                job_id=job_id,
                submit_time=draw(finite_time),
                nodes=draw(st.integers(1, 512)),
                runtime=draw(st.one_of(st.just(0.0), finite_time)),
                estimate=draw(estimates),
                user=draw(st.integers(0, 1000)),
                weight=draw(weights),
                meta=draw(metas),
            )
        )
    return jobs


def _fields(job: Job) -> tuple:
    return (
        job.job_id,
        job.submit_time,
        job.nodes,
        job.runtime,
        job.estimate,
        job.user,
        job.weight,
        dict(job.meta),
    )


# -- round trip ----------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(job_streams())
def test_roundtrip_bit_identity(jobs):
    """Every field of every job survives pack → unpack exactly."""
    restored = unpack_jobs(pack_jobs(jobs))
    assert len(restored) == len(jobs)
    for original, back in zip(jobs, restored):
        assert _fields(original) == _fields(back)


@settings(max_examples=50, deadline=None)
@given(job_streams())
def test_fingerprint_parity(jobs):
    """Streaming packed digest == the engine's Job-stream digest."""
    assert fingerprint_packed(pack_jobs(jobs)) == fingerprint_jobs(jobs)


@settings(max_examples=30, deadline=None)
@given(job_streams())
def test_pickle_roundtrip(jobs):
    """PackedJobs pickles as raw buffers and survives the pool boundary."""
    packed = pack_jobs(jobs)
    back = pickle.loads(pickle.dumps(packed, protocol=pickle.HIGHEST_PROTOCOL))
    assert isinstance(back, PackedJobs)
    assert unpack_jobs(back) == unpack_jobs(packed)


def test_empty_stream():
    packed = pack_jobs([])
    assert len(packed) == 0
    assert unpack_jobs(packed) == ()
    assert fingerprint_packed(packed) == fingerprint_jobs([])


def test_special_values_exact():
    """The values that break naive encodings: the largest finite float
    (``Job`` rejects ``inf``), None-vs-0.0, meta."""
    jobs = [
        Job(
            job_id=0, submit_time=0.0, nodes=1, runtime=0.0,
            estimate=sys.float_info.max,
        ),
        Job(job_id=1, submit_time=0.5, nodes=2, runtime=1.0, estimate=None),
        Job(job_id=2, submit_time=1.0, nodes=3, runtime=2.0, estimate=0.0, weight=0.0),
        Job(job_id=3, submit_time=1.5, nodes=4, runtime=3.0, weight=None),
        Job(job_id=4, submit_time=2.0, nodes=5, runtime=4.0, meta={"class": 2}),
    ]
    restored = unpack_jobs(pack_jobs(jobs))
    assert [_fields(j) for j in jobs] == [_fields(j) for j in restored]
    # None and 0.0 must stay distinguishable: they change estimated_runtime
    # and effective_weight semantics.
    assert restored[1].estimate is None
    assert restored[2].estimate == 0.0
    assert restored[2].weight == 0.0
    assert restored[3].weight is None
    assert restored[4].meta["class"] == 2


def test_meta_rides_sparsely():
    jobs = [
        Job(job_id=i, submit_time=float(i), nodes=1, runtime=1.0)
        for i in range(10)
    ]
    jobs[7] = Job(
        job_id=7, submit_time=7.0, nodes=1, runtime=1.0, meta={"class": 1}
    )
    packed = pack_jobs(jobs)
    assert packed.metas == ((7, {"class": 1}),)
    assert unpack_jobs(packed)[7].meta == {"class": 1}


def test_int64_overflow_raises():
    job = Job(job_id=2**63, submit_time=0.0, nodes=1, runtime=1.0)
    with pytest.raises(OverflowError):
        pack_jobs([job])


def test_job_record_matches_engine_line_format():
    """The shared formatter IS the historical fingerprint line (cache v3)."""
    job = Job(
        job_id=17, submit_time=3.25, nodes=8, runtime=100.5,
        estimate=200.0, user=4, weight=12.5,
    )
    line = job_record(
        job.job_id, job.submit_time, job.nodes, job.runtime,
        job.estimate, job.user, job.weight,
    )
    assert line == (
        f"{job.job_id},{job.submit_time!r},{job.nodes},{job.runtime!r},"
        f"{job.estimate!r},{job.user},{job.weight!r}\n"
    )


def test_nbytes_counts_columns():
    packed = pack_jobs(
        [Job(job_id=i, submit_time=float(i), nodes=1, runtime=1.0) for i in range(100)]
    )
    # 5 eight-byte columns + 2 one-byte masks... job_ids/submit/nodes/
    # runtime/estimate/users/weight are 8 B each (7 columns), masks 1 B (2).
    assert packed.nbytes() == 100 * (7 * 8 + 2)
