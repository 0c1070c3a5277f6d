"""The workload memo: generated streams filed by what decides them.

A memo hit must give back exactly the stream its recipe would build —
field for field, and with the same workload digest, since that digest
names every cache entry and run id downstream — and a damaged memo file
must cost a rebuild, never a wrong workload.
"""

from __future__ import annotations

import hashlib
import os
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.job import Job
from repro.experiments import workload_store
from repro.experiments.engine import ExperimentEngine, ResultCache, fingerprint_jobs
from repro.experiments.paper import (
    EXPERIMENTS,
    _experiment_jobs,
    randomized_workload_at,
)
from repro.experiments.workload_store import (
    WorkloadMemo,
    decode_memo,
    encode_memo,
    generator_digest,
)
from tests.conftest import make_jobs

# -- strategies -----------------------------------------------------------------

extreme = st.sampled_from(
    [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 0.1, 1e300,
     sys.float_info.max]
)
times = st.one_of(
    extreme,
    st.integers(0, 10**6),  # an int-valued time must stay an int
    st.floats(min_value=0.0, max_value=1e12, allow_nan=False, allow_infinity=False),
)
optional_times = st.one_of(st.none(), times)


@st.composite
def job_streams(draw) -> list[Job]:
    n = draw(st.integers(min_value=0, max_value=30))
    return [
        Job(
            job_id=draw(st.sampled_from([job_id, 2**63 - 1 - job_id])),
            submit_time=draw(times),
            nodes=draw(st.integers(1, 2**63 - 1)),
            runtime=draw(st.one_of(st.just(0.0), times)),
            estimate=draw(optional_times),
            user=draw(st.integers(-(2**63), 2**63 - 1)),
            weight=draw(optional_times),
        )
        for job_id in range(n)
    ]


def _fields(job: Job) -> tuple:
    values = (
        job.job_id, job.submit_time, job.nodes, job.runtime,
        job.estimate, job.user, job.weight,
    )
    # repr tells -0.0 from 0.0 and 1 from 1.0, which == does not.
    return tuple((type(v), repr(v)) for v in values) + (dict(job.meta),)


class _Builds:
    """A build function that counts its calls."""

    def __init__(self, jobs: list[Job]) -> None:
        self.jobs = jobs
        self.calls = 0

    def __call__(self) -> list[Job]:
        self.calls += 1
        return list(self.jobs)


# -- the file format ------------------------------------------------------------


class TestRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(job_streams())
    def test_encode_decode_is_field_for_field(self, jobs):
        data = encode_memo(jobs)
        decoded = decode_memo(data)
        assert [_fields(j) for j in decoded] == [_fields(j) for j in jobs]
        # The header is the stream's workload digest, before and after.
        header = data.split(b"\n", 1)[0].decode("ascii")
        assert header == fingerprint_jobs(jobs) == fingerprint_jobs(decoded)

    @settings(max_examples=40, deadline=None)
    @given(job_streams())
    def test_a_fresh_memo_reads_back_what_another_filed(self, tmp_path_factory, jobs):
        root = tmp_path_factory.mktemp("memo")
        key = WorkloadMemo.key("recipe", len(jobs), 1)
        build = _Builds(jobs)
        first = WorkloadMemo(root).fetch(key, build)
        second = WorkloadMemo(root).fetch(key, build)
        assert build.calls == 1
        assert [_fields(j) for j in second] == [_fields(j) for j in first]
        assert [_fields(j) for j in first] == [_fields(j) for j in jobs]

    def test_the_file_is_text_not_a_pickle(self, tmp_path):
        jobs = make_jobs(5, seed=2)
        key = WorkloadMemo.key("recipe", 5, 2)
        WorkloadMemo(tmp_path).fetch(key, lambda: jobs)
        lines = (tmp_path / f"{key}.jobs").read_text(encoding="ascii").splitlines()
        assert lines[0] == fingerprint_jobs(jobs)
        assert lines[1].startswith("0,") and len(lines) == 6


# -- damage ---------------------------------------------------------------------


def _flip_byte(data: bytes) -> bytes:
    # Job 2 becomes a second job 3: a line that still parses, and is
    # canonical, so only the header check can catch it.
    at = data.index(b"\n2,") + 1
    return data[:at] + bytes([data[at] ^ 0x01]) + data[at + 1:]


def _truncate_line(data: bytes) -> bytes:
    return data[: data.rindex(b",")]


def _wrong_header(data: bytes) -> bytes:
    return b"0" * 64 + data[64:]


def _rehashed_noncanonical(data: bytes) -> bytes:
    # A body that hashes to its header but is not what job_record writes:
    # it would decode to a stream with a different digest.
    body = data.split(b"\n", 1)[1].replace(b",0,None", b",00,None", 1)
    return hashlib.sha256(body).hexdigest().encode("ascii") + b"\n" + body


@pytest.mark.parametrize(
    "damage", [_flip_byte, _truncate_line, _wrong_header, _rehashed_noncanonical]
)
def test_a_damaged_memo_is_rebuilt_and_quarantined(tmp_path, damage):
    jobs = randomized_workload_at(40, 5)
    assert any(job.user == 0 and job.weight is None for job in jobs)
    key = WorkloadMemo.key("recipe", 40, 5)
    WorkloadMemo(tmp_path).fetch(key, lambda: jobs)
    path = tmp_path / f"{key}.jobs"
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(ValueError):
        decode_memo(path.read_bytes())

    build = _Builds(jobs)
    served = WorkloadMemo(tmp_path).fetch(key, build)
    assert build.calls == 1
    assert fingerprint_jobs(served) == fingerprint_jobs(jobs)
    assert path.with_suffix(".corrupt").exists()
    # The rebuild filed a good memo again.
    assert fingerprint_jobs(decode_memo(path.read_bytes())) == fingerprint_jobs(jobs)


def test_prune_quarantines_damaged_memos_and_stale_tmp(tmp_path):
    cache = ResultCache(tmp_path)
    memo = WorkloadMemo(cache.memo_root)
    good, bad = WorkloadMemo.key("a", 1, 1), WorkloadMemo.key("b", 1, 1)
    memo.fetch(good, lambda: make_jobs(10, seed=1))
    memo.fetch(bad, lambda: make_jobs(10, seed=2))
    bad_path = memo.path(bad)
    bad_path.write_bytes(_flip_byte(bad_path.read_bytes()))
    old_tmp = cache.memo_root / f".{good}.12345.abcd.tmp"
    old_tmp.write_text("partial", encoding="ascii")
    os.utime(old_tmp, (10_000.0, 10_000.0))
    fresh_tmp = cache.memo_root / f".{good}.12346.abcd.tmp"
    fresh_tmp.write_text("partial", encoding="ascii")

    stats = cache.prune()
    assert stats.scanned == 2
    assert stats.quarantined == 1 and bad_path.with_suffix(".corrupt").exists()
    assert stats.tmp_removed == 1 and not old_tmp.exists()
    assert fresh_tmp.exists()  # a write in flight survives the sweep
    assert memo.path(good).exists()


# -- what a key depends on ------------------------------------------------------


def test_the_key_moves_with_every_input(monkeypatch):
    base = dict(recipe="repro.workloads.recipes.ctc_workload", scale=100, seed=42,
                trace_digest="")
    key = WorkloadMemo.key(**base)
    assert WorkloadMemo.key(**base) == key
    variants = [
        dict(base, recipe="repro.workloads.recipes.ctc_exact_workload"),
        dict(base, scale=101),
        dict(base, seed=43),
        dict(base, trace_digest="ab" * 32),
    ]
    keys = {WorkloadMemo.key(**variant) for variant in variants}
    assert len(keys) == len(variants) and key not in keys
    monkeypatch.setattr(workload_store, "generator_digest", lambda: "edited")
    assert WorkloadMemo.key(**base) != key
    monkeypatch.undo()
    monkeypatch.setattr(workload_store, "numpy_version", lambda: "0.0.1")
    assert WorkloadMemo.key(**base) != key


def test_the_source_digest_covers_every_generator_module():
    import importlib

    hasher = hashlib.sha256()
    for name in workload_store.GENERATOR_MODULES:
        source = open(importlib.import_module(name).__file__, "rb").read()
        hasher.update(f"{name}\n{len(source)}\n".encode("ascii"))
        hasher.update(source)
    assert generator_digest() == hasher.hexdigest()


def test_the_source_digest_covers_each_memoised_recipe_and_not_paper():
    from repro.experiments.paper import _MEMOISED_RECIPES

    hashed = set(workload_store.GENERATOR_MODULES)
    assert {recipe.__module__ for recipe in _MEMOISED_RECIPES} <= hashed
    assert "repro.experiments.paper" not in hashed


def test_numpy_version_is_read_without_importing_numpy():
    import numpy

    assert workload_store.numpy_version() == numpy.__version__


# -- what is memoised -------------------------------------------------------------


def test_a_stream_with_meta_is_not_memoised(tmp_path):
    jobs = make_jobs(5, seed=3)
    jobs[2] = Job(2, jobs[2].submit_time, 1, 10.0, meta={"class": "batch"})
    memo = WorkloadMemo(tmp_path)
    key = WorkloadMemo.key("recipe", 5, 3)
    build = _Builds(jobs)
    assert memo.fetch(key, build) == jobs
    assert memo.fetch(key, build) == jobs
    assert build.calls == 2
    assert not any(tmp_path.iterdir())


def test_without_a_root_the_memo_keeps_streams_in_process():
    memo = WorkloadMemo()
    build = _Builds(make_jobs(5, seed=4))
    key = WorkloadMemo.key("recipe", 5, 4)
    assert memo.fetch(key, build) == memo.fetch(key, build)
    assert build.calls == 1
    with pytest.raises(ValueError):
        memo.path(key)


def test_trace_prefixes_are_cut_afresh_and_models_fitted_on_them_memoised(tmp_path):
    from repro.workloads.swf import read_swf, write_swf

    write_swf(make_jobs(150, seed=9, max_nodes=128), tmp_path / "trace.swf")
    trace = read_swf(tmp_path / "trace.swf")
    engine = ExperimentEngine(cache=tmp_path / "cache")
    memo = engine.workload_memo
    table3, table4 = EXPERIMENTS["table3"], EXPERIMENTS["table4"]

    prefix = _experiment_jobs(table3, 120, 42, trace, memo)
    assert any(job.meta for job in prefix)
    assert not (tmp_path / "cache" / "workloads").exists()

    fitted = _experiment_jobs(table4, 120, 42, trace, memo)
    synthetic = _experiment_jobs(table4, 120, 42, None, memo)
    assert len(list((tmp_path / "cache" / "workloads").glob("*.jobs"))) == 2
    assert fingerprint_jobs(fitted) != fingerprint_jobs(synthetic)
    # Each equals its recipe built without a memo.
    assert fingerprint_jobs(fitted) == fingerprint_jobs(
        _experiment_jobs(table4, 120, 42, trace)
    )
    assert fingerprint_jobs(synthetic) == fingerprint_jobs(
        _experiment_jobs(table4, 120, 42, None)
    )
