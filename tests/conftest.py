"""Shared fixtures: small deterministic workloads and machines."""

from __future__ import annotations

import os
import random
import shutil
import tempfile

import pytest

from repro.core.job import Job
from repro.core.machine import Machine

_saved_cache_home: "str | None" = None
_session_cache: "str | None" = None


def pytest_configure(config):
    """Build the compiled conservative walk into a per-session cache, not
    the user's: every simulation the suite runs on the fast backend (and
    every worker process it forks) loads it from there."""
    global _saved_cache_home, _session_cache
    _saved_cache_home = os.environ.get("XDG_CACHE_HOME")
    _session_cache = tempfile.mkdtemp(prefix="repro-test-cache-")
    os.environ["XDG_CACHE_HOME"] = _session_cache


def pytest_unconfigure(config):
    if _saved_cache_home is None:
        os.environ.pop("XDG_CACHE_HOME", None)
    else:
        os.environ["XDG_CACHE_HOME"] = _saved_cache_home
    if _session_cache is not None:
        shutil.rmtree(_session_cache, ignore_errors=True)


def make_jobs(
    n: int,
    *,
    seed: int = 0,
    max_nodes: int = 64,
    mean_gap: float = 120.0,
    max_runtime: float = 3000.0,
    loose_estimates: bool = True,
) -> list[Job]:
    """Small random-but-deterministic job streams for unit tests."""
    rng = random.Random(seed)
    jobs = []
    t = 0.0
    for i in range(n):
        t += rng.uniform(0, 2 * mean_gap)
        runtime = rng.uniform(1.0, max_runtime)
        estimate = runtime * rng.uniform(1.0, 4.0) if loose_estimates else runtime
        jobs.append(
            Job(
                job_id=i,
                submit_time=t,
                nodes=rng.randint(1, max_nodes),
                runtime=runtime,
                estimate=estimate,
            )
        )
    return jobs


def failure_spec(trace, recovery: str | None = None):
    """A one-component ScenarioSpec replaying ``trace`` verbatim."""
    from repro.scenarios import FailureModel, ScenarioSpec

    triples = tuple((f.down_time, f.up_time, f.nodes) for f in trace)
    return ScenarioSpec((FailureModel(trace=triples, recovery=recovery),))


def all_heap_queue(jobs, cancellations=(), failures=()):
    """One heap holding everything known before a run, pushed as the
    python backend pushes it: arrivals, cancellations, failures (down,
    up) — the oracle the merged feed's order is checked against."""
    from repro.core.events import EventKind, EventQueue

    events = EventQueue()
    for job in jobs:
        events.push(job.submit_time, EventKind.SUBMISSION, job)
    for cancel in cancellations:
        events.push(cancel.time, EventKind.CANCELLATION, cancel.job_id)
    for fail in failures:
        events.push(fail.down_time, EventKind.NODE_DOWN, fail)
        events.push(fail.up_time, EventKind.NODE_UP, fail)
    return events


@pytest.fixture
def small_stream() -> list[Job]:
    return make_jobs(60, seed=7)


@pytest.fixture
def machine() -> Machine:
    return Machine(128)


def schedule_digest(schedule) -> str:
    """SHA-256 over ``(job_id, repr(start), repr(end))`` in record order —
    the bit-level pin for event loops that have no independent oracle."""
    import hashlib

    h = hashlib.sha256()
    for item in schedule:
        h.update(f"{item.job.job_id},{item.start_time!r},{item.end_time!r};".encode())
    return h.hexdigest()


class StarvingScheduler:
    """Queues every job and never starts one: the run must refuse to end
    with them still queued rather than return a short schedule."""

    name = "starving"
    uses_estimates = False

    def __init__(self) -> None:
        self.queue: list[Job] = []

    def reset(self) -> None:
        self.queue = []

    def on_submit(self, job, ctx) -> None:
        self.queue.append(job)

    def on_complete(self, job, ctx) -> None:
        pass

    def select_jobs(self, ctx) -> list[Job]:
        return []

    def next_wakeup(self, ctx) -> None:
        return None

    @property
    def pending_count(self) -> int:
        return len(self.queue)
