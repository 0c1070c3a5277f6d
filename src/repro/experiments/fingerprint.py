"""Content addresses of job streams and grid cells.

Every byte hashed here is part of the on-disk cache identity: change a
record format or a payload key and :data:`CACHE_VERSION` must move with
it.  The engine calls both functions through its own module globals
(``repro.experiments.engine``), which is where the benchmark tracer binds
them.
"""

from __future__ import annotations

import hashlib
import json
from typing import Sequence

from repro.core.job import Job
from repro.core.packing import job_record
from repro.schedulers.registry import SchedulerConfig

__all__ = ["CACHE_VERSION", "cell_fingerprint", "fingerprint_jobs"]

#: Bump when the cached payload or the simulation semantics change; old
#: entries then miss instead of replaying stale results.  v4: cell
#: fingerprints gained the canonical ``scenario`` digest (the unified
#: scenario algebra of :mod:`repro.scenarios` — see docs/architecture.md,
#: "Scenario algebra", for the decision record).
CACHE_VERSION = 4


def fingerprint_jobs(jobs: Sequence[Job]) -> str:
    """Deterministic content digest of a job stream.

    Covers every field the simulator reads (``repr`` of floats keeps full
    precision, so streams differing in the last bit get distinct digests);
    ``meta`` has never been part of a stream's cache identity.  Records
    stream into the hasher one job at a time through the shared
    :func:`repro.core.packing.job_record` formatter — the byte stream, and
    therefore the digest, is identical to what
    :func:`repro.core.packing.fingerprint_packed` computes for the packed
    form of the same jobs, so CACHE_VERSION stays put.
    """
    hasher = hashlib.sha256()
    for job in jobs:
        hasher.update(
            job_record(
                job.job_id,
                job.submit_time,
                job.nodes,
                job.runtime,
                job.estimate,
                job.user,
                job.weight,
            ).encode("ascii")
        )
    return hasher.hexdigest()


def cell_fingerprint(
    jobs_digest: str,
    config: SchedulerConfig,
    *,
    total_nodes: int,
    weighted: bool,
    recompute_threshold: float = 2.0 / 3.0,
    failures_digest: str = "",
    recovery: str = "",
    scenario: str = "",
) -> str:
    """Content address of one grid cell result.

    ``scenario`` is the canonical :meth:`ScenarioSpec.digest` of the
    scenario the cell ran under (``""`` for the healthy baseline) —
    because compilation is a pure function of ``(spec, jobs, seed)``, the
    pair ``(jobs digest, scenario digest)`` fully determines the compiled
    stream and every disturbance event.  ``failures_digest``
    (:meth:`FailureTrace.fingerprint`) and ``recovery`` (the canonical
    recovery-policy spec) additionally pin the *realized* failure inputs,
    so direct engine calls that bypass the spec layer still never collide
    in the cache.
    """
    payload = json.dumps(
        {
            "version": CACHE_VERSION,
            "jobs": jobs_digest,
            "row": config.row,
            "column": config.column,
            "total_nodes": total_nodes,
            "weighted": weighted,
            "recompute_threshold": repr(recompute_threshold),
            "failures": failures_digest,
            "recovery": recovery,
            "scenario": scenario,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("ascii")).hexdigest()
