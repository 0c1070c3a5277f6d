"""Trace transforms used by the paper's experiments (Sections 6.1).

The administrator modifies the CTC trace before simulating:

* jobs wider than the 256-node batch partition are deleted
  (:func:`cap_nodes` — "less than 0.2 % of all jobs require more than 256
  nodes … she modifies the trace by simply deleting all those highly
  parallel jobs");
* hardware requests beyond node count are ignored (already dropped into
  ``Job.meta`` by the SWF reader);
* for the Table 6 study "the estimated execution times of the trace were
  simply replaced by the actual execution times"
  (:func:`with_exact_estimates`).

Plus general utilities for scaling studies: prefixes, renumbering,
interarrival scaling (load control).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from repro.core.job import Job


def cap_nodes(jobs: Sequence[Job], max_nodes: int) -> list[Job]:
    """Delete jobs wider than ``max_nodes`` (the paper's trace modification)."""
    if max_nodes <= 0:
        raise ValueError("max_nodes must be positive")
    return [job for job in jobs if job.nodes <= max_nodes]


def with_exact_estimates(jobs: Sequence[Job]) -> list[Job]:
    """Replace every estimate by the actual runtime (Table 6 study)."""
    return [job.with_exact_estimate() for job in jobs]


def with_scaled_estimates(jobs: Sequence[Job], factor: float) -> list[Job]:
    """Scale every estimate relative to the actual runtime.

    ``factor > 1`` produces loose over-estimates (idle-resource waste
    before reservations, weaker backfilling); ``factor < 1`` produces
    under-estimates, i.e. jobs that overrun their declared limit — the
    failure mode of Example 4.  Estimate-accuracy sensitivity studies
    sweep this factor.
    """
    if factor <= 0:
        raise ValueError("factor must be positive")
    return [replace(job, estimate=job.runtime * factor) for job in jobs]


def with_noisy_estimates(
    jobs: Sequence[Job], sigma: float, seed: int = 0
) -> list[Job]:
    """Replace estimates by ``runtime * exp(|N(0, sigma)|)``.

    ``sigma = 0`` yields exact estimates; growing ``sigma`` scrambles the
    *relative* accuracy across jobs, which is what actually degrades
    estimate-consuming schedulers — a uniform over-estimation factor (see
    :func:`with_scaled_estimates`) preserves every ordering decision and
    barely moves the results.  The half-normal keeps estimates upper
    bounds, matching the paper's job model.
    """
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    import numpy as np

    rng = np.random.default_rng(seed)
    factors = np.exp(np.abs(rng.normal(0.0, sigma, size=len(jobs))))
    # Direct construction instead of dataclasses.replace: this runs once
    # per job on every scenario compile, and replace()'s field
    # introspection dominates the whole compile at trace scale.
    return [
        Job(
            job.job_id,
            job.submit_time,
            job.nodes,
            job.runtime,
            job.runtime * float(f),
            job.user,
            job.weight,
            job.meta,
        )
        for job, f in zip(jobs, factors)
    ]


def take_prefix(jobs: Sequence[Job], n: int) -> list[Job]:
    """First ``n`` jobs by submission order (scaled-down experiments)."""
    ordered = sorted(jobs, key=lambda j: (j.submit_time, j.job_id))
    return ordered[:n]


def renumber(jobs: Sequence[Job]) -> list[Job]:
    """Re-assign consecutive ids in submission order (after filtering)."""
    ordered = sorted(jobs, key=lambda j: (j.submit_time, j.job_id))
    return [replace(job, job_id=i) for i, job in enumerate(ordered)]


def scale_interarrival(jobs: Sequence[Job], factor: float) -> list[Job]:
    """Multiply all submission times by ``factor``.

    ``factor < 1`` compresses the trace (higher offered load), ``factor > 1``
    stretches it.  Used by the load-sensitivity ablation.
    """
    if factor <= 0:
        raise ValueError("factor must be positive")
    return [replace(job, submit_time=job.submit_time * factor) for job in jobs]


def random_cancellations(
    jobs: Sequence[Job], fraction: float, seed: int = 0
) -> list["Cancellation"]:
    """Failure-injection stream: cancel a random fraction of the jobs.

    Each selected job is cancelled at a uniform instant within
    ``[submit, submit + 2 x estimated runtime]`` — early draws withdraw it
    from the queue, later ones kill it mid-run (or no-op if it already
    finished), exercising all three simulator paths.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be within [0, 1]")
    import random as _random

    from repro.core.simulator import Cancellation

    rng = _random.Random(seed)
    picked = [job for job in jobs if rng.random() < fraction]
    return [
        Cancellation(
            time=job.submit_time
            + rng.uniform(0.0, 2.0 * max(job.estimated_runtime, 1.0)),
            job_id=job.job_id,
        )
        for job in picked
    ]


def tag_interactive(
    jobs: Sequence[Job], fraction: float, seed: int = 0, *, max_nodes: int = 8
) -> list[Job]:
    """Mark a random fraction of narrow jobs as interactive.

    Interactive work (Example 5's Rule 1 carve-out) is narrow and short in
    practice, so only jobs at most ``max_nodes`` wide are eligible.  The
    tag lands in ``meta['interactive']``, the key
    :func:`repro.partitions.example5_partitioning` routes on.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be within [0, 1]")
    import random as _random

    rng = _random.Random(seed)
    out = []
    for job in jobs:
        if job.nodes <= max_nodes and rng.random() < fraction:
            meta = dict(job.meta)
            meta["interactive"] = True
            out.append(replace(job, meta=meta))
        else:
            out.append(job)
    return out

