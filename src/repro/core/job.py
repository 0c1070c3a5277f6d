"""The rigid job model.

The paper's Example 5 (Section 3) fixes the job model used throughout the
evaluation:

* jobs are *rigid* — the user provides the exact number of nodes;
* the user provides an *upper limit* on execution time (the estimate); a job
  exceeding it may be cancelled;
* jobs have exclusive access to their partition, and the machine does not
  support time sharing.

A :class:`Job` is therefore fully described by its submission time, node
request, actual execution time, and estimated (requested) execution time.
The *weight* used by the average weighted response time objective is the
job's resource consumption — ``nodes * runtime`` (Section 4); schedulers that
use Smith ratios read :attr:`Job.weight`, which defaults to that area but can
be overridden for custom objectives.
"""

from __future__ import annotations

import enum
from math import inf
from dataclasses import dataclass, field, replace
from typing import Any, Mapping


class JobState(enum.Enum):
    """Lifecycle of a job inside the on-line simulator."""

    PENDING = "pending"      # not yet submitted (simulated clock < submit)
    QUEUED = "queued"        # submitted, waiting for resources
    RUNNING = "running"      # occupying its partition
    COMPLETED = "completed"  # finished (ran to completion)
    CANCELLED = "cancelled"  # killed at its estimate limit


@dataclass(frozen=True, slots=True)
class Job:
    """An immutable rigid-job record.

    Parameters
    ----------
    job_id:
        Unique identifier within one workload.  Ties in the simulator are
        broken by ``job_id`` so runs are deterministic.
    submit_time:
        Arrival of the submission data at the scheduling system (seconds).
    nodes:
        Exact number of nodes requested (rigid job model).
    runtime:
        Actual execution time in seconds.  Unknown to on-line schedulers
        until completion.
    estimate:
        User-provided upper limit for the execution time.  This is what
        estimate-based schedulers (backfilling, SMART, PSRS) may look at.
        Defaults to ``runtime`` (exact knowledge) when not given.
    user:
        Optional user identifier (used by policy rules and SWF round trips).
    weight:
        Weight for weighted-completion-time style objectives.  ``None``
        means "use the paper's default", i.e. resource consumption
        ``nodes * runtime``; see :attr:`area`.
    meta:
        Free-form extra submission data (LoadLeveler class, node type, ...).
        Ignored by every scheduler, preserved by trace transforms.
    """

    job_id: int
    submit_time: float
    nodes: int
    runtime: float
    estimate: float | None = None
    user: int = 0
    weight: float | None = None
    meta: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.job_id < 0:
            raise ValueError(f"job_id must be non-negative, got {self.job_id}")
        if self.nodes <= 0:
            raise ValueError(f"job {self.job_id}: nodes must be positive, got {self.nodes}")
        # ``0 <= x < inf`` is false for NaN and both infinities as well as
        # for negatives: a NaN submit time would otherwise pass a sign
        # check and stall the event loop forever.
        if not 0 <= self.runtime < inf:
            raise ValueError(
                f"job {self.job_id}: runtime must be finite and non-negative, got {self.runtime}"
            )
        if not 0 <= self.submit_time < inf:
            raise ValueError(
                f"job {self.job_id}: submit_time must be finite and non-negative, "
                f"got {self.submit_time}"
            )
        if self.estimate is not None and not 0 <= self.estimate < inf:
            raise ValueError(
                f"job {self.job_id}: estimate must be finite and non-negative, got {self.estimate}"
            )
        if self.weight is not None and not 0 <= self.weight < inf:
            raise ValueError(
                f"job {self.job_id}: weight must be finite and non-negative, got {self.weight}"
            )

    # -- derived quantities -------------------------------------------------

    @property
    def estimated_runtime(self) -> float:
        """The execution time the scheduler is allowed to assume.

        The user's upper limit when provided, otherwise the actual runtime
        (i.e. exact knowledge, as in the paper's Table 6 study).
        """
        return self.runtime if self.estimate is None else self.estimate

    @property
    def area(self) -> float:
        """Resource consumption: ``nodes * runtime``.

        This is the weight of the job under the paper's average weighted
        response time objective (Section 4).
        """
        return self.nodes * self.runtime

    @property
    def estimated_area(self) -> float:
        """Resource consumption as projected from the user estimate."""
        return self.nodes * self.estimated_runtime

    @property
    def effective_weight(self) -> float:
        """The weight used by weighted objectives and Smith ratios."""
        return self.area if self.weight is None else self.weight

    # -- convenience --------------------------------------------------------

    def with_exact_estimate(self) -> "Job":
        """Return a copy whose estimate equals the actual runtime.

        Used by the Table 6 experiment ("Knowledge of the Exact Job
        Execution Time").
        """
        return replace(self, estimate=self.runtime)

    def smith_ratio(self) -> float:
        """Smith's ratio weight/runtime (estimated), largest-first is WSPT.

        For zero-runtime jobs the ratio is infinite — such jobs should
        always be ordered first, which ``float('inf')`` achieves naturally.
        """
        rt = self.estimated_runtime
        if rt == 0:
            return float("inf")
        return self.effective_weight / rt

    def modified_smith_ratio(self) -> float:
        """PSRS's modified Smith ratio: weight / (nodes * runtime).

        With the paper's default weight (``nodes * runtime``) this is 1 for
        every job when estimates are exact; PSRS then degenerates to its
        tie-breaking order.  With estimated runtimes, the ratio is
        ``runtime_estimated_area / estimated_area`` computed from the data
        the scheduler may see, i.e. weight over *estimated* area.
        """
        denom = self.nodes * self.estimated_runtime
        if denom == 0:
            return float("inf")
        return self.effective_weight / denom


def validate_stream(jobs: list[Job]) -> None:
    """Validate a job stream: unique ids, sorted by submission time.

    The simulator accepts unsorted input (it sorts internally) but many
    workload-level invariants are easier to state on a normalised stream.
    Raises ``ValueError`` on duplicate ids.
    """
    seen: set[int] = set()
    for job in jobs:
        if job.job_id in seen:
            raise ValueError(f"duplicate job_id {job.job_id} in stream")
        seen.add(job.job_id)


def sort_stream(jobs: list[Job]) -> list[Job]:
    """Return the stream sorted by (submit_time, job_id)."""
    return sorted(jobs, key=lambda j: (j.submit_time, j.job_id))
