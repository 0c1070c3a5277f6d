"""On-line adaptation of off-line ordering algorithms (Section 5.4, item 1).

SMART and PSRS are off-line algorithms: they need all jobs at time 0 and
a-priori runtimes.  The paper adapts them by

1. using them only to produce a *job order* over the jobs "already submitted
   but not yet started", serviced by a greedy list schedule (optionally with
   backfilling), and
2. substituting the user estimate for the actual execution time.

"In order to reduce the number of recomputations … the schedule is
recalculated when the ratio between the already scheduled jobs in the wait
queue to all the jobs in this queue exceeds a certain value.  In the example
a ratio of 2/3 is used."  We read this as: the order is recomputed as soon
as the fraction of the queue covered by the last off-line run drops below
the threshold (i.e. more than one third of the queue is new).  Jobs that
arrived after the last recomputation are appended in submission order until
the next recomputation.  The threshold is a constructor parameter, so the
sensitivity ablation in ``benchmarks/bench_ablations.py`` can sweep it.
"""

from __future__ import annotations

import abc
from typing import Sequence

from repro.core.job import Job
from repro.schedulers.base import OrderPolicy

class RecomputingOrderPolicy(OrderPolicy):
    """Maintains an off-line computed order over a changing wait queue."""

    uses_estimates = True

    def __init__(
        self,
        total_nodes: int,
        *,
        recompute_threshold: float = 2.0 / 3.0,
    ) -> None:
        if not 0.0 < recompute_threshold <= 1.0:
            raise ValueError(
                f"recompute_threshold must be in (0, 1], got {recompute_threshold}"
            )
        self.total_nodes = total_nodes
        self.recompute_threshold = recompute_threshold
        self._ordered: list[Job] = []
        self._fresh: list[Job] = []  # arrivals since the last off-line run
        #: Number of off-line recomputations performed (diagnostics, Tables 7/8).
        self.recompute_count = 0

    @abc.abstractmethod
    def compute_order(self, jobs: Sequence[Job]) -> list[Job]:
        """Run the off-line algorithm over ``jobs`` and return the order."""

    # -- OrderPolicy interface -------------------------------------------------

    def reset(self) -> None:
        self._ordered.clear()
        self._fresh.clear()
        self.recompute_count = 0

    def enqueue(self, job: Job, now: float) -> None:
        self._fresh.append(job)

    def remove(self, job: Job) -> None:
        try:
            self._ordered.remove(job)
        except ValueError:
            self._fresh.remove(job)

    def ordered(self, now: float) -> Sequence[Job]:
        total = len(self._ordered) + len(self._fresh)
        if total == 0:
            return ()
        if self._fresh and len(self._ordered) / total < self.recompute_threshold:
            self._ordered = self.compute_order(self._ordered + self._fresh)
            self._fresh = []
            self.recompute_count += 1
        return self._ordered + self._fresh

    def __len__(self) -> int:
        return len(self._ordered) + len(self._fresh)

