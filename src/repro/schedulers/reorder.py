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
        super().__init__()
        self.total_nodes = total_nodes
        self.recompute_threshold = recompute_threshold
        #: ``queue[:_planned]`` is the last off-line order; the jobs past it
        #: arrived since, in submission order.
        self._planned = 0
        #: Number of off-line recomputations performed (diagnostics, Tables 7/8).
        self.recompute_count = 0

    @abc.abstractmethod
    def compute_order(self, jobs: Sequence[Job]) -> list[Job]:
        """Run the off-line algorithm over ``jobs`` and return the order."""

    # -- OrderPolicy interface -------------------------------------------------

    def reset(self) -> None:
        super().reset()
        self._planned = 0
        self.recompute_count = 0

    def remove_indexed(self, indices: Sequence[int], jobs: Sequence[Job]) -> None:
        planned = self._planned
        self._planned = planned - sum(1 for i in indices if i < planned)
        self.queue.delete(indices)

    def ordered(self, now: float) -> Sequence[Job]:
        queue = self.queue
        total = len(queue)
        if total > self._planned and self._planned / total < self.recompute_threshold:
            queue.reorder(self.compute_order(list(queue)))
            self._planned = total
            self.recompute_count += 1
        return queue
