"""Classical baseline order policies beyond the paper's grid.

Section 5: "In this first step it is frequently beneficial to consider a
wide range of algorithms."  The paper's administrator stopped at seven;
this module supplies the other standbys of the JSSPP literature so users
of the library can widen the comparison the way the paper recommends:

* SJF / LJF — shortest / longest estimated runtime first;
* SAF / LAF — smallest / largest estimated area first;
* NF / WF — narrowest / widest first;
* RANDOM — a seeded random order, the classic sanity baseline.

Each is a :class:`KeyOrderPolicy` usable with every servicing discipline,
so e.g. SJF + EASY backfilling is one line.  All keys read only
scheduler-visible data (estimates, widths).
"""

from __future__ import annotations

import random
from bisect import bisect_right
from typing import Callable, Sequence

from repro.core.job import Job
from repro.core.scheduler import Scheduler
from repro.schedulers.base import Discipline, OrderedQueueScheduler, OrderPolicy
from repro.schedulers.disciplines import (
    ConservativeBackfill,
    EasyBackfill,
    HeadBlockingDiscipline,
)

#: Sort key over scheduler-visible job data; smallest first.
OrderKey = Callable[[Job], float]


class KeyOrderPolicy(OrderPolicy):
    """Order the wait queue by a job key, smallest key first.

    An arrival is inserted at its place on ``(key, job_id)``; job ids are
    unique, so the order is total and runs are deterministic.
    """

    uses_estimates = True

    def __init__(self, key: OrderKey, name: str) -> None:
        super().__init__()
        self._key = key
        self.name = name

    def _rank(self, job: Job) -> tuple[float, int]:
        return self._key(job), job.job_id

    def enqueue(self, job: Job, now: float) -> None:
        rank = self._rank
        self.queue.insert(bisect_right(self.queue, rank(job), key=rank), job)


class RandomOrderPolicy(OrderPolicy):
    """Seeded random queue order, reshuffled at every decision point.

    Deliberately memoryless — the baseline that any intentional policy
    should beat.
    """

    uses_estimates = False

    def __init__(self, seed: int = 0) -> None:
        super().__init__()
        self.name = "RANDOM"
        self._rng = random.Random(seed)
        self._seed = seed

    def reset(self) -> None:
        super().reset()
        self._rng = random.Random(self._seed)

    def ordered(self, now: float) -> Sequence[Job]:
        order = list(self.queue)
        self._rng.shuffle(order)
        self.queue.reorder(order)
        return self.queue


#: name -> key factory for the deterministic baselines.
BASELINE_KEYS: dict[str, OrderKey] = {
    "sjf": lambda j: j.estimated_runtime,
    "ljf": lambda j: -j.estimated_runtime,
    "saf": lambda j: j.estimated_area,
    "laf": lambda j: -j.estimated_area,
    "nf": lambda j: j.nodes,
    "wf": lambda j: -j.nodes,
}

_DISCIPLINES: dict[str, Callable[[], Discipline]] = {
    "list": HeadBlockingDiscipline,
    "conservative": ConservativeBackfill,
    "easy": EasyBackfill,
}


def baseline_scheduler(
    order: str, discipline: str = "list", *, seed: int = 0
) -> Scheduler:
    """Build a baseline scheduler, e.g. ``baseline_scheduler("sjf", "easy")``.

    ``order`` is one of :data:`BASELINE_KEYS` or ``"random"``;
    ``discipline`` one of ``list`` / ``conservative`` / ``easy``.
    """
    if discipline not in _DISCIPLINES:
        raise ValueError(
            f"unknown discipline {discipline!r}; pick one of {sorted(_DISCIPLINES)}"
        )
    policy: OrderPolicy
    if order == "random":
        policy = RandomOrderPolicy(seed=seed)
    elif order in BASELINE_KEYS:
        policy = KeyOrderPolicy(BASELINE_KEYS[order], name=order.upper())
    else:
        raise ValueError(
            f"unknown order {order!r}; pick one of "
            f"{sorted(BASELINE_KEYS) + ['random']}"
        )
    disc = _DISCIPLINES[discipline]()
    return OrderedQueueScheduler(policy, disc, name=f"{policy.name}+{disc.name}")

