"""Aggregate schedule summaries for reports and examples."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.schedule import Schedule
from repro.metrics.objectives import (
    average_response_time,
    average_weighted_response_time,
    utilisation,
)


@dataclass(frozen=True, slots=True)
class ScheduleSummary:
    """The numbers a site administrator looks at first."""

    n_jobs: int
    makespan: float
    art: float
    awrt: float
    mean_wait: float
    median_wait: float
    p95_wait: float
    utilisation: float

    def describe(self) -> str:
        return "\n".join(
            [
                f"jobs            {self.n_jobs}",
                f"makespan        {self.makespan:.0f} s ({self.makespan / 86400:.1f} days)",
                f"ART             {self.art:.0f} s",
                f"AWRT            {self.awrt:.3E}",
                f"wait mean/med   {self.mean_wait:.0f} / {self.median_wait:.0f} s",
                f"wait p95        {self.p95_wait:.0f} s",
                f"utilisation     {self.utilisation * 100:.1f} %",
            ]
        )


def summarize(schedule: Schedule, total_nodes: int) -> ScheduleSummary:
    waits = np.array([item.wait_time for item in schedule]) if len(schedule) else np.zeros(1)
    return ScheduleSummary(
        n_jobs=len(schedule),
        makespan=schedule.makespan,
        art=average_response_time(schedule),
        awrt=average_weighted_response_time(schedule),
        mean_wait=float(waits.mean()),
        median_wait=float(np.median(waits)),
        p95_wait=float(np.percentile(waits, 95)),
        utilisation=utilisation(schedule, total_nodes),
    )
