"""Objective functions and schedule metrics (Sections 2.2 and 4).

The paper's two evaluation objectives:

* :func:`average_response_time` — "the sum of the differences between the
  completion time and submission time for each job divided by the number of
  jobs" (weekday daytime, Rule 5 of Example 5);
* :func:`average_weighted_response_time` — the same with each difference
  multiplied by the job's resource consumption (nights/weekends, Rule 6,
  chosen because the sum of idle times "does not support on-line
  scheduling" and the makespan "is mainly an off-line criterion").

Plus the criteria the administrator considered and rejected
(:func:`makespan`, :func:`idle_node_seconds`) and the usual companions from
the job scheduling literature (utilisation, bounded slowdown), all usable as
criterion functions in the :mod:`repro.policy` framework.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.metrics.objectives import (
        average_bounded_slowdown,
        average_response_time,
        average_weighted_response_time,
        idle_node_seconds,
        makespan,
        utilisation,
    )
    from repro.metrics.bounds import (
        ImprovementPotential,
        art_lower_bound,
        awrt_lower_bound,
        improvement_potential,
        makespan_lower_bound,
        smith_squashed_bound,
        srpt_squashed_bound,
    )
    from repro.metrics.windows import (
        filter_by_window,
        windowed_art,
        windowed_awrt,
    )
    from repro.metrics.classes import (
        class_breakdown,
        class_compute_share,
        class_response_time,
        format_class_breakdown,
    )

__getattr__, __dir__ = lazy_exports(__name__, {
    ".objectives": (
        "average_bounded_slowdown", "average_response_time",
        "average_weighted_response_time", "idle_node_seconds", "makespan",
        "utilisation",
    ),
    ".bounds": (
        "ImprovementPotential", "art_lower_bound", "awrt_lower_bound",
        "improvement_potential", "makespan_lower_bound",
        "smith_squashed_bound", "srpt_squashed_bound",
    ),
    ".windows": ("filter_by_window", "windowed_art", "windowed_awrt"),
    ".classes": (
        "class_breakdown", "class_compute_share", "class_response_time",
        "format_class_breakdown",
    ),
})

__all__ = [
    "ImprovementPotential",
    "art_lower_bound",
    "average_bounded_slowdown",
    "average_response_time",
    "average_weighted_response_time",
    "awrt_lower_bound",
    "class_breakdown",
    "class_compute_share",
    "class_response_time",
    "filter_by_window",
    "format_class_breakdown",
    "idle_node_seconds",
    "improvement_potential",
    "makespan",
    "makespan_lower_bound",
    "smith_squashed_bound",
    "srpt_squashed_bound",
    "utilisation",
    "windowed_art",
    "windowed_awrt",
]
