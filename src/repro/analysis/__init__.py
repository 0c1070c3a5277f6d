"""Schedule analysis aids: textual Gantt rendering and summaries.

Not part of the paper's evaluation; used by the examples and by humans
inspecting simulator output.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.gantt import render_gantt, render_job_gantt
    from repro.analysis.summary import (
        ResilienceSummary,
        ScheduleSummary,
        summarize,
        summarize_resilience,
    )
    from repro.analysis.fairness import (
        IndependenceReport,
        fairness_spread,
        later_submission_independence,
        slowdown_by_user,
        slowdown_by_width,
    )
    from repro.analysis.report import (
        ComparisonRow,
        compare_schedulers,
        format_comparison_rows,
        site_report,
    )
    from repro.analysis.timeseries import (
        backlog_series,
        queue_length_series,
        sample_series,
        saturation_point,
        utilisation_series,
    )
    from repro.analysis.heatmap import WaitHeatmap, wait_heatmap
    from repro.analysis.persistence import read_schedule, write_schedule

__getattr__, __dir__ = lazy_exports(__name__, {
    ".gantt": ("render_gantt", "render_job_gantt"),
    ".summary": (
        "ResilienceSummary", "ScheduleSummary", "summarize",
        "summarize_resilience",
    ),
    ".fairness": (
        "IndependenceReport", "fairness_spread",
        "later_submission_independence", "slowdown_by_user",
        "slowdown_by_width",
    ),
    ".report": (
        "ComparisonRow", "compare_schedulers", "format_comparison_rows",
        "site_report",
    ),
    ".timeseries": (
        "backlog_series", "queue_length_series", "sample_series",
        "saturation_point", "utilisation_series",
    ),
    ".heatmap": ("WaitHeatmap", "wait_heatmap"),
    ".persistence": ("read_schedule", "write_schedule"),
})

__all__ = [
    "ComparisonRow",
    "IndependenceReport",
    "ResilienceSummary",
    "ScheduleSummary",
    "backlog_series",
    "compare_schedulers",
    "fairness_spread",
    "format_comparison_rows",
    "later_submission_independence",
    "queue_length_series",
    "render_gantt",
    "render_job_gantt",
    "sample_series",
    "read_schedule",
    "saturation_point",
    "site_report",
    "slowdown_by_user",
    "slowdown_by_width",
    "summarize",
    "summarize_resilience",
    "utilisation_series",
    "WaitHeatmap",
    "wait_heatmap",
    "write_schedule",
]
