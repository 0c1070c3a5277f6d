"""Schedule analysis aids: textual Gantt rendering and summaries.

Not part of the paper's evaluation; used by the examples and by humans
inspecting simulator output.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.gantt import render_gantt, render_job_gantt
    from repro.analysis.summary import ScheduleSummary, summarize

__getattr__, __dir__ = lazy_exports(__name__, {
    ".gantt": ("render_gantt", "render_job_gantt"),
    ".summary": ("ScheduleSummary", "summarize"),
})

__all__ = [
    "ScheduleSummary",
    "render_gantt",
    "render_job_gantt",
    "summarize",
]
