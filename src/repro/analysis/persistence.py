"""Result persistence: grid cells as JSON, engine events as JSON lines.

* **grid cells** — the :func:`cell_to_dict` / :func:`cell_from_dict` pair
  is the payload of the experiment engine's content-addressed cache;
* **engine events** — :func:`event_line` encodes one structured progress
  event as the JSON line the CLI's ``--events`` log appends.

:func:`append_events` is kept only for the benchmark harness, which names
it as a patch point: nothing in the package calls it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (analysis <- experiments)
    from repro.experiments.engine import ProgressEvent
    from repro.experiments.runner import CellResult


# -- grid cells (JSON) ---------------------------------------------------------
#
# The experiment imports live inside the functions: ``repro.experiments``
# imports this package at module load, so importing it back at the top
# level would be circular.


def cell_to_dict(cell: "CellResult") -> dict:
    """JSON-safe payload for one grid cell (engine cache format)."""
    return {
        "row": cell.config.row,
        "column": cell.config.column,
        "objective": cell.objective,
        "compute_time": cell.compute_time,
        "max_queue_length": cell.max_queue_length,
        "makespan": cell.makespan,
        "decision_time": cell.decision_time,
        "interrupted_jobs": cell.interrupted_jobs,
        "wasted_node_seconds": cell.wasted_node_seconds,
        "lost_node_seconds": cell.lost_node_seconds,
        "requeue_delay": cell.requeue_delay,
    }


def cell_from_dict(payload: dict) -> "CellResult":
    """Inverse of :func:`cell_to_dict`.

    The resilience fields default to zero so grids written before failure
    injection existed still load.
    """
    from repro.experiments.runner import CellResult
    from repro.schedulers.registry import SchedulerConfig

    return CellResult(
        config=SchedulerConfig(row=payload["row"], column=payload["column"]),
        objective=float(payload["objective"]),
        compute_time=float(payload["compute_time"]),
        max_queue_length=int(payload["max_queue_length"]),
        makespan=float(payload["makespan"]),
        decision_time=float(payload.get("decision_time", 0.0)),
        interrupted_jobs=int(payload.get("interrupted_jobs", 0)),
        wasted_node_seconds=float(payload.get("wasted_node_seconds", 0.0)),
        lost_node_seconds=float(payload.get("lost_node_seconds", 0.0)),
        requeue_delay=float(payload.get("requeue_delay", 0.0)),
    )


# -- engine progress events (JSON lines) ---------------------------------------


#: The fields of a :class:`~repro.experiments.lifecycle.ProgressEvent`,
#: in declaration order — the key order of every events-JSONL line.
EVENT_FIELDS = (
    "kind",
    "workload_name",
    "weighted",
    "key",
    "wall_time",
    "objective",
    "cached",
    "detail",
    "run_id",
)


def event_line(event: "ProgressEvent") -> str:
    """One engine progress event as its JSONL line (newline included)."""
    return json.dumps({name: getattr(event, name) for name in EVENT_FIELDS}) + "\n"


def append_events(events: "Iterable[ProgressEvent]", target: str | Path) -> int:
    """Append engine progress events to a JSONL file; returns the count.

    Append semantics match the engine's resumability: successive (partial)
    runs accumulate into one log.
    """
    count = 0
    with open(target, "a", encoding="utf-8") as handle:
        for event in events:
            handle.write(event_line(event))
            count += 1
    return count
