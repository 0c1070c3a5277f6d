"""Result persistence: schedules as CSV, grids as JSON, events as JSONL.

Simulation campaigns outlive Python sessions; this module round-trips
finished artifacts so results can be archived, diffed between library
versions, or loaded into any analysis stack:

* **schedules** — plain CSV, one row per job with submission, width,
  runtime, estimate, start, end and cancellation flag; self-describing
  via its header row and validated on read;
* **grid results** — :func:`write_grid` / :func:`read_grid` serialize a
  whole :class:`~repro.experiments.runner.GridResult` (and the per-cell
  :func:`cell_to_dict` / :func:`cell_from_dict` pair backs the
  experiment engine's content-addressed cache);
* **engine events** — :func:`append_events` archives the engine's
  structured progress stream as JSON lines for later timing analysis
  (:func:`event_line` is the one encoder, shared with the CLI's
  ``--events`` log).
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, TextIO

from repro.core.job import Job
from repro.core.schedule import Schedule, ScheduledJob

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (analysis <- experiments)
    from repro.experiments.engine import ProgressEvent
    from repro.experiments.runner import CellResult, GridResult

#: CSV columns, in order.
COLUMNS = (
    "job_id",
    "submit_time",
    "nodes",
    "runtime",
    "estimate",
    "user",
    "weight",
    "start_time",
    "end_time",
    "cancelled",
)


class ScheduleFormatError(ValueError):
    """Raised when a schedule file is malformed."""


def write_schedule(schedule: Schedule, target: str | Path | TextIO) -> None:
    """Write a schedule as CSV (overwrites)."""
    own = isinstance(target, (str, Path))
    handle: TextIO = open(target, "w", newline="", encoding="utf-8") if own else target  # type: ignore[assignment,arg-type]
    try:
        writer = csv.writer(handle)
        writer.writerow(COLUMNS)
        for item in schedule:
            job = item.job
            writer.writerow(
                [
                    job.job_id,
                    repr(job.submit_time),
                    job.nodes,
                    repr(job.runtime),
                    repr(job.estimate) if job.estimate is not None else "",
                    job.user,
                    repr(job.weight) if job.weight is not None else "",
                    repr(item.start_time),
                    repr(item.end_time),
                    int(item.cancelled),
                ]
            )
    finally:
        if own:
            handle.close()


def read_schedule(source: str | Path | TextIO) -> Schedule:
    """Read a schedule written by :func:`write_schedule`."""
    own = isinstance(source, (str, Path))
    handle: TextIO = open(source, "r", newline="", encoding="utf-8") if own else source  # type: ignore[assignment,arg-type]
    try:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration as exc:
            raise ScheduleFormatError("empty schedule file") from exc
        if tuple(header) != COLUMNS:
            raise ScheduleFormatError(
                f"unexpected header {header!r}; expected {list(COLUMNS)}"
            )
        items = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(COLUMNS):
                raise ScheduleFormatError(
                    f"line {lineno}: expected {len(COLUMNS)} fields, got {len(row)}"
                )
            try:
                job = Job(
                    job_id=int(row[0]),
                    submit_time=float(row[1]),
                    nodes=int(row[2]),
                    runtime=float(row[3]),
                    estimate=float(row[4]) if row[4] else None,
                    user=int(row[5]),
                    weight=float(row[6]) if row[6] else None,
                )
                items.append(
                    ScheduledJob(
                        job=job,
                        start_time=float(row[7]),
                        end_time=float(row[8]),
                        cancelled=bool(int(row[9])),
                    )
                )
            except ValueError as exc:
                raise ScheduleFormatError(f"line {lineno}: {exc}") from exc
        return Schedule(items)
    finally:
        if own:
            handle.close()


# -- grid results (JSON) -------------------------------------------------------
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


def grid_to_dict(grid: "GridResult") -> dict:
    """JSON-safe payload for a whole grid, cell order preserved."""
    return {
        "workload_name": grid.workload_name,
        "weighted": grid.weighted,
        "total_nodes": grid.total_nodes,
        "n_jobs": grid.n_jobs,
        "reference_key": grid.reference_key,
        "cells": [cell_to_dict(cell) for cell in grid.cells.values()],
        "fingerprints": dict(grid.fingerprints),
    }


def grid_from_dict(payload: dict) -> "GridResult":
    """Inverse of :func:`grid_to_dict`."""
    from repro.experiments.runner import GridResult

    grid = GridResult(
        workload_name=payload["workload_name"],
        weighted=bool(payload["weighted"]),
        total_nodes=int(payload["total_nodes"]),
        n_jobs=int(payload["n_jobs"]),
        reference_key=payload.get("reference_key"),
    )
    for raw in payload["cells"]:
        cell = cell_from_dict(raw)
        grid.cells[cell.config.key] = cell
    # Grids written before the run-lifecycle layer have no fingerprints.
    fingerprints = payload.get("fingerprints")
    if fingerprints:
        grid.fingerprints.update(
            {str(key): str(value) for key, value in fingerprints.items()}
        )
    return grid


def write_grid(grid: "GridResult", target: str | Path) -> None:
    """Write one grid result as a JSON document (overwrites)."""
    Path(target).write_text(
        json.dumps(grid_to_dict(grid), indent=2) + "\n", encoding="utf-8"
    )


def read_grid(source: str | Path) -> "GridResult":
    """Read a grid written by :func:`write_grid`."""
    try:
        payload = json.loads(Path(source).read_text(encoding="utf-8"))
        return grid_from_dict(payload)
    except (ValueError, KeyError, TypeError) as exc:
        raise ScheduleFormatError(f"malformed grid file {source}: {exc}") from exc


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
