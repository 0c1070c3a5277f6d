"""Experiment harness regenerating the paper's Tables 3–8 and Figures 3–6.

* :mod:`repro.experiments.runner` — the grid result records and the serial
  ``run_grid`` convenience wrapper;
* :mod:`repro.experiments.engine` — the parallel experiment engine: one
  frozen grid request per call, process-pool cell fan-out,
  content-addressed result caching, structured progress events
  (:mod:`~repro.experiments.fingerprint` holds the content addresses,
  :mod:`~repro.experiments.lifecycle` the per-run state,
  :mod:`~repro.experiments.pool` the worker pool and its retry loop,
  :mod:`~repro.experiments.backends` the result cache);
* :mod:`repro.experiments.tables` — render results in the paper's table
  layout (Listscheduler / Backfilling / EASY-Backfilling columns, absolute
  values plus percentages against the FCFS+EASY reference);
* :mod:`repro.experiments.paper` — one entry per paper artifact, each
  bundling the workload recipe, the regime, the paper's published numbers
  and the comparison report;
* :mod:`repro.experiments.journal` — the crash-tolerant run lifecycle:
  append-only run journals, deterministic run ids, resume, the
  ``verify_run`` integrity audit;
* :mod:`repro.experiments.cli` — ``repro-experiments`` command line.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.runner import CellResult, GridResult, run_grid
    from repro.experiments.engine import (
        CachePruneStats,
        ExperimentEngine,
        ProgressEvent,
        ResultCache,
        RunStats,
    )
    from repro.experiments.journal import (
        JournalCorruptError,
        JournalError,
        ManifestMismatchError,
        RunAudit,
        RunInterrupted,
        RunJournal,
        RunSummary,
        UnknownRunError,
        list_runs,
        read_journal,
        verify_run,
    )
    from repro.experiments.paper import (
        EXPERIMENTS,
        ExperimentSpec,
        run_experiment,
    )
    from repro.experiments.tables import format_grid, format_comparison

__getattr__, __dir__ = lazy_exports(__name__, {
    ".runner": ("CellResult", "GridResult", "run_grid"),
    ".engine": (
        "CachePruneStats", "ExperimentEngine", "ProgressEvent",
        "ResultCache", "RunStats",
    ),
    ".journal": (
        "JournalCorruptError", "JournalError", "ManifestMismatchError",
        "RunAudit", "RunInterrupted", "RunJournal", "RunSummary",
        "UnknownRunError", "list_runs", "read_journal", "verify_run",
    ),
    ".paper": ("EXPERIMENTS", "ExperimentSpec", "run_experiment"),
    ".tables": ("format_grid", "format_comparison"),
})

__all__ = [
    "CachePruneStats",
    "CellResult",
    "EXPERIMENTS",
    "ExperimentEngine",
    "ExperimentSpec",
    "GridResult",
    "JournalCorruptError",
    "JournalError",
    "ManifestMismatchError",
    "ProgressEvent",
    "ResultCache",
    "RunAudit",
    "RunInterrupted",
    "RunJournal",
    "RunStats",
    "RunSummary",
    "UnknownRunError",
    "format_comparison",
    "format_grid",
    "list_runs",
    "read_journal",
    "run_experiment",
    "run_grid",
    "verify_run",
]
