"""One engine run as an object: events, stats, journal, signals.

:class:`GridRun` holds everything one :meth:`ExperimentEngine.run
<repro.experiments.engine.ExperimentEngine.run>` mutates — the request,
the grid being filled, the stats, the results, the journal, the run id
and the interrupt flag — so the engine object itself stays reusable and
stateless between runs (its only per-run attribute is the public
``stats`` of the most recent run).  It is where the run's journal is
continued or started (the constructor), where the cache write lands
before the journal record (:meth:`GridRun.record`), where SIGINT/SIGTERM
become a :class:`~repro.experiments.journal.RunInterrupted` that a rerun
of the same call picks up from (:meth:`GridRun.signals`,
:meth:`GridRun.interrupt`).
"""

from __future__ import annotations

import contextlib
import signal
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, NoReturn, Sequence

from repro.experiments.journal import RunInterrupted, RunJournal, journal_path
from repro.experiments.runner import CellResult, GridResult
from repro.schedulers.registry import SchedulerConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.backends.cache import ResultCache
    from repro.experiments.engine import GridRequest

__all__ = ["EventFn", "GridRun", "ProgressEvent", "RunStats"]


@dataclass(frozen=True, slots=True)
class ProgressEvent:
    """One structured engine event.

    ``kind`` is ``grid-started``, ``cell-started``, ``cache-hit``,
    ``cell-finished``, ``cell-retry``, ``engine-degraded`` or
    ``grid-finished``; ``key`` is the cell key for cell-level events and
    ``None`` for grid-level ones.  ``wall_time`` is the wall-clock of the
    finished unit (whole grid for grid-finished; the backoff pause for
    cell-retry); cache hits report the objective but no wall time.
    ``detail`` carries the human-readable reason for retry/degradation
    events.  Grid-level events of a journaled run carry its ``run_id``
    (its journal's name); it is ``None`` for journal-less runs and
    for cell-level events.  ``cell-started`` is emitted once per cell per
    run, however many attempts the cell then takes.
    """

    kind: str
    workload_name: str
    weighted: bool
    key: str | None = None
    wall_time: float | None = None
    objective: float | None = None
    cached: bool = False
    detail: str | None = None
    run_id: str | None = None


EventFn = Callable[[ProgressEvent], None]


@dataclass(slots=True)
class RunStats:
    """Execution accounting for one engine run."""

    total_cells: int = 0
    cache_hits: int = 0
    simulated: int = 0
    wall_time: float = 0.0
    #: Worker-side retries (crashes or timeouts) during this run.
    retries: int = 0
    #: Pool workers replaced after they died, stopped or overran a lease.
    worker_replacements: int = 0
    #: Cells that fell back to in-process serial execution.
    degraded_cells: int = 0
    #: "local-pool" when cells ran on the worker pool, else "serial".
    backend: str = "serial"
    #: Deterministic run id of the journal backing this run (``None``
    #: when the run was not journaled).
    run_id: str | None = None


class GridRun:
    """The mutable state of one engine run (see the module docstring).

    Used as a context manager around the run's work: leaving closes the
    journal — also when the run is interrupted or fails.
    """

    __slots__ = (
        "request", "grid", "stats", "results", "cache", "journal",
        "interrupted", "_on_event", "_held", "_already",
    )

    def __init__(
        self,
        request: "GridRequest",
        *,
        cache: "ResultCache | None",
        on_event: EventFn | None,
        journal_root: Path | None,
    ) -> None:
        self.request = request
        self.grid: GridResult = request.new_grid()
        self.results: dict[str, CellResult] = {}
        self.cache = cache
        self._on_event = on_event
        #: Events raised inside an open :meth:`batch`, in order.
        self._held: list[ProgressEvent] | None = None
        self.stats = RunStats(
            total_cells=len(request.configs),
            run_id=request.run_id if journal_root is not None else None,
        )
        #: Signal name ("SIGINT"/"SIGTERM") once a shutdown was requested.
        self.interrupted: str | None = None
        self.journal: RunJournal | None = None
        #: Cells already terminal in a continued journal: they keep their
        #: original records, only genuinely new transitions are appended.
        self._already: frozenset[str] = frozenset()
        if journal_root is not None:
            self.journal, replay = RunJournal.open(
                journal_path(journal_root, request.run_id), request.manifest
            )
            if replay is not None:
                self._already = frozenset(replay.completed)

    @property
    def run_id(self) -> str | None:
        """Id of the journal backing this run (``None``: not journaled)."""
        return self.stats.run_id

    # -- events, journal, results -------------------------------------------

    def emit(self, kind: str, **fields: object) -> None:
        """Send one :class:`ProgressEvent` of this grid to the callback
        (once the open :meth:`batch`, if any, has committed)."""
        if self._on_event is None:
            return
        event = ProgressEvent(
            kind=kind,
            workload_name=self.grid.workload_name,
            weighted=self.grid.weighted,
            **fields,  # type: ignore[arg-type]
        )
        if self._held is not None:
            self._held.append(event)
        else:
            self._on_event(event)

    def journal_cell(self, key: str, state: str, **fields: object) -> None:
        if self.journal is not None:
            self.journal.record_cell(key, state, **fields)  # type: ignore[arg-type]

    @contextlib.contextmanager
    def batch(self) -> Iterator[None]:
        """Group commit around a loop that journals several cells.

        The records written inside share one fsync
        (:meth:`RunJournal.batch <repro.experiments.journal.RunJournal.
        batch>`), and every event raised inside is held back, in order,
        until that fsync returned — so an event still never announces a
        fact the journal could lose.  An exception leaving the block
        drops the held events: the run is over, and what its journal
        kept is what a rerun replays.
        """
        commit = (
            self.journal.batch() if self.journal is not None
            else contextlib.nullcontext()
        )
        self._held = held = []
        try:
            with commit:
                yield
        finally:
            self._held = None
        for event in held:  # empty without a callback: emit holds nothing
            self._on_event(event)  # type: ignore[misc]

    def lookup(self) -> list[tuple[SchedulerConfig, str]]:
        """Fingerprint every cell; serve hits from the cache, return misses."""
        pending: list[tuple[SchedulerConfig, str]] = []
        with self.batch():
            for config in self.request.configs:
                fp = self.request.fingerprint(config)
                self.grid.fingerprints[config.key] = fp
                cell = self.cache.get(fp) if self.cache is not None else None
                if cell is None:
                    self.journal_cell(config.key, "scheduled", fingerprint=fp)
                    pending.append((config, fp))
                    continue
                self.results[config.key] = cell
                self.stats.cache_hits += 1
                if config.key not in self._already:
                    self.journal_cell(
                        config.key,
                        "completed",
                        fingerprint=fp,
                        objective=cell.objective,
                        cached=True,
                    )
                self.emit(
                    "cache-hit", key=config.key, objective=cell.objective,
                    cached=True,
                )
        return pending

    def record(
        self, key: str, fingerprint: str, cell: CellResult, wall: float
    ) -> None:
        """File one simulated cell: results, cache, journal, event."""
        self.results[key] = cell
        self.stats.simulated += 1
        if self.cache is not None:
            self.cache.put(fingerprint, cell)
        # Cache write lands before the journal record: a crash between
        # the two leaves an orphaned cache entry (healed by a rerun), never
        # a journaled completion with no backing result.  Inside a batch
        # the record is durable, and the event sent, when the batch ends.
        self.journal_cell(
            key, "completed", fingerprint=fingerprint, objective=cell.objective
        )
        self.emit("cell-finished", key=key, wall_time=wall, objective=cell.objective)

    # -- graceful shutdown ----------------------------------------------------

    def interrupt(self, unfinished: Sequence[tuple[str, str]]) -> NoReturn:
        """Journal ``(key, fingerprint)`` cells as interrupted and raise."""
        for key, fp in unfinished:
            self.journal_cell(key, "interrupted", fingerprint=fp)
        raise RunInterrupted(
            self.run_id,
            signal_name=self.interrupted,  # type: ignore[arg-type]
            completed=self.stats.cache_hits + self.stats.simulated,
            remaining=len(unfinished),
        )

    def _on_signal(self, signum: int, frame: object) -> None:
        if self.interrupted is not None:
            # Second signal: the operator is insistent — restore the
            # default disposition so a third one kills us outright.
            try:
                signal.signal(signum, signal.SIG_DFL)
            except (OSError, ValueError):  # pragma: no cover - exotic platform
                pass
            return
        self.interrupted = signal.Signals(signum).name

    @contextlib.contextmanager
    def signals(self, enabled: bool) -> Iterator[None]:
        """Graceful-shutdown handlers around the dispatch of this run.

        Installed only for journaled runs (an interrupt without a journal
        leaves a rerun nothing to continue) and only in the main thread;
        always restored afterwards.
        """
        previous: dict[int, object] = {}
        if (
            enabled
            and self.journal is not None
            and threading.current_thread() is threading.main_thread()
        ):
            for sig in (signal.SIGINT, signal.SIGTERM):
                try:
                    previous[sig] = signal.signal(sig, self._on_signal)
                except (OSError, ValueError):  # pragma: no cover - exotic platform
                    pass
        try:
            yield
        finally:
            for sig, handler in previous.items():
                try:
                    signal.signal(sig, handler)  # type: ignore[arg-type]
                except (OSError, ValueError):  # pragma: no cover - exotic platform
                    pass

    def __enter__(self) -> "GridRun":
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self.journal is not None:
            self.journal.close()
