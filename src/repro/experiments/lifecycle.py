"""One engine run as an object: transitions, stats, journal, signals.

:class:`GridRun` holds everything one :meth:`ExperimentEngine.run
<repro.experiments.engine.ExperimentEngine.run>` mutates — the request,
the grid being filled, the stats, the results, the journal, the run id
and the interrupt flag — so the engine object itself stays reusable and
stateless between runs (its only per-run attribute is the public
``stats`` of the most recent run).  It is where the run's journal is
continued or started (the constructor), where every transition is
journaled, counted and announced in one call (:meth:`GridRun.note`,
after :data:`TRANSITIONS`), where SIGINT/SIGTERM become a
:class:`~repro.experiments.journal.RunInterrupted` that a rerun of the
same call picks up from (:meth:`GridRun.signals`, :meth:`GridRun.interrupt`).
"""

from __future__ import annotations

import contextlib
import signal
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, NoReturn, Sequence

from repro.experiments.journal import RunInterrupted, RunJournal, journal_path
from repro.experiments.runner import CellResult, GridResult
from repro.schedulers.registry import SchedulerConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.backends.cache import ResultCache
    from repro.experiments.engine import GridRequest

__all__ = ["EventFn", "GridRun", "ProgressEvent", "RunStats", "TRANSITIONS"]


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
    events.  ``grid-started``/``grid-finished`` of a journaled run carry
    its ``run_id`` (its journal's name), other events ``None``.
    ``cell-started`` comes with a cell's first ``started`` record: once
    per cell per run, however many attempts the cell then takes.
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


#: Every transition of a run: the journal state it writes, the event kind
#: it announces and the :class:`RunStats` field it folds into, if any.
TRANSITIONS: dict[str, tuple[str | None, str | None, str | None]] = {
    "scheduled": ("scheduled", None, None),
    "cache-hit": ("completed", "cache-hit", "cache_hits"),
    "started": ("started", "cell-started", None),
    "completed": ("completed", "cell-finished", "simulated"),
    "retry": ("failed", "cell-retry", "retries"),
    "abandoned": ("abandoned", None, None),
    "interrupted": ("interrupted", None, None),
    "pooled": (None, None, "backend"),
    "worker-replaced": (None, None, "worker_replacements"),
    "degraded": (None, "engine-degraded", "degraded_cells"),
    "grid-started": (None, "grid-started", None),
    "grid-finished": (None, "grid-finished", "wall_time"),
}


class GridRun:
    """The mutable state of one engine run (see the module docstring).

    Used as a context manager around the run's work: leaving closes the
    journal — also when the run is interrupted or fails.
    """

    __slots__ = (
        "request", "grid", "stats", "results", "cache", "journal",
        "interrupted", "_on_event", "_held", "_already", "_announced",
        "_t_start",
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
        #: Cells whose ``cell-started`` was sent.
        self._announced: set[str] = set()
        if journal_root is not None:
            self.journal, replay = RunJournal.open(
                journal_path(journal_root, request.run_id), request.manifest
            )
            if replay is not None:
                self._already = frozenset(replay.completed)
        self._t_start = time.perf_counter()

    # -- transitions ----------------------------------------------------------

    def note(
        self, kind: str, key: str | None = None, *, fingerprint: str | None = None,
        cell: CellResult | None = None, wall_time: float | None = None,
        detail: str | None = None, attempt: str | None = None, count: int = 1,
    ) -> None:
        """Journal, count and announce one transition (:data:`TRANSITIONS`).

        A ``cell`` is filed first, a simulated one in the cache before its
        journal record: a crash between the two leaves an orphaned entry a
        rerun heals, never a journaled completion with no result.  A hit a
        continued journal holds is not journaled again; ``cell-started``
        goes out with a cell's first ``started`` record only.  ``attempt``
        ("1/2") heads a retry's event detail; a counter grows by ``count``.
        """
        state, event, counter = TRANSITIONS[kind]
        cached = kind == "cache-hit"
        objective = None
        if cell is not None:
            self.results[key] = cell  # type: ignore[index]
            objective = cell.objective
            if not cached and self.cache is not None:
                self.cache.put(fingerprint, cell)  # type: ignore[arg-type]
        if state and self.journal is not None and not (cached and key in self._already):
            self.journal.record_cell(
                key, state, fingerprint=fingerprint,  # type: ignore[arg-type]
                objective=objective, cached=cached, detail=detail,
            )
        stats = self.stats
        if counter == "backend":
            stats.backend = "local-pool"
        elif counter == "wall_time":
            wall_time = stats.wall_time = time.perf_counter() - self._t_start
        elif counter:
            setattr(stats, counter, getattr(stats, counter) + count)
        if kind == "started":
            if key in self._announced:
                return
            self._announced.add(key)  # type: ignore[arg-type]
        elif kind == "retry":
            detail = f"attempt {attempt}: {detail}"
        elif kind == "degraded":
            detail = (
                f"{count} cell(s) fell back to in-process serial execution after "
                f"{stats.retries} retries and {stats.worker_replacements} worker "
                f"replacements"
            )
        if event is None or self._on_event is None:
            return
        run_id = stats.run_id if event.startswith("grid-") else None
        message = ProgressEvent(
            event, self.grid.workload_name, self.grid.weighted, key,
            wall_time, objective, cached, detail, run_id,
        )
        if self._held is not None:
            self._held.append(message)
        else:
            self._on_event(message)

    @contextlib.contextmanager
    def batch(self) -> Iterator[None]:
        """Group commit: the records noted inside share one fsync
        (:meth:`RunJournal.batch <repro.experiments.journal.RunJournal.
        batch>`) and their events wait, in order, until it returned, so no
        event announces a fact the journal could lose.  An exception drops
        them: the run is over, and a rerun replays what the journal kept.
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
        for event in held:  # empty without a callback: note holds nothing
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
                    self.note("scheduled", config.key, fingerprint=fp)
                    pending.append((config, fp))
                else:
                    self.note("cache-hit", config.key, fingerprint=fp, cell=cell)
        return pending

    # -- graceful shutdown ----------------------------------------------------

    def interrupt(self, unfinished: Sequence[tuple[str, str]]) -> NoReturn:
        """Journal ``(key, fingerprint)`` cells as interrupted and raise."""
        for key, fp in unfinished:
            self.note("interrupted", key, fingerprint=fp)
        raise RunInterrupted(
            self.stats.run_id,  # type: ignore[arg-type]
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
