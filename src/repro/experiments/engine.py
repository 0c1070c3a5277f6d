"""Parallel experiment engine with content-addressed result caching.

The paper's workflow is "run every candidate algorithm over every workload,
compare the tables".  :class:`ExperimentEngine` executes that grid in
three steps, one object each:

* **request** — :meth:`ExperimentEngine._prepare` normalizes one call
  into a frozen :class:`GridRequest` (compiled jobs and digest, configs,
  machine, regime, the compiled scenario as one
  :class:`~repro.core.simulator.ScenarioInputs`, the run manifest); the
  cell fingerprint, the picklable per-cell :class:`CellRequest` and the
  in-process ``simulate_cell`` call are methods of it;
* **run** — a :class:`~repro.experiments.lifecycle.GridRun` holds what
  one run mutates (grid, stats, results, journal, interrupt flag);
* **dispatch** — cache misses run in process (one worker) or through a
  :class:`~repro.experiments.pool.PoolRun` on the engine's kept
  :class:`~repro.experiments.pool.WorkerPool`: leases, dead and
  stopped workers, retries, replacements and the serial fallback.

Fingerprints live in :mod:`repro.experiments.fingerprint`, the result
cache in :mod:`repro.experiments.backends.cache`; this module re-exports
their public names and stays the one whose code *calls*
``simulate_cell``, ``fingerprint_jobs`` and ``cell_fingerprint`` (the
benchmark tracer binds them here).  See docs/architecture.md,
"Experiment engine" and "The pool loop".

Determinism: the simulation is a pure function of (jobs, config,
machine), so parallel and serial runs produce bit-identical objectives;
only ``compute_time`` (measured wall-clock inside scheduler callbacks) is
machine- and run-dependent, and a cached cell replays the ``compute_time``
of the run that produced it.

``run_grid`` in :mod:`repro.experiments.runner` is a thin serial wrapper
over this engine, so all existing callers share the same execution path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

from repro.core.job import Job
from repro.experiments.backends.cache import CachePruneStats, ResultCache
from repro.experiments.fingerprint import (
    CACHE_VERSION,
    cell_fingerprint,
    fingerprint_jobs,
)
from repro.experiments.journal import manifest_for
from repro.experiments.lifecycle import EventFn, GridRun, ProgressEvent, RunStats
from repro.experiments.runner import CellResult, GridResult, simulate_cell
from repro.experiments.workload_store import WorkloadMemo, WorkloadStore
from repro.schedulers.registry import (
    SchedulerConfig,
    paper_configurations,
    registry_generation,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.simulator import ScenarioInputs
    from repro.experiments.pool import WorkerPool
    from repro.scenarios import ScenarioSpec

__all__ = [
    "CACHE_VERSION",
    "CachePruneStats",
    "CellRequest",
    "EventFn",
    "ExperimentEngine",
    "GridRequest",
    "ProgressEvent",
    "ResultCache",
    "RunStats",
    "cell_fingerprint",
    "fingerprint_jobs",
]


# -- one grid, normalized ------------------------------------------------------


class CellRequest(NamedTuple):
    """Everything a worker needs to simulate one cell, by name.

    ``digest`` names the compiled job stream; ``scenario`` is the
    *compiled* disturbance bundle (``None``: healthy baseline) and
    ``cancel_over_limit`` its estimate-limit kill flag; ``backend``
    selects the queue walks (bit-identical results, so it never enters
    a fingerprint).  Every field but ``config`` is the grid's: a pool
    worker gets them once per grid with the packed stream, then one
    ``config`` per cell, and rebuilds the scheduler from its own
    registry by the config's row/column keys.
    """

    config: SchedulerConfig
    digest: str
    total_nodes: int
    weighted: bool
    recompute_threshold: float
    scenario: "ScenarioInputs | None"
    cancel_over_limit: bool
    backend: str | None


@dataclass(frozen=True, slots=True)
class GridRequest:
    """One grid request, normalized: everything that defines its identity.

    ``jobs`` and ``digest`` are the *compiled* stream (arrival/transform
    components folded in); ``scenario`` is the compiled disturbance
    bundle (``None`` for the healthy baseline) with its estimate-limit
    kill flag ``cancel_over_limit``, and ``scenario_digest`` the
    canonical spec digest (``""`` for the baseline) that joins every
    cell fingerprint.  ``manifest`` is the run manifest built from the
    same inputs — it carries the realized failure-trace digest and the
    canonical recovery spec, so they are computed once per request.
    """

    jobs: list[Job]
    digest: str
    configs: tuple[SchedulerConfig, ...]
    total_nodes: int
    weighted: bool
    recompute_threshold: float
    scenario: "ScenarioInputs | None"
    cancel_over_limit: bool
    scenario_digest: str
    manifest: dict

    @property
    def run_id(self) -> str:
        """The deterministic id this request journals under."""
        return str(self.manifest["run"])

    def new_grid(self) -> GridResult:
        """The empty :class:`GridResult` this request fills."""
        return GridResult(
            workload_name=self.manifest["workload_name"],
            weighted=self.weighted,
            total_nodes=self.total_nodes,
            n_jobs=len(self.jobs),
            reference_key=self.manifest["reference_key"],
        )

    def fingerprint(self, config: SchedulerConfig) -> str:
        """Content address of ``config``'s cell in this request."""
        return cell_fingerprint(
            self.digest,
            config,
            total_nodes=self.total_nodes,
            weighted=self.weighted,
            recompute_threshold=self.recompute_threshold,
            failures_digest=self.manifest["failures_digest"],
            recovery=self.manifest["recovery"],
            scenario=self.scenario_digest,
        )

    def cell_request(
        self, config: SchedulerConfig, backend: str | None
    ) -> CellRequest:
        """``config``'s cell as the record a worker simulates from."""
        return CellRequest(
            config=config,
            digest=self.digest,
            total_nodes=self.total_nodes,
            weighted=self.weighted,
            recompute_threshold=self.recompute_threshold,
            scenario=self.scenario,
            cancel_over_limit=self.cancel_over_limit,
            backend=backend,
        )

    def simulate(self, config: SchedulerConfig, backend: str | None) -> CellResult:
        """Simulate ``config``'s cell in this process, on the live jobs."""
        return _simulate(self.cell_request(config, backend), self.jobs)


def _simulate(request: CellRequest, jobs: "Sequence[Job]") -> CellResult:
    return simulate_cell(
        request.config,
        jobs,
        total_nodes=request.total_nodes,
        weighted=request.weighted,
        recompute_threshold=request.recompute_threshold,
        scenario=request.scenario,
        cancel_over_limit=request.cancel_over_limit,
        backend=request.backend,
    )


# -- the engine ----------------------------------------------------------------


class ExperimentEngine:
    """Runs scheduler grids in parallel with content-addressed caching.

    Parameters
    ----------
    workers:
        Worker processes for cell fan-out.  ``1`` (the default) runs
        serially in-process — exactly the old ``run_grid`` behaviour.
    cache:
        A :class:`ResultCache`, a directory path to create one in, or
        ``None`` to disable caching.
    on_event:
        Callback receiving every :class:`ProgressEvent`.
    cell_timeout:
        Per-cell wall-clock budget in seconds (parallel runs only).  A
        cell still unfinished past it is presumed hung: its worker is
        killed and replaced, the overdue cell charged a retry, and the
        cell waiting behind it requeued for free; the other workers keep
        running.  ``None`` (the default) never times out.  It is the only
        guard against a worker that runs but never finishes: the pool
        sees a dead worker's process sentinel and asks the kernel for a
        stopped one (``WorkerPool.stopped``).  The retry and replacement
        budgets are constants of :mod:`repro.experiments.pool`; a cell
        that spends its retries runs in process, where a deterministic
        error surfaces and a flaky one recovers.
    journal_dir:
        Directory for run journals.  ``None`` (the default) journals
        under ``<cache root>/runs`` when a cache is configured, and not
        at all otherwise — ``run_grid``'s cache-less serial path stays
        journal-free.
    handle_signals:
        When true (the default), journaled runs install SIGINT/SIGTERM
        handlers for graceful shutdown: dispatch stops, in-flight cells
        are journaled ``interrupted``, the pool is terminated and
        :class:`~repro.experiments.journal.RunInterrupted` is raised; a
        rerun of the same call continues the run.  Handlers are installed
        only in the main thread and always restored afterwards.
    backend:
        Queue-walk backend for every cell (``"python"`` / ``"numpy"`` /
        ``"auto"``; ``None`` consults ``REPRO_BACKEND``).
        Bit-identical results either way, so the backend is deliberately
        absent from cell fingerprints and run manifests — caches and
        journals written under one backend continue cleanly under the other.

    ``workload_memo`` is the engine's
    :class:`~repro.experiments.workload_store.WorkloadMemo`: the paper
    recipes' generated streams, in process and, with a cache, under
    ``<cache>/workloads``.  ``stats`` holds the :class:`RunStats` of the
    most recent :meth:`run`;
    everything else a run mutates lives on its own
    :class:`~repro.experiments.lifecycle.GridRun`.  Between runs the
    engine also keeps its local worker pool alive, so a sweep of many
    grids forks its workers once: :meth:`close` (or ``with engine:``)
    stops them, and the pool of an engine that is dropped or still open
    at interpreter exit stops its workers itself.
    """

    def __init__(
        self,
        *,
        workers: int | None = None,
        cache: ResultCache | str | Path | None = None,
        on_event: EventFn | None = None,
        cell_timeout: float | None = None,
        journal_dir: str | Path | None = None,
        handle_signals: bool = True,
        backend: str | None = None,
    ) -> None:
        self.workers = max(1, workers if workers is not None else 1)
        self.backend = backend
        self.cache = (
            ResultCache(cache) if isinstance(cache, (str, Path)) else cache
        )
        self.on_event = on_event
        self.workload_store = WorkloadStore()
        self.workload_memo = WorkloadMemo(
            self.cache.memo_root if self.cache is not None else None
        )
        if cell_timeout is not None and cell_timeout <= 0:
            raise ValueError(f"cell_timeout must be positive, got {cell_timeout}")
        self.cell_timeout = cell_timeout
        self.journal_dir = Path(journal_dir) if journal_dir is not None else None
        self.handle_signals = handle_signals
        self.stats = RunStats()
        #: The started, idle pool kept between runs (see :meth:`borrow_pool`).
        self._pool: WorkerPool | None = None

    # -- the worker pool --------------------------------------------------------

    def borrow_pool(self) -> WorkerPool:
        """Take the engine's local pool for one run.

        The pool kept from an earlier run when there is one — unless the
        scheduler registry changed since its workers were forked, which
        they could not see — else a newly started one.  The borrower
        either hands it back (:meth:`return_pool`, its workers are
        healthy) or closes it; the engine keeps no reference
        meanwhile, so a pool that gave up or was interrupted is never
        reused.
        """
        pool, self._pool = self._pool, None
        if pool is not None and pool.generation != registry_generation():
            pool.close()
            pool = None
        if pool is None:
            from repro.experiments.pool import WorkerPool

            pool = WorkerPool(workers=self.workers)
        return pool

    def return_pool(self, pool: WorkerPool) -> None:
        """Keep a started, idle pool for the next run (see :meth:`borrow_pool`)."""
        self.close()  # at most one is kept: two overlapping runs each had one
        self._pool = pool

    def close(self) -> None:
        """Stop the worker pool kept between runs (idempotent).

        The engine stays usable: the next parallel run starts a new pool.
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.close()

    def __enter__(self) -> "ExperimentEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _prepare(
        self,
        jobs: Sequence[Job],
        *,
        workload_name: str = "workload",
        total_nodes: int = 256,
        weighted: bool = False,
        configs: Sequence[SchedulerConfig] | None = None,
        recompute_threshold: float = 2.0 / 3.0,
        reference_key: str | None = None,
        scenario: "ScenarioSpec | None" = None,
    ) -> GridRequest:
        """Normalize one grid request into its manifest-defining form.

        Shared by :meth:`run` and :meth:`run_id_for`, so the deterministic
        run id is computed from exactly the inputs the dispatch path will
        use.
        """
        inputs: "ScenarioInputs | None" = None
        cancel_over_limit = False
        scenario_digest = ""
        failures_digest = ""
        recovery_spec = ""
        if scenario is not None and scenario.components:
            # (the empty spec is the healthy baseline)
            compiled = scenario.compile(jobs)
            jobs = compiled.jobs
            cancel_over_limit = compiled.cancel_over_limit
            scenario_digest = compiled.digest
            failures = compiled.inputs.failures or None
            recovery = compiled.inputs.recovery
            if failures is not None:
                failures_digest = failures.fingerprint()
            if recovery is not None:
                from repro.failures.recovery import recovery_from_spec

                # Canonicalize (and fail fast on malformed specs) before
                # the spec reaches fingerprints or workers.
                recovery_spec = recovery = recovery_from_spec(recovery).spec
            inputs = replace(compiled.inputs, failures=failures, recovery=recovery)
        jobs = list(jobs)
        chosen = tuple(configs if configs is not None else paper_configurations())
        digest = fingerprint_jobs(jobs)
        manifest = manifest_for(
            workload_digest=digest,
            configs=[config.key for config in chosen],
            total_nodes=total_nodes,
            weighted=weighted,
            recompute_threshold=recompute_threshold,
            failures_digest=failures_digest,
            recovery=recovery_spec,
            cache_version=CACHE_VERSION,
            workload_name=workload_name,
            n_jobs=len(jobs),
            reference_key=reference_key,
            scenario=scenario_digest,
        )
        return GridRequest(
            jobs=jobs,
            digest=digest,
            configs=chosen,
            total_nodes=total_nodes,
            weighted=weighted,
            recompute_threshold=recompute_threshold,
            scenario=inputs,
            cancel_over_limit=cancel_over_limit,
            scenario_digest=scenario_digest,
            manifest=manifest,
        )

    def run_id_for(self, jobs: Sequence[Job], **kwargs: object) -> str:
        """The deterministic run id :meth:`run` would journal under.

        Accepts the grid-shaping keyword arguments of :meth:`run`
        (``workload_name``, ``total_nodes``, ``weighted``, ``configs``,
        ``recompute_threshold``, ``reference_key``, ``scenario``); drivers
        use it to name or find a run's journal without running anything.
        """
        return self._prepare(jobs, **kwargs).run_id  # type: ignore[arg-type]

    def run(
        self,
        jobs: Sequence[Job],
        *,
        workload_name: str = "workload",
        total_nodes: int = 256,
        weighted: bool = False,
        configs: Sequence[SchedulerConfig] | None = None,
        recompute_threshold: float = 2.0 / 3.0,
        reference_key: str | None = None,
        scenario: "ScenarioSpec | None" = None,
    ) -> GridResult:
        """Run one grid; the parallel, cached equivalent of ``run_grid``.

        Cells are fingerprinted first; hits come from the cache, misses
        are simulated (fanned out when ``workers > 1``) and written back
        as they finish — so an interrupted run resumes where it stopped.
        ``grid.cells`` is always in config order regardless of completion
        order; ``on_event`` sees every cell and grid transition as
        :meth:`GridRun.note <repro.experiments.lifecycle.GridRun.note>`
        journals and counts it in :attr:`stats`.

        ``scenario`` runs every cell under a compiled
        :class:`~repro.scenarios.spec.ScenarioSpec`: the spec is compiled
        once against ``jobs`` (arrival components may rewrite the
        stream), its canonical digest joins every cell fingerprint and
        the run manifest, and the compiled disturbance inputs ship to the
        workers as one :class:`~repro.core.simulator.ScenarioInputs`.

        When a journal root is available (a cache or ``journal_dir``),
        the run is journaled under its deterministic id through
        :meth:`RunJournal.open <repro.experiments.journal.RunJournal.open>`,
        so a rerun of the same grid continues the journal.
        """
        request = self._prepare(
            jobs,
            workload_name=workload_name,
            total_nodes=total_nodes,
            weighted=weighted,
            configs=configs,
            recompute_threshold=recompute_threshold,
            reference_key=reference_key,
            scenario=scenario,
        )
        journal_root = self.journal_dir
        if journal_root is None and self.cache is not None:
            journal_root = self.cache.root / "runs"
        run = GridRun(
            request,
            cache=self.cache,
            on_event=self.on_event,
            journal_root=journal_root,
        )
        self.stats = run.stats
        with run:
            run.note("grid-started")
            pending = run.lookup()
            with run.signals(self.handle_signals):
                if self.workers > 1 and len(pending) > 1:
                    from repro.experiments.pool import PoolRun

                    pending = PoolRun(self, run, pending).execute()
                self._run_serial(run, pending)

        for config in request.configs:
            run.grid.cells[config.key] = run.results[config.key]
        run.note("grid-finished")
        return run.grid

    def _run_serial(
        self, run: GridRun, pending: list[tuple[SchedulerConfig, str]]
    ) -> None:
        """Simulate ``pending`` in this process, in order.

        A cell's ``completed`` and the next cell's ``started`` share one
        fsync; it returns before the finished cell is announced, and a
        shutdown requested by then stops the run before the next cell.
        """
        done: dict | None = None
        for index, (config, fp) in enumerate(pending):
            with run.batch():
                if done is not None:
                    run.note("completed", **done)
                if run.interrupted is None:
                    run.note("started", config.key, fingerprint=fp)
            if run.interrupted is not None:
                run.interrupt([(c.key, f) for c, f in pending[index:]])
            t0 = time.perf_counter()
            cell = run.request.simulate(config, self.backend)
            done = dict(key=config.key, fingerprint=fp, cell=cell,
                        wall_time=time.perf_counter() - t0)
        if done is not None:
            run.note("completed", **done)

    def run_scenarios(
        self,
        jobs: Sequence[Job],
        scenarios: "Mapping[str, ScenarioSpec | None]",
        *,
        workload_name: str = "workload",
        **kwargs: object,
    ) -> Mapping[str, GridResult]:
        """Sweep named :class:`~repro.scenarios.spec.ScenarioSpec`s.

        Runs one full grid per spec (the scenario name is appended to
        ``workload_name`` for progress events) and returns
        ``{scenario_name: GridResult}`` in mapping order.  ``None`` (or
        the empty spec) is the healthy baseline.  Cells are cached per
        scenario — the canonical spec digest is part of every fingerprint
        — so re-sweeping with one extra scenario only simulates the new
        cells.
        """
        out: dict[str, GridResult] = {}
        for name, spec in scenarios.items():
            out[name] = self.run(
                jobs,
                workload_name=f"{workload_name}[{name}]",
                scenario=spec,
                **kwargs,  # type: ignore[arg-type]
            )
        return out
