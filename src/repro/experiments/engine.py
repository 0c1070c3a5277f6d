"""Parallel experiment engine with content-addressed result caching.

The paper's workflow is "run every candidate algorithm over every workload,
compare the tables".  :class:`ExperimentEngine` executes that grid in
three steps, one object each:

* **request** — :meth:`ExperimentEngine._prepare` normalizes one call
  into a frozen :class:`GridRequest` (compiled jobs and digest, configs,
  machine, regime, the compiled scenario as one
  :class:`~repro.core.simulator.ScenarioInputs`, the run manifest); the
  cell fingerprint, the picklable per-cell
  :class:`~repro.experiments.backends.base.CellRequest` and the
  in-process ``simulate_cell`` call are methods of it;
* **run** — a :class:`~repro.experiments.lifecycle.GridRun` holds what
  one run mutates (grid, stats, results, journal, interrupt flag);
* **dispatch** — cache misses run in process (one worker) or through a
  :class:`~repro.experiments.dispatch.Dispatch`: leases, retries,
  duplicate dedup, the watchdog and the remote -> local pool -> serial
  ladder over :mod:`~repro.experiments.backends`.

Fingerprints live in :mod:`repro.experiments.fingerprint`, the result
cache in :mod:`repro.experiments.backends.cache`; this module re-exports
their public names and stays the one whose code *calls*
``simulate_cell``, ``fingerprint_jobs`` and ``cell_fingerprint`` (the
benchmark tracer binds them here).  See docs/architecture.md,
"Experiment engine" and "Execution backends".

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
import weakref
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence

from repro.core.job import Job
from repro.core.simulator import ScenarioInputs
from repro.experiments.backends.base import CellRequest
from repro.experiments.backends.cache import (
    CachePruneStats,
    ResultCache,
    store_from_spec,
)
from repro.experiments.backends.pool import PoolBackend
from repro.experiments.dispatch import Dispatch, watchdog_defaults
from repro.experiments.fingerprint import (
    CACHE_VERSION,
    cell_fingerprint,
    fingerprint_jobs,
)
from repro.experiments.journal import manifest_for
from repro.experiments.lifecycle import EventFn, GridRun, ProgressEvent, RunStats
from repro.experiments.runner import (
    CellResult,
    GridResult,
    ProgressFn,
    simulate_cell,
)
from repro.experiments.workload_store import (
    WorkloadStore,
    resolve_worker_workload,
)
from repro.resilience import RetryPolicy
from repro.scenarios import ScenarioSpec
from repro.schedulers.registry import (
    SchedulerConfig,
    paper_configurations,
    registry_generation,
)

__all__ = [
    "CACHE_VERSION",
    "CachePruneStats",
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


def _run_cell_task(request: CellRequest) -> tuple[str, CellResult, float]:
    """Worker entry point: simulate one cell, return (key, result, wall).

    ``request.digest`` is resolved against the process-global workload
    cache (hydrated from the pool's spool on first use, or by a remote
    SEED frame), and the scheduler is rebuilt from the registry inside
    the worker — with the fork start method the child inherits user
    registrations made before its pool was forked, and the engine
    re-forks a pool the registry has changed under — so nothing
    unpicklable crosses the process boundary.
    """
    jobs = resolve_worker_workload(request.digest)
    t0 = time.perf_counter()
    cell = _simulate(request, jobs)
    return request.config.key, cell, time.perf_counter() - t0


#: Sentinel distinguishing "kwarg not passed" (environment default
#: applies) from an explicit ``heartbeat_interval=None`` (watchdog off).
_WATCHDOG_UNSET: object = object()


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
        cell still unfinished past it is presumed hung: the pool is torn
        down, the overdue cell charged a retry, and every other in-flight
        cell resubmitted for free.  ``None`` (the default) never times out.
    max_retries:
        Worker-side attempts beyond the first for a cell whose worker
        crashed, timed out, or raised.  Exhausting the budget sends the
        cell to the in-process serial fallback — where a deterministic
        error reproduces and surfaces, and a flaky one recovers.
    retry_backoff:
        Base pause before retry ``n`` (seconds); the actual pause comes
        from a shared :class:`repro.resilience.RetryPolicy` —
        exponential doubling jittered by ×0.5–1.5 so retrying engines
        do not stampede in lockstep.
    max_pool_rebuilds:
        Broken/hung pools rebuilt before giving up on parallelism and
        running every remaining cell serially in-process.
    journal_dir:
        Directory for run journals.  ``None`` (the default) journals
        under ``<cache root>/runs`` when a cache is configured, and not
        at all otherwise — ``run_grid``'s cache-less serial path stays
        journal-free.
    heartbeat_interval:
        Seconds between worker heartbeat touches (the watchdog's input).
        ``None`` disables the watchdog entirely.  When not passed, the
        ``REPRO_WATCHDOG_INTERVAL`` environment variable overrides the
        15 s default (``off`` disables).
    heartbeat_timeout:
        Driver-side staleness budget: when no worker heartbeat is newer
        than this while cells are in flight, the backend is presumed
        silently dead (SIGKILLed, SIGSTOPped) and every in-flight cell
        is charged a retry.  Defaults to the ``REPRO_WATCHDOG_TIMEOUT``
        environment variable when set, else
        ``max(4 * heartbeat_interval, 30.0)`` so one missed touch never
        trips it.
    execution_backend:
        ``"local"`` (the default) dispatches to one process pool;
        ``"remote"`` dispatches over TCP to
        ``repro.experiments.backends.worker`` processes named by
        ``connect``.  Both degrade down the ladder
        remote -> local pool -> serial, so the grid completes
        regardless of backend health.
    connect:
        ``HOST:PORT`` worker addresses for ``execution_backend="remote"``.
    remote_cache:
        ``HOST:PORT`` of a fleet cache server (any worker started with a
        cache directory).  The local cache becomes read-through /
        write-back against it; requires a local cache.
    handle_signals:
        When true (the default), journaled runs install SIGINT/SIGTERM
        handlers for graceful shutdown: dispatch stops, in-flight cells
        are journaled ``interrupted``, the pool is terminated and
        :class:`~repro.experiments.journal.RunInterrupted` is raised with
        the resumable run id.  Handlers are installed only in the main
        thread and always restored afterwards.
    backend:
        Simulation kernel backend for every cell (``"python"`` /
        ``"numpy"`` / ``"auto"``; ``None`` consults ``REPRO_BACKEND``).
        Bit-identical results either way, so the backend is deliberately
        absent from cell fingerprints and run manifests — caches and
        journals written under one backend resume cleanly under the other.

    ``stats`` holds the :class:`RunStats` of the most recent :meth:`run`;
    everything else a run mutates lives on its own
    :class:`~repro.experiments.lifecycle.GridRun`.  Between runs the
    engine also keeps its local worker pool alive, so a sweep of many
    grids forks its workers once: :meth:`close` (or ``with engine:``)
    stops them, and an engine that is dropped or still open at
    interpreter exit is closed by a finalizer.
    """

    def __init__(
        self,
        *,
        workers: int | None = None,
        cache: ResultCache | str | Path | None = None,
        on_event: EventFn | None = None,
        cell_timeout: float | None = None,
        max_retries: int = 2,
        retry_backoff: float = 0.5,
        max_pool_rebuilds: int = 2,
        journal_dir: str | Path | None = None,
        heartbeat_interval: float | None = _WATCHDOG_UNSET,  # type: ignore[assignment]
        heartbeat_timeout: float | None = None,
        handle_signals: bool = True,
        backend: str | None = None,
        execution_backend: str | None = None,
        connect: Sequence[str] = (),
        remote_cache: str | None = None,
    ) -> None:
        self.workers = max(1, workers if workers is not None else 1)
        self.backend = backend
        self.cache = (
            ResultCache(cache, remote=remote_cache)
            if isinstance(cache, (str, Path))
            else cache
        )
        if remote_cache is not None:
            if self.cache is None:
                raise ValueError(
                    "remote_cache requires a local cache directory "
                    "(remote entries are validated and written back locally)"
                )
            if self.cache.remote is None:
                self.cache.remote = store_from_spec(remote_cache)
        self.remote_cache = remote_cache
        mode = execution_backend or "local"
        if mode not in ("local", "remote"):
            raise ValueError(
                f"execution_backend must be 'local' or 'remote', "
                f"got {execution_backend!r}"
            )
        self.connect = tuple(connect)
        if mode == "remote" and not self.connect:
            raise ValueError(
                "execution_backend='remote' needs at least one "
                "connect='HOST:PORT' worker address"
            )
        self.execution_backend = mode
        self.on_event = on_event
        self.workload_store = WorkloadStore()
        if cell_timeout is not None and cell_timeout <= 0:
            raise ValueError(f"cell_timeout must be positive, got {cell_timeout}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be non-negative, got {max_retries}")
        if retry_backoff < 0:
            raise ValueError(f"retry_backoff must be non-negative, got {retry_backoff}")
        if max_pool_rebuilds < 0:
            raise ValueError(
                f"max_pool_rebuilds must be non-negative, got {max_pool_rebuilds}"
            )
        env_interval, env_timeout = watchdog_defaults()
        if heartbeat_interval is _WATCHDOG_UNSET:
            heartbeat_interval = env_interval
        if heartbeat_timeout is None:
            heartbeat_timeout = env_timeout
        if heartbeat_interval is not None and heartbeat_interval <= 0:
            raise ValueError(
                f"heartbeat_interval must be positive, got {heartbeat_interval}"
            )
        if heartbeat_timeout is not None and heartbeat_timeout <= 0:
            raise ValueError(
                f"heartbeat_timeout must be positive, got {heartbeat_timeout}"
            )
        self.cell_timeout = cell_timeout
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.retry_policy = RetryPolicy(
            max_attempts=max_retries + 1, backoff=retry_backoff, jitter=(0.5, 1.5)
        )
        self.max_pool_rebuilds = max_pool_rebuilds
        self.journal_dir = Path(journal_dir) if journal_dir is not None else None
        self.heartbeat_interval = heartbeat_interval
        if heartbeat_timeout is None and heartbeat_interval is not None:
            heartbeat_timeout = max(4.0 * heartbeat_interval, 30.0)
        self.heartbeat_timeout = heartbeat_timeout
        self.handle_signals = handle_signals
        self.stats = RunStats()
        #: The started, idle pool kept between runs (see :meth:`borrow_pool`),
        #: and the finalizer that stops it if the engine is dropped first.
        self._pool: PoolBackend | None = None
        self._pool_finalizer: weakref.finalize | None = None

    # -- the worker pool --------------------------------------------------------

    def borrow_pool(self) -> PoolBackend:
        """Take the engine's local pool for one rung of one run.

        The pool kept from an earlier run when there is one — unless the
        scheduler registry changed since its workers were forked, which
        they could not see — else a new, unstarted one.  The borrower
        either hands it back (:meth:`return_pool`, the rung finished
        every cell) or closes it; the engine keeps no reference
        meanwhile, so a pool that broke or was interrupted is never
        reused.
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            self._pool_finalizer.detach()
            if pool.generation != registry_generation():
                pool.close()
                pool = None
        if pool is None:
            pool = PoolBackend(
                workers=self.workers,
                store=self.workload_store,
                heartbeat_interval=self.heartbeat_interval,
            )
        return pool

    def return_pool(self, pool: PoolBackend) -> None:
        """Keep a started, idle pool for the next run (see :meth:`borrow_pool`)."""
        self.close()  # at most one is kept: two overlapping runs each had one
        self._pool = pool
        self._pool_finalizer = weakref.finalize(self, pool.close)

    def close(self) -> None:
        """Stop the worker pool kept between runs (idempotent).

        The engine stays usable: the next parallel run starts a new pool.
        """
        if self._pool is not None:
            self._pool = None
            self._pool_finalizer()  # runs pool.close() once and retires itself

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

        Shared by :meth:`run`, :meth:`resume` and :meth:`run_id_for`, so
        the deterministic run id is computed from exactly the inputs the
        dispatch path will use.
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
            execution_backend=self.execution_backend,
            remote_cache=self.remote_cache or "",
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
        use it to print or predict the ``--resume`` handle without running
        anything.
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
        progress: ProgressFn | None = None,
        reference_key: str | None = None,
        scenario: "ScenarioSpec | None" = None,
        resume_run_id: str | None = None,
    ) -> GridResult:
        """Run one grid; the parallel, cached equivalent of ``run_grid``.

        Cells are fingerprinted first; hits come from the cache, misses
        are simulated (fanned out when ``workers > 1``) and written back
        as they finish — so an interrupted run resumes where it stopped.
        ``grid.cells`` is always in config order regardless of completion
        order, and the ``progress`` callback (``run_grid`` compatible)
        fires in that same order after all cells exist.

        ``scenario`` runs every cell under a compiled
        :class:`~repro.scenarios.spec.ScenarioSpec`: the spec is compiled
        once against ``jobs`` (arrival components may rewrite the
        stream), its canonical digest joins every cell fingerprint and
        the run manifest, and the compiled disturbance inputs ship to the
        workers as one :class:`~repro.core.simulator.ScenarioInputs`.

        When a journal root is available (a cache or ``journal_dir``),
        the run is journaled under its deterministic id: a fresh run
        truncates any prior journal for the same grid, while
        ``resume_run_id`` (usually via :meth:`resume`) appends to the
        existing one after verifying the manifest still matches —
        mismatches raise
        :class:`~repro.experiments.journal.ManifestMismatchError`.
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
            resume_run_id=resume_run_id,
        )
        stats = self.stats = run.stats
        t_start = time.perf_counter()
        with run:
            run.emit("grid-started", run_id=run.run_id)
            pending = run.lookup()
            with run.signals(self.handle_signals):
                if (
                    self.workers > 1 or self.execution_backend != "local"
                ) and len(pending) > 1:
                    # What the backend ladder leaves runs in process; those
                    # cells were announced when they were first dispatched.
                    leftovers = Dispatch(self, run, pending).execute()
                    self._run_serial(run, leftovers, announce=False)
                else:
                    self._run_serial(run, pending)

        grid = run.grid
        for config in request.configs:
            grid.cells[config.key] = run.results[config.key]
            if progress is not None:
                progress(config, run.results[config.key])
        stats.wall_time = time.perf_counter() - t_start
        run.emit("grid-finished", wall_time=stats.wall_time, run_id=run.run_id)
        return grid

    def _run_serial(
        self,
        run: GridRun,
        pending: list[tuple[SchedulerConfig, str]],
        *,
        announce: bool = True,
    ) -> None:
        """Simulate ``pending`` in this process, in order."""
        for index, (config, fp) in enumerate(pending):
            if run.interrupted is not None:
                run.interrupt([(c.key, f) for c, f in pending[index:]])
            if announce:
                run.emit("cell-started", key=config.key)
            run.journal_cell(config.key, "started", fingerprint=fp)
            t0 = time.perf_counter()
            cell = run.request.simulate(config, self.backend)
            run.record(config.key, fp, cell, time.perf_counter() - t0)

    def resume(
        self, run_id: str, jobs: Sequence[Job], **kwargs: object
    ) -> GridResult:
        """Resume a journaled run from its deterministic ``run_id``.

        The caller supplies the same job stream and grid-shaping keyword
        arguments as the original :meth:`run`; the journal's manifest is
        verified against them (:class:`~repro.experiments.journal.
        ManifestMismatchError` on drift, :class:`~repro.experiments.
        journal.UnknownRunError` when no journal exists).  Completed
        cells are skipped via the cache, and only the remainder is
        re-dispatched.
        """
        return self.run(jobs, resume_run_id=run_id, **kwargs)  # type: ignore[arg-type]

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
