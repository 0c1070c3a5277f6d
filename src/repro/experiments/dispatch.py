"""The lease/retry/reset/watchdog loop behind a distributed run.

One :class:`Dispatch` object drives one run's cache misses down the
execution-backend ladder — remote -> local pool — and hands
whatever is left to the engine's in-process serial path, so the grid
always completes.  Each safety property is one method: lease deadlines
stamped at submit (:meth:`~Dispatch.submit_ready`), expired leases and
the heartbeat watchdog (:meth:`~Dispatch.handle_timeout`), the retry
budget with non-blocking backoff (:meth:`~Dispatch.charge_retry`,
:meth:`~Dispatch.next_wait_timeout`), idempotent dedup of late
duplicates by fingerprint (:meth:`~Dispatch.record_done`), the reset
budget (:meth:`~Dispatch.spend_reset`) and graceful shutdown
(:meth:`~Dispatch.shut_down`).  See docs/architecture.md, "The lease
state machine".
"""

from __future__ import annotations

import math
import os
import random
import time
from typing import TYPE_CHECKING, Callable, NoReturn

from repro.experiments.backends.base import (
    BackendUnavailable,
    CellOutcome,
    CellTask,
    ExecutionBackend,
)
from repro.experiments.backends.pool import PoolBackend
from repro.schedulers.registry import SchedulerConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.engine import ExperimentEngine
    from repro.experiments.lifecycle import GridRun

__all__ = ["Dispatch", "watchdog_defaults"]


def watchdog_defaults() -> "tuple[float | None, float | None]":
    """Watchdog ``(interval, timeout)`` from ``REPRO_WATCHDOG_*`` env vars.

    ``REPRO_WATCHDOG_INTERVAL`` overrides the 15 s heartbeat default
    (``0``/``off``/``none``/``disabled`` turns the watchdog off);
    ``REPRO_WATCHDOG_TIMEOUT`` overrides the staleness budget that
    otherwise defaults to ``max(4 * interval, 30.0)``.  Explicit engine
    kwargs always win over the environment.
    """
    interval: float | None = 15.0
    raw = os.environ.get("REPRO_WATCHDOG_INTERVAL", "").strip()
    if raw:
        if raw.lower() in ("0", "off", "none", "disabled"):
            interval = None
        else:
            try:
                interval = float(raw)
            except ValueError:
                raise ValueError(
                    f"REPRO_WATCHDOG_INTERVAL must be a number of seconds "
                    f"or 'off', got {raw!r}"
                ) from None
    timeout: float | None = None
    raw = os.environ.get("REPRO_WATCHDOG_TIMEOUT", "").strip()
    if raw:
        try:
            timeout = float(raw)
        except ValueError:
            raise ValueError(
                f"REPRO_WATCHDOG_TIMEOUT must be a number of seconds, "
                f"got {raw!r}"
            ) from None
    return interval, timeout


class Dispatch:
    """One run's cells on their way through the backend ladder.

    ``engine`` supplies the policy (budgets, timeouts, backend choice),
    ``run`` everything the dispatch writes to (stats, journal, events,
    results).  The per-run fields outlive a rung; ``backend``, ``queue``,
    ``leases``, ``resubmit_at`` and ``resets`` are reset by
    :meth:`drive` for each rung.
    """

    __slots__ = (
        "engine", "run", "config_by_fp", "order", "attempts", "completed",
        "serial_fallback", "rng", "hb_budget", "backend", "queue", "leases",
        "resubmit_at", "resets",
    )

    def __init__(
        self,
        engine: "ExperimentEngine",
        run: "GridRun",
        pending: list[tuple[SchedulerConfig, str]],
    ) -> None:
        self.engine = engine
        self.run = run
        self.config_by_fp = {fp: config for config, fp in pending}
        #: Fingerprints in grid order.
        self.order = list(self.config_by_fp)
        #: fp -> retries charged so far.
        self.attempts: dict[str, int] = {}
        self.completed: set[str] = set()
        #: Cells whose retry budget is spent; the engine runs them
        #: in-process once the ladder is done.
        self.serial_fallback: list[str] = []
        self.rng = random.Random()
        self.hb_budget = engine.heartbeat_timeout or 0.0
        self.backend: ExecutionBackend = None  # type: ignore[assignment]
        self.queue: list[str] = []
        #: fp -> perf_counter deadline of the cell's lease, stamped at
        #: submit.
        self.leases: dict[str, float] = {}
        #: Cells waiting out a retry backoff: fp -> perf_counter instant
        #: at which they go back to the backend.  Folding these deadlines
        #: into the collect timeout (instead of sleeping in the loop)
        #: keeps every other in-flight cell being collected meanwhile.
        self.resubmit_at: dict[str, float] = {}
        self.resets = 0

    # -- the ladder -----------------------------------------------------------

    def ladder(self, store_entries: tuple) -> "list[Callable[[], ExecutionBackend]]":
        """Backend factories, best first: remote -> local pool.

        In-process serial execution (the unconditional last resort) is
        not a rung: :meth:`execute` returns the leftovers to the engine.
        The pool rung borrows the engine's long-lived pool, whose workers
        read the workload from its spool; ``store_entries`` seeds the
        remote workers.
        """
        engine = self.engine
        factories: "list[Callable[[], ExecutionBackend]]" = []
        if engine.execution_backend == "remote":
            # Imported here: a local sweep never loads the socket stack.
            from repro.experiments.backends.remote import RemoteWorkerBackend

            factories.append(
                lambda: RemoteWorkerBackend(
                    engine.connect,
                    store_entries=store_entries,
                    heartbeat_interval=engine.heartbeat_interval,
                    reconnect_backoff=max(engine.retry_backoff, 0.05),
                )
            )
        factories.append(engine.borrow_pool)
        return factories

    def execute(self) -> list[tuple[SchedulerConfig, str]]:
        """Drive the cells down the ladder; return the serial leftovers.

        One backend at a time.  A backend that cannot start — or breaks
        more than ``max_pool_rebuilds`` times on one rung — hands its
        leftovers to the next rung; what the last rung leaves, plus every
        cell whose retry budget ran out, is returned in grid order for
        in-process serial execution.  A local pool whose rung finished
        every cell it was given goes back to the engine for the next
        grid; any other backend — and a pool that gave up, or that an
        interrupt or error took the run away from — is closed.
        """
        run, request = self.run, self.run.request
        # Zero-copy dispatch: register the packed stream once, ship only
        # the digest per cell; pool workers hydrate from the pool's spool,
        # remote workers via a one-time SEED frame per connection.
        store = self.engine.workload_store
        store.register(request.digest, request.jobs)
        for fp in self.order:
            run.emit("cell-started", key=self.config_by_fp[fp].key)
        queue = list(self.order)
        ladder = self.ladder(store.entries(request.digest))
        for rung, factory in enumerate(ladder):
            if not queue:
                break
            backend = factory()
            # Non-empty here, so empty only once drive() has finished them.
            leftovers = queue
            try:
                try:
                    backend.start()
                except BackendUnavailable as exc:
                    if rung + 1 < len(ladder):
                        run.emit(
                            "engine-degraded",
                            detail=f"{backend.name} backend unavailable ({exc}); "
                            f"falling back to the next execution backend",
                        )
                    continue
                if run.stats.backend == "serial":
                    run.stats.backend = backend.name
                leftovers = self.drive(backend, queue)
            finally:
                if not leftovers and isinstance(backend, PoolBackend):
                    self.engine.return_pool(backend)
                else:
                    backend.close()
                queue = leftovers
            if queue and rung + 1 < len(ladder):
                run.emit(
                    "engine-degraded",
                    detail=f"{backend.name} backend gave up with {len(queue)} "
                    f"cell(s) unfinished; falling back to the next "
                    f"execution backend",
                )
        # Deduplicate while preserving grid order (a cell can be queued
        # for fallback once via retries and once via the reset budget),
        # and drop anything a late duplicate already completed.
        chosen = (set(self.serial_fallback) | set(queue)) - self.completed
        unique = [(self.config_by_fp[fp], fp) for fp in self.order if fp in chosen]
        if unique:
            run.stats.degraded_cells += len(unique)
            run.emit(
                "engine-degraded",
                detail=f"{len(unique)} cell(s) fell back to in-process serial "
                f"execution after {run.stats.retries} retries and "
                f"{run.stats.pool_rebuilds} pool rebuilds",
            )
        return unique

    # -- one rung ---------------------------------------------------------------

    def drive(self, backend: ExecutionBackend, queue: list[str]) -> list[str]:
        """Run ``queue`` on one started backend; return its leftovers.

        An empty return means the rung finished (or charged into the
        serial fallback) every cell it was given; a non-empty one means
        the rung's reset budget is exhausted and the remainder belongs to
        the next rung down the ladder.
        """
        self.backend = backend
        self.queue = list(queue)
        self.leases = {}
        self.resubmit_at = {}
        self.resets = 0
        while self.queue or backend.in_flight() or self.resubmit_at:
            if self.run.interrupted is not None:
                self.shut_down()
            self.submit_ready()
            if not backend.in_flight():
                if self.queue:
                    # Wedged: work waiting, nothing running, no capacity
                    # — spend a reset (for a remote backend this is the
                    # blocking reconnect sweep) or yield to the next rung.
                    if not self.spend_reset():
                        return self.leftovers()
                elif self.resubmit_at:
                    # Nothing in flight: idle until the next resubmit
                    # (capped for signal responsiveness while handlers
                    # are active).
                    pause = min(self.resubmit_at.values()) - time.perf_counter()
                    if self.run.handlers_active:
                        pause = min(pause, 0.5)
                    if pause > 0:
                        time.sleep(pause)
                continue
            outcomes = backend.collect(self.next_wait_timeout())
            alive = (
                self.handle_outcomes(outcomes) if outcomes else self.handle_timeout()
            )
            if not alive:
                return self.leftovers()
        return []

    def shut_down(self) -> NoReturn:
        """Graceful shutdown: journal everything unfinished as
        interrupted and surface the resumable id (the ladder walk's
        ``finally`` closes the backend)."""
        unfinished = (
            set(self.queue)
            | self.backend.in_flight()
            | set(self.resubmit_at)
            | set(self.serial_fallback)
        ) - self.completed
        self.run.interrupt(
            [(self.config_by_fp[fp].key, fp) for fp in sorted(unfinished)]
        )

    def submit_ready(self) -> None:
        """Requeue cells whose backoff elapsed, then fill the backend."""
        now = time.perf_counter()
        for fp in [f for f, at in self.resubmit_at.items() if at <= now]:
            del self.resubmit_at[fp]
            self.queue.append(fp)
        cell_timeout = self.engine.cell_timeout
        with self.run.batch():
            while self.queue and self.backend.can_accept():
                fp = self.queue[0]
                config = self.config_by_fp[fp]
                task = CellTask(
                    fp, self.run.request.cell_request(config, self.engine.backend)
                )
                if not self.backend.submit(task):
                    break
                del self.queue[0]
                self.run.journal_cell(config.key, "started", fingerprint=fp)
                if cell_timeout is not None:
                    self.leases[fp] = time.perf_counter() + cell_timeout

    def next_wait_timeout(self) -> float | None:
        """Seconds until the next dispatch-loop deadline (None: never).

        Folds together the soonest lease expiry, the soonest retry
        resubmission, the watchdog's heartbeat deadline, and — while
        signal handlers are active — a 0.5 s responsiveness cap so a
        SIGINT/SIGTERM flag is noticed promptly even though blocking
        waits resume after the handler runs (PEP 475).
        """
        now = time.perf_counter()
        candidates: list[float] = []
        if self.leases:
            candidates.append(min(self.leases.values()) - now)
        if self.resubmit_at:
            candidates.append(min(self.resubmit_at.values()) - now)
        live = self.backend.liveness()
        if live is not None and self.hb_budget and self.backend.in_flight():
            candidates.append((live + self.hb_budget) - time.time())
        if self.run.handlers_active:
            candidates.append(0.5)
        if not candidates:
            return None
        return max(0.0, min(candidates))

    def handle_outcomes(self, outcomes: list[CellOutcome]) -> bool:
        """File collected outcomes; False once the rung is beyond help."""
        broke = False
        with self.run.batch():
            for outcome in outcomes:
                fp = outcome.fingerprint
                self.leases.pop(fp, None)
                if outcome.kind == "done":
                    # A late answer may beat its own retry: cancel the
                    # cell's other copies wherever they are queued.
                    self.resubmit_at.pop(fp, None)
                    if fp in self.queue:
                        self.queue.remove(fp)
                    if fp in self.serial_fallback:
                        self.serial_fallback.remove(fp)
                    self.record_done(fp, outcome.value)  # type: ignore[arg-type]
                    continue
                if outcome.kind == "broken":
                    broke = True
                if fp in self.completed:
                    continue  # stale failure for an already-answered cell
                self.charge_retry(fp, outcome.detail)
        if not broke:
            return True
        # Broken backend parts doom their other in-flight cells;
        # requeue them uncharged for the healed backend.
        for fp in self.backend.drain_broken():
            self.leases.pop(fp, None)
            self.queue.append(fp)
        return self.spend_reset()

    def handle_timeout(self) -> bool:
        """``collect`` timed out: check leases and the watchdog.

        False once the rung is beyond help.
        """
        now = time.perf_counter()
        in_flight = self.backend.in_flight()
        overdue = {fp for fp in in_flight if self.leases.get(fp, math.inf) <= now}
        live = self.backend.liveness()
        stalled = bool(
            live is not None
            and self.hb_budget
            and in_flight
            and time.time() - live > self.hb_budget
        )
        if not overdue and not stalled:
            # Woke for a resubmit/responsiveness deadline, not a hung
            # cell or dead backend.
            return True
        # Watchdog: no proof of life within the budget while cells are
        # in flight means the backend died without telling us (SIGKILL
        # before first result, SIGSTOP forever) — every in-flight cell
        # is charged, since a dead backend leaves no one to blame
        # precisely.  Otherwise only the overdue leases are revoked and
        # charged; collateral the backend had to abandon with them
        # resubmits for free.
        charged = set(in_flight) if stalled else overdue
        reason = (
            f"lost worker heartbeat for more than {self.hb_budget:.0f}s: "
            f"pool presumed dead"
            if stalled
            else f"exceeded cell_timeout={self.engine.cell_timeout}s"
        )
        report = self.backend.release(charged, reason)
        for fp in sorted(charged):
            self.leases.pop(fp, None)
            self.charge_retry(fp, reason)
        for fp in report.requeue:
            self.leases.pop(fp, None)
            self.queue.append(fp)
        return not report.broke or self.spend_reset()

    # -- budgets ----------------------------------------------------------------

    def record_done(self, fp: str, value: tuple) -> None:
        if fp in self.completed:
            # A revoked lease answered after all: the cell already
            # counted once; the duplicate is dropped, visibly.
            self.run.stats.duplicate_results += 1
            self.run.emit(
                "cell-duplicate",
                key=self.config_by_fp[fp].key,
                detail="late duplicate result dropped",
            )
            return
        self.completed.add(fp)
        key, cell, wall = value
        self.run.record(key, fp, cell, wall)

    def charge_retry(self, fp: str, why: str) -> None:
        """Charge a retry for ``fp``: schedule its resubmission, or send
        it to the serial fallback once the budget is exhausted."""
        run, engine = self.run, self.engine
        key = self.config_by_fp[fp].key
        attempt = self.attempts[fp] = self.attempts.get(fp, 0) + 1
        if attempt > engine.max_retries:
            run.journal_cell(key, "abandoned", fingerprint=fp, detail=why)
            self.serial_fallback.append(fp)
            return
        run.journal_cell(key, "failed", fingerprint=fp, detail=why)
        run.stats.retries += 1
        pause = engine.retry_policy.backoff_for(attempt, self.rng)
        run.emit(
            "cell-retry",
            key=key,
            wall_time=pause,
            detail=f"attempt {attempt}/{engine.max_retries}: {why}",
        )
        self.resubmit_at[fp] = time.perf_counter() + pause

    def spend_reset(self) -> bool:
        """Count one backend reset; False once the rung is beyond help."""
        self.run.stats.pool_rebuilds += 1
        self.resets += 1
        if self.resets > self.engine.max_pool_rebuilds:
            return False
        return self.backend.reset(lambda: self.run.interrupted is not None)

    def leftovers(self) -> list[str]:
        seen: set[str] = set()
        out: list[str] = []
        for fp in [*self.queue, *self.resubmit_at, *sorted(self.backend.in_flight())]:
            if fp not in self.completed and fp not in seen:
                seen.add(fp)
                out.append(fp)
        return out
