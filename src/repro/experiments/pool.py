"""The engine's worker pool and the one loop that runs a grid on it.

:class:`WorkerPool` is the ``ProcessPoolExecutor`` the engine keeps
between runs.  :class:`PoolRun` is the loop of one run: submit every
cell, wait with the per-cell lease (``cell_timeout``), and when a worker
crashed (``BrokenProcessPool``), a lease expired or the kernel reports a
worker stopped, tear the executor down, charge the culprits a retry,
requeue the cells beside them uncharged and rebuild, at most
:data:`MAX_POOL_REBUILDS` times.  What the pool could not finish runs in
the engine's process.  A fingerprint has at most one live future and a
torn-down executor's futures are dropped unread, so a cell is recorded
exactly once.  See docs/architecture.md, "The pool loop".
"""

from __future__ import annotations

import math
import multiprocessing
import os
import random
import shutil
import tempfile
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING, Iterable, NoReturn

from repro.experiments.engine import CellRequest, _run_cell_task
from repro.experiments.runner import import_simulation_stack
from repro.experiments.workload_store import init_worker, spool_workload
from repro.schedulers.registry import SchedulerConfig, registry_generation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.engine import ExperimentEngine
    from repro.experiments.lifecycle import GridRun
    from repro.experiments.workload_store import WorkloadStore

__all__ = ["PoolRun", "WorkerPool", "pool_context", "retry_pause"]

#: Pool retries of a cell after its first attempt; one more failure sends it
#: to the engine's process.
MAX_RETRIES = 2
#: Base pause before a cell's first retry, in seconds (see :func:`retry_pause`).
RETRY_BACKOFF = 0.5
#: Executor rebuilds in one run before the rest of it runs in process.
MAX_POOL_REBUILDS = 2
#: Longest wait while cells are in flight, in seconds: each wake looks for a
#: stopped worker and notices a SIGINT/SIGTERM flag, though blocking waits
#: resume after a handler runs (PEP 475).
POLL_INTERVAL = 0.5


def pool_context() -> multiprocessing.context.BaseContext:
    """Prefer fork so in-process registry registrations reach the workers."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


def retry_pause(backoff: float, attempt: int, rng: random.Random) -> float:
    """Seconds to wait before retry ``attempt`` (1-based) of a cell.

    Exponential doubling from ``backoff``, jittered by x0.5–1.5 with one
    ``rng.uniform`` draw, so retrying engines do not stampede in lockstep.
    """
    return backoff * 2 ** (attempt - 1) * rng.uniform(0.5, 1.5)


class WorkerPool:
    """The engine's kept executor, started on construction.

    The simulation stack is imported before the workers fork, so they
    inherit it.  ``dir`` holds the workload spool (``<digest>.jobs``,
    written on the first cell of a digest and read by a worker on its
    first miss); ``generation`` is the scheduler-registry generation the
    workers were forked under.
    """

    def __init__(self, *, workers: int, store: "WorkloadStore") -> None:
        self.workers = max(1, workers)
        self.store = store
        import_simulation_stack()
        self.dir: str | None = tempfile.mkdtemp(prefix="repro-pool-")
        #: Digests already spooled into ``dir``.
        self.spooled: set[str] = set()
        self.generation = registry_generation()
        self.executor: ProcessPoolExecutor | None = None
        self.rebuild()

    def kill(self) -> None:
        """Tear the executor down without waiting for its workers.

        The process table must be captured *before* ``shutdown`` — it
        nulls ``_processes``.  Workers are SIGKILLed: one stuck in a
        simulation never notices a shutdown request, and a SIGSTOPped one
        never acts on SIGTERM.  A surviving worker keeps the executor's
        manager thread alive, which ``concurrent.futures`` joins at
        interpreter exit: the process would hang after its grid finished.
        """
        if self.executor is None:
            return
        procs = list((self.executor._processes or {}).values())
        self.executor.shutdown(wait=False, cancel_futures=True)
        self.executor = None
        for proc in procs:
            try:
                proc.kill()
            except (OSError, ValueError):  # pragma: no cover - already dead
                pass

    def rebuild(self) -> None:
        """Replace the executor with a fresh one, whose workers hydrate
        from the spool like the first."""
        self.kill()
        self.executor = ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=pool_context(),
            initializer=init_worker,
            initargs=(self.dir,),
        )

    def submit(self, request: CellRequest) -> Future:
        """Spool the cell's workload if needed and submit the cell."""
        if request.digest not in self.spooled:
            spool_workload(self.dir, request.digest, self.store.get(request.digest))
            self.spooled.add(request.digest)
        return self.executor.submit(_run_cell_task, request)

    def stopped(self) -> list[int]:
        """Pids of the executor's workers that the kernel reports stopped.

        ``WNOWAIT`` only peeks at a worker's state, so the executor still
        reaps its own workers.  Without ``os.waitid`` (macOS before Python
        3.13) nothing is reported, and ``cell_timeout`` is the only guard.
        """
        if self.executor is None or not hasattr(os, "waitid"):
            return []
        flags = os.WSTOPPED | os.WNOHANG | os.WNOWAIT
        stopped = []
        for pid in list(self.executor._processes or ()):
            try:
                if os.waitid(os.P_PID, pid, flags) is not None:
                    stopped.append(pid)
            except ChildProcessError:  # already reaped
                pass
        return stopped

    def close(self) -> None:
        """Kill the workers and remove the scratch directory (idempotent)."""
        self.kill()
        self.spooled.clear()
        if self.dir is not None:
            shutil.rmtree(self.dir, ignore_errors=True)
            self.dir = None


class PoolRun:
    """One run's cache misses on their way through the engine's pool.

    ``engine`` supplies ``cell_timeout``, the backend and the pool, ``run``
    everything the loop writes to (stats, journal, events, results).
    """

    __slots__ = (
        "engine", "run", "config_by_fp", "order", "attempts",
        "serial_fallback", "rng", "pool", "queue", "futures", "leases",
        "resubmit_at",
    )

    def __init__(
        self, engine: "ExperimentEngine", run: "GridRun",
        pending: list[tuple[SchedulerConfig, str]],
    ) -> None:
        self.engine = engine
        self.run = run
        self.config_by_fp = {fp: config for config, fp in pending}
        #: Fingerprints in grid order.
        self.order = list(self.config_by_fp)
        #: fp -> retries charged so far.
        self.attempts: dict[str, int] = {}
        #: Cells whose retry budget is spent; they run in process.
        self.serial_fallback: list[str] = []
        self.rng = random.Random()
        self.pool: WorkerPool = None  # type: ignore[assignment]
        #: Cells waiting for the executor.
        self.queue: list[str] = []
        #: The cells in flight, one future each.
        self.futures: dict[Future, str] = {}
        #: fp -> perf_counter deadline of an in-flight cell, set at submit.
        self.leases: dict[str, float] = {}
        #: fp -> perf_counter instant a cell's retry backoff ends.  These
        #: deadlines bound the wait instead of a sleep, so the other cells
        #: keep being collected meanwhile.
        self.resubmit_at: dict[str, float] = {}

    def execute(self) -> list[tuple[SchedulerConfig, str]]:
        """Run the cells on the pool; return the serial leftovers.

        Every cell whose retry budget ran out, plus what was unfinished
        when the rebuild budget ran out, comes back in grid order for
        in-process execution.  The pool goes back to the engine when its
        executor is healthy; one that gave up, or that an interrupt or
        error took the run away from, is closed.
        """
        run, request = self.run, self.run.request
        # Zero-copy dispatch: register the packed stream once, ship only
        # the digest per cell; workers hydrate from the pool's spool.
        self.engine.workload_store.register(request.digest, request.jobs)
        for fp in self.order:
            run.emit("cell-started", key=self.config_by_fp[fp].key)
        pool = self.pool = self.engine.borrow_pool()
        run.stats.backend = "local-pool"
        healthy = False
        try:
            leftovers = self.drive()
            healthy = run.stats.pool_rebuilds <= MAX_POOL_REBUILDS
        finally:
            if healthy:
                self.engine.return_pool(pool)
            else:
                pool.close()
        unfinished = {*self.serial_fallback, *leftovers}
        serial = [(self.config_by_fp[fp], fp) for fp in self.order if fp in unfinished]
        if serial:
            run.stats.degraded_cells += len(serial)
            run.emit(
                "engine-degraded",
                detail=f"{len(serial)} cell(s) fell back to in-process serial "
                f"execution after {run.stats.retries} retries and "
                f"{run.stats.pool_rebuilds} pool rebuilds",
            )
        return serial

    def drive(self) -> list[str]:
        """The loop; returns the cells left once the rebuild budget is spent."""
        self.queue = list(self.order)
        while self.queue or self.futures or self.resubmit_at:
            if self.run.interrupted is not None:
                self.shut_down()
            self.submit_ready()
            if self.futures:
                done, _ = wait(
                    set(self.futures),
                    timeout=self.wait_timeout(),
                    return_when=FIRST_COMPLETED,
                )
                alive = self.collect(done) if done else self.expire()
            elif self.queue:
                # The executor refused work and nothing runs: rebuild it.
                alive = self.rebuild()
            else:
                # Only backoffs pending: idle until the first ends, a poll
                # at a time.
                time.sleep(self.wait_timeout())
                continue
            if not alive:
                return [*self.queue, *self.resubmit_at]
        return []

    def shut_down(self) -> NoReturn:
        """Journal every unfinished cell ``interrupted`` and raise the
        :class:`~repro.experiments.journal.RunInterrupted`
        (:meth:`execute` closes the pool)."""
        unfinished = {
            *self.queue, *self.futures.values(), *self.resubmit_at,
            *self.serial_fallback,
        }
        self.run.interrupt(
            [(self.config_by_fp[fp].key, fp) for fp in sorted(unfinished)]
        )

    def submit_ready(self) -> None:
        """Requeue cells whose backoff ended, then submit the queue (the
        executor keeps its own backlog)."""
        now = time.perf_counter()
        for fp in [f for f, at in self.resubmit_at.items() if at <= now]:
            del self.resubmit_at[fp]
            self.queue.append(fp)
        cell_timeout = self.engine.cell_timeout
        with self.run.batch():
            while self.queue:
                fp = self.queue[0]
                config = self.config_by_fp[fp]
                try:
                    future = self.pool.submit(
                        self.run.request.cell_request(config, self.engine.backend)
                    )
                except RuntimeError:  # broken under us; collect or rebuild
                    return
                del self.queue[0]
                self.futures[future] = fp
                self.run.journal_cell(config.key, "started", fingerprint=fp)
                if cell_timeout is not None:
                    self.leases[fp] = time.perf_counter() + cell_timeout

    def wait_timeout(self) -> float:
        """Seconds until the soonest lease or resubmission, at most
        :data:`POLL_INTERVAL`."""
        now = time.perf_counter()
        deadlines = [*self.leases.values(), *self.resubmit_at.values()]
        return max(0.0, min([POLL_INTERVAL, *(at - now for at in deadlines)]))

    def collect(self, done: Iterable[Future]) -> bool:
        """File finished futures; False once the rebuild budget is spent."""
        broke = False
        with self.run.batch():
            for future in done:
                fp = self.futures.pop(future)
                self.leases.pop(fp, None)
                try:
                    key, cell, wall = future.result()
                except BrokenProcessPool as exc:
                    broke = True
                    self.charge_retry(fp, f"worker crashed: {exc!r}")
                except Exception as exc:
                    # The cell raised in a healthy worker: retried (a flaky
                    # error recovers), then the serial fallback surfaces a
                    # deterministic one with a direct traceback.
                    self.charge_retry(fp, f"cell raised: {exc!r}")
                else:
                    self.run.record(key, fp, cell, wall)
        return not broke or self.restart()

    def expire(self) -> bool:
        """The wait timed out: revoke overdue leases — or, when a worker is
        stopped, the lease of every cell a worker may hold, since no future
        tells which one the stopped worker holds.  The executor's backlog,
        which no worker has taken, is requeued uncharged.  False once the
        rebuild budget is spent."""
        now = time.perf_counter()
        stopped = self.pool.stopped()
        if stopped:
            # The executor marks a future running when it enters the call
            # queue, which workers drain in submission order (the order of
            # ``futures``): the cells the workers hold are among the first
            # ``workers`` running ones, and the rest wait in the queue.
            running = [fp for f, fp in self.futures.items() if f.running()]
            charged = running[: self.pool.workers]
            reason = f"worker {', '.join(map(str, stopped))} stopped"
        else:
            charged = [
                fp
                for fp in self.futures.values()
                if self.leases.get(fp, math.inf) <= now
            ]
            reason = f"exceeded cell_timeout={self.engine.cell_timeout}s"
        if not charged:
            return True  # woke for a resubmission or the poll
        # An executor cannot give up one running future: it is torn down
        # with the charged cells, and the others resubmit for free.
        self.futures = {f: fp for f, fp in self.futures.items() if fp not in charged}
        for fp in sorted(charged):
            self.leases.pop(fp, None)
            self.charge_retry(fp, reason)
        return self.restart()

    def charge_retry(self, fp: str, why: str) -> None:
        """Charge a retry for ``fp``: schedule its resubmission, or send
        it to the serial fallback once the budget is exhausted."""
        run = self.run
        key = self.config_by_fp[fp].key
        attempt = self.attempts[fp] = self.attempts.get(fp, 0) + 1
        if attempt > MAX_RETRIES:
            run.journal_cell(key, "abandoned", fingerprint=fp, detail=why)
            self.serial_fallback.append(fp)
            return
        run.journal_cell(key, "failed", fingerprint=fp, detail=why)
        run.stats.retries += 1
        pause = retry_pause(RETRY_BACKOFF, attempt, self.rng)
        run.emit(
            "cell-retry",
            key=key,
            wall_time=pause,
            detail=f"attempt {attempt}/{MAX_RETRIES}: {why}",
        )
        self.resubmit_at[fp] = time.perf_counter() + pause

    def restart(self) -> bool:
        """Requeue the cells still in flight uncharged (a broken or
        torn-down executor dooms them) and rebuild the executor."""
        for fp in self.futures.values():
            self.leases.pop(fp, None)
            self.queue.append(fp)
        self.futures.clear()
        return self.rebuild()

    def rebuild(self) -> bool:
        """Rebuild the executor; False once :data:`MAX_POOL_REBUILDS` is spent."""
        self.run.stats.pool_rebuilds += 1
        if self.run.stats.pool_rebuilds > MAX_POOL_REBUILDS:
            return False
        self.pool.rebuild()
        return True
