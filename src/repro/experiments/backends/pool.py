"""Local process-pool execution backend.

One ``ProcessPoolExecutor``: every cell is submitted eagerly (the executor
queues the backlog), a ``BrokenProcessPool`` dooms the whole pool, and a
lease expiry tears it down; :meth:`PoolBackend.reset` rebuilds it and the
cells that were merely in flight beside the culprit are requeued
uncharged.

A pool outlives the grids it runs: the engine keeps it between runs
(see :meth:`ExperimentEngine.borrow_pool <repro.experiments.engine.
ExperimentEngine.borrow_pool>`), so workers are forked once per engine,
not once per grid.  Its scratch directory holds the workload spool
(``<digest>.jobs``, written on the first cell of a digest and read by
workers on their first miss) and the heartbeat sentinels (``<pid>.hb``):
the engine's watchdog only needs the *freshest* touch to know the backend
is alive, and a silently dead worker surfaces through lease expiry on its
cell.
"""

from __future__ import annotations

import multiprocessing
import shutil
import tempfile
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING

from repro.experiments.backends.base import (
    CellOutcome,
    CellTask,
    ExecutionBackend,
    ReleaseReport,
)
from repro.experiments.journal import freshest_heartbeat
from repro.experiments.workload_store import init_worker, spool_workload
from repro.schedulers.registry import registry_generation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.workload_store import WorkloadStore

__all__ = ["PoolBackend", "pool_context", "terminate_pool"]


def pool_context() -> multiprocessing.context.BaseContext:
    """Prefer fork so in-process registry registrations reach the workers."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


def terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a (possibly hung) pool down without waiting for its workers.

    The process table must be captured *before* ``shutdown`` — it nulls
    ``_processes``, and a worker stuck in a simulation never notices a mere
    shutdown request.  Unterminated hung workers would keep the executor's
    manager thread alive, which ``concurrent.futures`` joins at interpreter
    exit: the whole process would hang long after the grid finished.
    """
    procs = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in procs:
        try:
            proc.terminate()
        except (OSError, ValueError):  # pragma: no cover - already dead
            pass


class PoolBackend(ExecutionBackend):
    """Cells on one local ``ProcessPoolExecutor``."""

    name = "local-pool"

    def __init__(
        self,
        *,
        workers: int,
        store: "WorkloadStore",
        heartbeat_interval: float | None = None,
    ) -> None:
        self._workers = max(1, workers)
        self._store = store
        self._heartbeat_interval = heartbeat_interval
        self._exec: ProcessPoolExecutor | None = None
        self._futures: dict[Future, str] = {}
        #: The executor died (crash, expired lease) and awaits :meth:`reset`.
        self._broken = False
        #: Scratch directory (spool + heartbeat sentinels) while started.
        self._dir: str | None = None
        #: Digests already spooled into ``_dir``.
        self._spooled: set[str] = set()
        #: Scheduler-registry generation the workers were forked under.
        self.generation = -1
        self._epoch = time.time()

    # -- lifecycle ---------------------------------------------------------

    def _make_executor(self) -> None:
        # A (re)built executor re-arms its workers' heartbeats (the
        # initializer runs again in every fresh worker process); they
        # hydrate their workloads from the spool like the first ones did.
        self._epoch = time.time()
        self._exec = ProcessPoolExecutor(
            max_workers=self._workers,
            mp_context=pool_context(),
            initializer=init_worker,
            initargs=(self._dir, self._heartbeat_interval),
        )

    def _stop_executor(self) -> None:
        if self._exec is not None:
            terminate_pool(self._exec)
            self._exec = None

    def start(self) -> None:
        if self._dir is not None:
            return  # kept running by the engine since an earlier grid
        self._dir = tempfile.mkdtemp(prefix="repro-pool-")
        self.generation = registry_generation()
        self._make_executor()

    def close(self) -> None:
        self._stop_executor()
        self._futures.clear()
        self._broken = False
        self._spooled.clear()
        if self._dir is not None:
            # Worker heartbeat threads exit on their next touch (the
            # sentinel directory is gone).
            shutil.rmtree(self._dir, ignore_errors=True)
            self._dir = None

    # -- dispatch ----------------------------------------------------------

    def can_accept(self) -> bool:
        # The executor queues its own backlog: the engine hands the whole
        # grid over.
        return self._exec is not None and not self._broken

    def submit(self, task: CellTask) -> bool:
        from repro.experiments.engine import _run_cell_task

        digest = task.request.digest
        if digest not in self._spooled:
            spool_workload(self._dir, digest, self._store.get(digest))
            self._spooled.add(digest)
        if not self.can_accept():
            return False
        try:
            future = self._exec.submit(_run_cell_task, task.request)
        except RuntimeError:  # shut down under us
            self._broken = True
            return False
        self._futures[future] = task.fingerprint
        return True

    def collect(self, timeout: float | None) -> list[CellOutcome]:
        if not self._futures:
            if timeout:
                time.sleep(min(timeout, 0.05))
            return []
        done, _ = wait(
            set(self._futures), timeout=timeout, return_when=FIRST_COMPLETED
        )
        outcomes: list[CellOutcome] = []
        for future in done:
            fp = self._futures.pop(future)
            try:
                value = future.result()
            except BrokenProcessPool as exc:
                self._broken = True
                outcomes.append(
                    CellOutcome(fp, "broken", detail=f"worker crashed: {exc!r}")
                )
            except Exception as exc:
                # The task itself raised inside a healthy worker: the
                # engine retries (flaky crashes recover), then surfaces
                # deterministic errors via the serial fallback where the
                # traceback is direct.
                outcomes.append(
                    CellOutcome(fp, "failed", detail=f"cell raised: {exc!r}")
                )
            else:
                outcomes.append(CellOutcome(fp, "done", value=value))
        return outcomes

    def in_flight(self) -> set[str]:
        return set(self._futures.values())

    def liveness(self) -> float | None:
        if self._heartbeat_interval is None or self._dir is None:
            return None
        newest = freshest_heartbeat(self._dir)
        return max(newest or 0.0, self._epoch)

    # -- failure paths -----------------------------------------------------

    def release(self, fingerprints: set[str], reason: str) -> ReleaseReport:
        """Tear the pool down if it is running a released cell.

        A pool cannot abandon one running future, so it dies with the
        lease; its other in-flight cells come back as uncharged
        collateral.
        """
        in_flight = self._futures.values()
        if not any(fp in fingerprints for fp in in_flight):
            return ReleaseReport(requeue=(), broke=False)
        requeue = tuple(fp for fp in in_flight if fp not in fingerprints)
        self._futures.clear()
        self._stop_executor()
        self._broken = True
        return ReleaseReport(requeue=requeue, broke=True)

    def drain_broken(self) -> list[str]:
        if not self._broken:
            return []
        stranded = list(self._futures.values())
        self._futures.clear()
        return stranded

    def reset(self, should_abort=None) -> bool:
        if self._broken:
            self._stop_executor()
            self._make_executor()
            self._broken = False
        return True
