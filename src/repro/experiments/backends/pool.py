"""Local process-pool execution backend (single pool or sharded groups).

``groups=1`` is the engine's historical ``ProcessPoolExecutor`` fan-out,
bit-identical in behavior: every cell is submitted eagerly (the executor
queues the backlog), a ``BrokenProcessPool`` dooms the whole pool, and a
lease expiry tears it down.  ``groups>1`` shards the same worker budget
across independent executors so one crashing or hung cell only takes its
own shard's in-flight cells with it — the other groups keep computing
while the broken one is rebuilt.

A pool outlives the grids it runs: the engine keeps it between runs
(see :meth:`ExperimentEngine.borrow_pool <repro.experiments.engine.
ExperimentEngine.borrow_pool>`), so workers are forked once per engine,
not once per grid.  All groups share one scratch directory holding the
workload spool (``<digest>.jobs``, written on the first cell of a digest
and read by workers on their first miss) and the heartbeat sentinels
(``<pid>.hb``): the engine's watchdog only needs the *freshest* touch to
know the backend is alive, and a silently dead shard surfaces through
lease expiry on its cells.
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
    """Cells on local ``ProcessPoolExecutor``\\ s, optionally sharded."""

    def __init__(
        self,
        *,
        workers: int,
        groups: int = 1,
        store: "WorkloadStore",
        heartbeat_interval: float | None = None,
    ) -> None:
        total = max(1, workers)
        self.groups = max(1, min(groups, total))
        self.name = (
            "local-pool" if self.groups == 1 else f"sharded-pool[{self.groups}]"
        )
        #: Worker budget per group; every group gets at least one process.
        self._group_workers = [
            total // self.groups + (1 if i < total % self.groups else 0)
            for i in range(self.groups)
        ]
        self._store = store
        self._heartbeat_interval = heartbeat_interval
        self._execs: list[ProcessPoolExecutor | None] = [None] * self.groups
        self._futures: dict[Future, tuple[str, int]] = {}
        self._broken: set[int] = set()
        #: Scratch directory (spool + heartbeat sentinels) while started.
        self._dir: str | None = None
        #: Digests already spooled into ``_dir``.
        self._spooled: set[str] = set()
        #: Scheduler-registry generation the workers were forked under.
        self.generation = -1
        self._epoch = time.time()
        self._rr = 0

    # -- lifecycle ---------------------------------------------------------

    def _make_group(self, index: int) -> None:
        # A (re)built group re-arms its workers' heartbeats (the
        # initializer runs again in every fresh worker process); they
        # hydrate their workloads from the spool like the first ones did.
        self._epoch = time.time()
        self._execs[index] = ProcessPoolExecutor(
            max_workers=self._group_workers[index],
            mp_context=pool_context(),
            initializer=init_worker,
            initargs=(self._dir, self._heartbeat_interval),
        )

    def start(self) -> None:
        if self._dir is not None:
            return  # kept running by the engine since an earlier grid
        self._dir = tempfile.mkdtemp(prefix="repro-pool-")
        self.generation = registry_generation()
        for index in range(self.groups):
            self._make_group(index)

    def close(self) -> None:
        for index, pool in enumerate(self._execs):
            if pool is not None:
                terminate_pool(pool)
                self._execs[index] = None
        self._futures.clear()
        self._broken.clear()
        self._spooled.clear()
        if self._dir is not None:
            # Worker heartbeat threads exit on their next touch (the
            # sentinel directory is gone).
            shutil.rmtree(self._dir, ignore_errors=True)
            self._dir = None

    # -- dispatch ----------------------------------------------------------

    def can_accept(self) -> bool:
        # Executors queue their own backlog, exactly like the historical
        # single-pool dispatch: the engine hands the whole grid over.
        return any(
            pool is not None and index not in self._broken
            for index, pool in enumerate(self._execs)
        )

    def submit(self, task: CellTask) -> bool:
        from repro.experiments.engine import _run_cell_task

        digest = task.request.digest
        if digest not in self._spooled:
            spool_workload(self._dir, digest, self._store.get(digest))
            self._spooled.add(digest)
        for _ in range(self.groups):
            index = self._rr % self.groups
            self._rr += 1
            pool = self._execs[index]
            if pool is None or index in self._broken:
                continue
            try:
                future = pool.submit(_run_cell_task, task.request)
            except RuntimeError:  # shut down under us
                self._broken.add(index)
                continue
            self._futures[future] = (task.fingerprint, index)
            return True
        return False

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
            fp, index = self._futures.pop(future)
            try:
                value = future.result()
            except BrokenProcessPool as exc:
                self._broken.add(index)
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
        return {fp for fp, _ in self._futures.values()}

    def liveness(self) -> float | None:
        if self._heartbeat_interval is None or self._dir is None:
            return None
        newest = freshest_heartbeat(self._dir)
        return max(newest or 0.0, self._epoch)

    # -- failure paths -----------------------------------------------------

    def release(self, fingerprints: set[str], reason: str) -> ReleaseReport:
        """Tear down every group running a released cell.

        A pool cannot abandon one running future, so the owning group
        dies with the lease; its other in-flight cells come back as
        uncharged collateral (with one group this is exactly the
        historical kill-the-pool-on-timeout behavior).
        """
        affected = {
            index for _, (fp, index) in self._futures.items() if fp in fingerprints
        }
        requeue: list[str] = []
        for future, (fp, index) in list(self._futures.items()):
            if index in affected:
                del self._futures[future]
                if fp not in fingerprints:
                    requeue.append(fp)
        for index in affected:
            pool = self._execs[index]
            if pool is not None:
                terminate_pool(pool)
                self._execs[index] = None
            self._broken.add(index)
        return ReleaseReport(requeue=tuple(requeue), broke=bool(affected))

    def drain_broken(self) -> list[str]:
        stranded: list[str] = []
        for future, (fp, index) in list(self._futures.items()):
            if index in self._broken:
                del self._futures[future]
                stranded.append(fp)
        return stranded

    def reset(self, should_abort=None) -> bool:
        for index in sorted(self._broken):
            pool = self._execs[index]
            if pool is not None:
                terminate_pool(pool)
            self._make_group(index)
        self._broken.clear()
        return True
