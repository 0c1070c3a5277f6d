"""The engine's worker pool and the one loop that runs a grid on it.

:class:`WorkerPool` is the set of worker processes the engine keeps
between runs: each :class:`Worker` is forked once, talks to the parent
over one duplex pipe, and holds at most one running cell plus one
waiting in its pipe.  :class:`PoolRun` is the loop of one run: fill the
workers, wait on their pipes and process sentinels, and when a worker
died, stopped or overran its lease (``cell_timeout``), charge that
worker's running cell a retry, requeue its waiting cell uncharged and
replace that worker alone, at most :data:`MAX_WORKER_REPLACEMENTS` times.
What the pool could not finish runs in the engine's process.  The parent
knows which cell each worker holds, so a cell is recorded exactly once.
See docs/architecture.md, "The pool loop".
"""

from __future__ import annotations

import math
import multiprocessing
import os
import pickle
import random
import signal
import time
from multiprocessing import connection, util
from typing import TYPE_CHECKING, NoReturn

from repro.core.packing import PackedJobs, fingerprint_packed, unpack_jobs
from repro.experiments.engine import CellRequest, _simulate
from repro.experiments.runner import import_simulation_stack
from repro.schedulers.registry import SchedulerConfig, registry_generation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.engine import ExperimentEngine
    from repro.experiments.lifecycle import GridRun

__all__ = ["PoolRun", "Worker", "WorkerPool", "pool_context", "retry_pause"]

#: Pool retries of a cell after its first attempt; one more failure sends it
#: to the engine's process.
MAX_RETRIES = 2
#: Base pause before a cell's first retry, in seconds (see :func:`retry_pause`).
RETRY_BACKOFF = 0.5
#: Workers replaced in one run before the rest of it runs in process.
MAX_WORKER_REPLACEMENTS = 2
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


def _serve(conn: connection.Connection, inherited: list) -> None:
    """A worker's loop: a grid payload, then cells of that grid.

    ``inherited`` are the parent's ends of this worker's pipe and of its
    siblings', copied by the fork: closed here, so the parent's death is
    an EOF on ``recv`` (or a broken pipe on ``send``) and the worker
    exits instead of waiting forever.  The parent owns the interrupt, so
    a worker ignores SIGINT (a terminal sends it to the whole group).

    A payload is ``(template, packed)``: the grid's
    :class:`~repro.experiments.engine.CellRequest` without a config, and
    the packed stream, trusted only once it hashes to the digest the
    template names.  A cell message is its config; the reply is
    ``(cell, wall)``, or the ``repr`` of what the cell raised.
    """
    for end in inherited:
        end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    template: CellRequest | None = None
    jobs = None
    try:
        while True:
            message = conn.recv()
            if not isinstance(message, SchedulerConfig):
                template, packed = message
                jobs = None  # only the current grid's payload is kept
                if isinstance(packed, PackedJobs) and (
                    fingerprint_packed(packed) == template.digest
                ):
                    jobs = unpack_jobs(packed)
                continue
            t0 = time.perf_counter()
            try:
                if jobs is None:
                    raise RuntimeError(
                        f"the payload sent for workload {template.digest[:12]}... "
                        f"does not hold that workload; refusing to simulate it"
                    )
                cell = _simulate(template._replace(config=message), jobs)
                reply: object = (cell, time.perf_counter() - t0)
            except Exception as exc:
                reply = repr(exc)
            conn.send(reply)
    except (EOFError, OSError):
        return  # the parent is gone


class Worker:
    """One owned worker process and what the parent gave it.

    ``cells`` are the fingerprints in flight, the running one first and
    at most one waiting in the pipe behind it; ``lease`` is the running
    cell's ``perf_counter`` deadline, and ``grid`` the template of the
    payload the worker holds.
    """

    __slots__ = ("process", "conn", "cells", "lease", "grid")

    def __init__(self, process: multiprocessing.process.BaseProcess,
                 conn: connection.Connection) -> None:
        self.process = process
        self.conn = conn
        self.cells: list[str] = []
        self.lease = math.inf
        self.grid: CellRequest | None = None

    @property
    def pid(self) -> int:
        return self.process.pid  # type: ignore[return-value]

    def kill(self) -> None:
        """SIGKILL (a stopped or stuck worker acts on nothing else), reap,
        and close the pipe."""
        self.process.kill()
        self.process.join()
        self.conn.close()

    def exit_reason(self) -> str:
        """How the reaped worker ended, for a retry's reason."""
        code = self.process.exitcode or 0
        if code < 0:
            return f"worker {self.pid} killed by {signal.Signals(-code).name}"
        return f"worker {self.pid} exited with status {code}"


def _kill_all(workers: list[Worker]) -> None:
    for worker in workers:
        worker.kill()
    workers.clear()


class WorkerPool:
    """The engine's kept workers, started on construction.

    The simulation stack is imported before the workers fork, so they
    inherit it; ``generation`` is the scheduler-registry generation they
    were forked under.
    """

    def __init__(self, *, workers: int) -> None:
        import_simulation_stack()
        self.generation = registry_generation()
        self.workers: list[Worker] = []
        for _ in range(max(1, workers)):
            self.workers.append(self.fork())
        #: ``close()`` kills the workers once; it also runs when the pool
        #: is dropped, and at exit before ``multiprocessing`` joins them.
        self.close = util.Finalize(
            self, _kill_all, args=(self.workers,), exitpriority=0
        )

    def fork(self) -> Worker:
        """Start one worker; it closes every parent end it inherits."""
        context = pool_context()
        ours, theirs = context.Pipe()
        inherited = [worker.conn for worker in self.workers] + [ours]
        process = context.Process(target=_serve, args=(theirs, inherited))
        process.start()
        theirs.close()
        return Worker(process, ours)

    def replace(self, worker: Worker) -> None:
        """Swap a killed worker for a fresh one."""
        self.workers[self.workers.index(worker)] = self.fork()

    def stopped(self) -> list[Worker]:
        """The workers the kernel reports stopped.

        ``WNOWAIT`` only peeks at a worker's state.  Without ``os.waitid``
        (macOS before Python 3.13) nothing is reported, and
        ``cell_timeout`` is the only guard.
        """
        if not hasattr(os, "waitid"):
            return []
        flags = os.WSTOPPED | os.WNOHANG | os.WNOWAIT
        stopped = []
        for worker in self.workers:
            try:
                if os.waitid(os.P_PID, worker.pid, flags) is not None:
                    stopped.append(worker)
            except ChildProcessError:  # already reaped
                pass
        return stopped


class PoolRun:
    """One run's cache misses on their way through the engine's pool.

    ``engine`` supplies ``cell_timeout``, the backend and the pool; every
    transition the loop sees goes to ``run`` as one :meth:`GridRun.note
    <repro.experiments.lifecycle.GridRun.note>` call.
    """

    __slots__ = (
        "engine", "run", "config_by_fp", "order", "attempts",
        "serial_fallback", "rng", "pool", "queue", "resubmit_at",
        "template", "payload",
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
        #: Cells no worker holds yet.
        self.queue: list[str] = []
        #: fp -> perf_counter instant a cell's retry backoff ends.  These
        #: deadlines bound the wait instead of a sleep, so the other cells
        #: keep being collected meanwhile.
        self.resubmit_at: dict[str, float] = {}
        #: The grid's cell request without a config, and the pickled
        #: payload (template and packed stream) a worker gets on its first
        #: cell of the grid.
        self.template: CellRequest | None = None
        self.payload = b""

    def execute(self) -> list[tuple[SchedulerConfig, str]]:
        """Run the cells on the pool; return the serial leftovers.

        Every cell whose retry budget ran out, plus what was unfinished
        when the replacement budget ran out, comes back in grid order for
        in-process execution.  The pool goes back to the engine when the
        budget held; one that gave up, or that an interrupt or error took
        the run away from, is closed.
        """
        run, request = self.run, self.run.request
        # Zero-copy dispatch: pack the stream once and send it to each
        # worker once; a cell message is only its config.
        packed = self.engine.workload_store.register(request.digest, request.jobs)
        self.template = request.cell_request(None, self.engine.backend)  # type: ignore[arg-type]
        self.payload = pickle.dumps(
            (self.template, packed), protocol=pickle.HIGHEST_PROTOCOL
        )
        pool = self.pool = self.engine.borrow_pool()
        run.note("pooled")
        healthy = False
        try:
            leftovers = self.drive()
            healthy = run.stats.worker_replacements <= MAX_WORKER_REPLACEMENTS
        finally:
            if healthy:
                self.engine.return_pool(pool)
            else:
                pool.close()
        unfinished = {*self.serial_fallback, *leftovers}
        serial = [(self.config_by_fp[fp], fp) for fp in self.order if fp in unfinished]
        if serial:
            run.note("degraded", count=len(serial))
        return serial

    def held(self) -> list[str]:
        """The cells the workers hold, running and waiting."""
        return [fp for worker in self.pool.workers for fp in worker.cells]

    def drive(self) -> list[str]:
        """The loop; returns the cells left once the replacement budget is
        spent."""
        self.queue = list(self.order)
        while self.queue or self.resubmit_at or self.held():
            if self.run.interrupted is not None:
                self.shut_down()
            if not (self.dispatch() and self.collect()):
                return [*self.queue, *self.resubmit_at, *self.held()]
        return []

    def shut_down(self) -> NoReturn:
        """Journal every unfinished cell ``interrupted`` and raise the
        :class:`~repro.experiments.journal.RunInterrupted`
        (:meth:`execute` closes the pool, killing its workers)."""
        unfinished = {
            *self.queue, *self.held(), *self.resubmit_at, *self.serial_fallback,
        }
        self.run.interrupt(
            [(self.config_by_fp[fp].key, fp) for fp in sorted(unfinished)]
        )

    def dispatch(self) -> bool:
        """Requeue cells whose backoff ended, then give every worker a
        running cell and then a waiting one; False once the replacement
        budget is spent.

        Only an idle worker is sent the grid payload, so the parent never
        blocks on a busy one: a cell message fits its pipe.
        """
        now = time.perf_counter()
        for fp in [f for f, at in self.resubmit_at.items() if at <= now]:
            del self.resubmit_at[fp]
            self.queue.append(fp)
        with self.run.batch():
            for depth in (0, 1):
                for worker in list(self.pool.workers):
                    if not self.queue or len(worker.cells) != depth:
                        continue
                    fp = self.queue.pop(0)
                    try:
                        if not depth and worker.grid is not self.template:
                            worker.conn.send_bytes(self.payload)
                            worker.grid = self.template
                        worker.conn.send(self.config_by_fp[fp])
                    except OSError:  # the worker died: fault it
                        self.queue.insert(0, fp)
                        if not self.fault(worker, None):
                            return False
                        continue
                    worker.cells.append(fp)
                    if not depth:
                        self.start(worker)
        return True

    def start(self, worker: Worker) -> None:
        """The worker takes its first cell: journal it, start its lease."""
        fp = worker.cells[0]
        self.run.note("started", self.config_by_fp[fp].key, fingerprint=fp)
        timeout = self.engine.cell_timeout
        worker.lease = math.inf if timeout is None else time.perf_counter() + timeout

    def wait_timeout(self) -> float:
        """Seconds until the soonest lease or resubmission, at most
        :data:`POLL_INTERVAL`."""
        now = time.perf_counter()
        deadlines = [
            *(worker.lease for worker in self.pool.workers if worker.cells),
            *self.resubmit_at.values(),
        ]
        return max(0.0, min([POLL_INTERVAL, *(at - now for at in deadlines)]))

    def collect(self) -> bool:
        """Wait for a result, a death or a deadline; file results and
        fault dead, stopped and overdue workers.  False once the
        replacement budget is spent."""
        busy = [worker for worker in self.pool.workers if worker.cells]
        if not busy:
            if not self.queue:
                # Only backoffs pending: idle until the first ends, a poll
                # at a time.
                time.sleep(self.wait_timeout())
            return True
        ready = set(connection.wait(
            [*(w.conn for w in busy), *(w.process.sentinel for w in busy)],
            timeout=self.wait_timeout(),
        ))
        with self.run.batch():
            for worker in busy:
                if worker.conn in ready:
                    try:
                        reply = worker.conn.recv()
                    except (EOFError, OSError):
                        if not self.fault(worker, None):
                            return False
                        continue
                    self.file(worker, reply)
                elif worker.process.sentinel in ready and not self.fault(worker, None):
                    return False
            for worker in self.pool.stopped():
                if not self.fault(worker, f"worker {worker.pid} stopped"):
                    return False
            now = time.perf_counter()
            for worker in [w for w in self.pool.workers if w.lease <= now and w.cells]:
                why = f"exceeded cell_timeout={self.engine.cell_timeout}s"
                if not self.fault(worker, why):
                    return False
        return True

    def file(self, worker: Worker, reply: object) -> None:
        """A worker answered for its running cell; its waiting cell starts."""
        fp = worker.cells.pop(0)
        if isinstance(reply, tuple):
            cell, wall = reply
            key = self.config_by_fp[fp].key
            self.run.note("completed", key, fingerprint=fp, cell=cell, wall_time=wall)
        else:
            # The cell raised in a healthy worker: retried (a flaky error
            # recovers), then the serial fallback surfaces a deterministic
            # one with a direct traceback.
            self.charge_retry(fp, f"cell raised: {reply}")
        worker.lease = math.inf
        if worker.cells:
            self.start(worker)

    def fault(self, worker: Worker, why: str | None) -> bool:
        """Kill and reap a dead, stopped or overdue worker; charge its
        running cell (``why``, or how it ended), requeue its waiting one
        uncharged and replace it.  False once the replacement budget is
        spent."""
        worker.kill()
        running, *waiting = worker.cells or [None]
        worker.cells = []
        self.queue[:0] = waiting
        if running is not None:
            self.charge_retry(running, why or worker.exit_reason())
        self.run.note("worker-replaced")
        if self.run.stats.worker_replacements > MAX_WORKER_REPLACEMENTS:
            return False
        self.pool.replace(worker)
        return True

    def charge_retry(self, fp: str, why: str) -> None:
        """Charge a retry for ``fp``: schedule its resubmission, or send
        it to the serial fallback once the budget is exhausted."""
        key = self.config_by_fp[fp].key
        attempt = self.attempts[fp] = self.attempts.get(fp, 0) + 1
        if attempt > MAX_RETRIES:
            self.run.note("abandoned", key, fingerprint=fp, detail=why)
            self.serial_fallback.append(fp)
            return
        pause = retry_pause(RETRY_BACKOFF, attempt, self.rng)
        self.run.note("retry", key, fingerprint=fp, detail=why, wall_time=pause,
                      attempt=f"{attempt}/{MAX_RETRIES}")
        self.resubmit_at[fp] = time.perf_counter() + pause
