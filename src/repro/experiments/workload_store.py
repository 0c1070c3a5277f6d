"""Zero-copy workload distribution for the experiment engine.

The engine's grid cells all simulate the same job stream, so pickling the
job tuple into every ``ProcessPoolExecutor`` task would serialize the
identical workload once per cell and deserialize it once per cell in the
workers.  The :class:`WorkloadStore` is the engine's only dispatch path —
register-once/reference-many:

* the parent packs the stream once (:func:`repro.core.packing.pack_jobs`)
  and registers it under its content digest — the same digest the result
  cache already computes, so registration is free of extra hashing;
* the pool is built with an ``initializer`` that ships the packed buffer
  to each worker exactly once per pool lifetime and hydrates it into a
  process-global cache (a rebuilt pool re-runs the initializer, so crash
  recovery re-seeds automatically);
* each cell task then carries only the 64-character digest — 79 bytes
  per cell against 234,825 for the pickled tuple of a 5,000-job stream
  (``benchmarks/bench_engine_overhead.py``; decision record in
  ``docs/architecture.md``) — and workers deserialize the workload once
  per pool lifetime instead of once per cell.

The in-process serial path (and the engine's serial-degradation fallback)
bypasses the store entirely — it already holds the live job list.

Worker-side state is process-global by design: with the ``fork`` start
method the initializer runs in the child after the fork, with ``spawn`` it
receives the pickled buffer — either way :func:`resolve_worker_workload`
finds the hydrated tuple without any per-task shipping.
"""

from __future__ import annotations

import os
import threading
import time
from pathlib import Path
from typing import Sequence

from repro.core.job import Job
from repro.core.packing import PackedJobs, pack_jobs

__all__ = [
    "WorkloadStore",
    "init_worker",
    "resolve_worker_workload",
    "seed_worker_cache",
    "start_worker_heartbeat",
]


#: Worker-process-global cache: digest -> hydrated job tuple.  Populated by
#: the pool initializer (:func:`seed_worker_cache`), read by cell tasks.
_WORKER_WORKLOADS: dict[str, tuple[Job, ...]] = {}

#: Hydration counter, observable from tests: how many times this process
#: actually unpacked a workload (should be once per digest per pool).
_WORKER_HYDRATIONS = 0


def seed_worker_cache(entries: tuple[tuple[str, PackedJobs], ...]) -> None:
    """Pool initializer: hydrate packed workloads into the worker cache.

    Runs once per worker process per pool.  Idempotent per digest, so a
    worker inheriting an already-seeded cache via ``fork`` does not unpack
    again.
    """
    global _WORKER_HYDRATIONS
    from repro.core.packing import unpack_jobs

    for digest, packed in entries:
        if digest not in _WORKER_WORKLOADS:
            _WORKER_WORKLOADS[digest] = unpack_jobs(packed)
            _WORKER_HYDRATIONS += 1


#: Worker-process heartbeat thread, stamped with the pid it was started
#: in: ``fork`` does not carry threads into children, so a pool worker
#: inheriting this module's globals must start its own thread.
_HEARTBEAT_THREAD: tuple[int, threading.Thread] | None = None


def start_worker_heartbeat(heartbeat_dir: str, interval: float) -> None:
    """Start (or adopt) this process's heartbeat thread.

    A daemon thread touches ``<heartbeat_dir>/<pid>.hb`` every
    ``interval`` seconds; the driver's watchdog reads the mtimes (see
    :func:`repro.experiments.journal.freshest_heartbeat`).  The thread
    heartbeats even while the worker is grinding through a simulation —
    it proves the *process* is alive and scheduled, which is exactly the
    signal that distinguishes a long cell (fine, ``cell_timeout``'s
    business) from a SIGKILLed or SIGSTOPped worker (the watchdog's).
    Idempotent per process; fork-safe via the pid stamp.
    """
    global _HEARTBEAT_THREAD
    pid = os.getpid()
    if _HEARTBEAT_THREAD is not None and _HEARTBEAT_THREAD[0] == pid:
        return
    sentinel = Path(heartbeat_dir) / f"{pid}.hb"

    def beat() -> None:
        while True:
            try:
                sentinel.touch()
            except OSError:
                return  # heartbeat dir removed: the run is over
            time.sleep(interval)

    thread = threading.Thread(
        target=beat, name=f"repro-heartbeat-{pid}", daemon=True
    )
    thread.start()
    _HEARTBEAT_THREAD = (pid, thread)


def init_worker(
    entries: tuple[tuple[str, PackedJobs], ...],
    heartbeat_dir: str | None,
    heartbeat_interval: float | None,
) -> None:
    """Combined pool initializer: seed the workload cache, start heartbeats.

    A watchdog-less engine passes ``heartbeat_dir=None``.  Runs once per
    worker process per pool; a rebuilt pool re-runs it in every fresh
    worker, which is what re-seeds the store and re-arms the heartbeat
    after a crash — including on resume, where the journal replay changes
    nothing about worker setup.
    """
    seed_worker_cache(entries)
    if heartbeat_dir is not None and heartbeat_interval is not None:
        start_worker_heartbeat(heartbeat_dir, heartbeat_interval)


def resolve_worker_workload(digest: str) -> tuple[Job, ...]:
    """The hydrated job stream for ``digest`` inside a pool worker.

    Raises :class:`RuntimeError` when the digest was never seeded — a
    bookkeeping bug, surfaced loudly so the engine's retry/serial-fallback
    machinery reports it instead of simulating the wrong workload.
    """
    try:
        return _WORKER_WORKLOADS[digest]
    except KeyError:
        raise RuntimeError(
            f"workload {digest[:12]}... was not seeded into this worker; "
            f"seeded: {[d[:12] for d in _WORKER_WORKLOADS]} — was the pool "
            f"built without the WorkloadStore initializer?"
        ) from None


class WorkloadStore:
    """Parent-side registry of packed workloads, keyed by content digest.

    One instance lives on each :class:`~repro.experiments.engine.
    ExperimentEngine`; ``register`` packs at most once per digest (repeat
    runs over the same stream reuse the packed buffer), and ``entries()``
    supplies the pool-initializer arguments.  The store keeps only the
    most recent :data:`MAX_ENTRIES` workloads so long-lived engines
    sweeping many workloads do not accumulate every stream they ever saw.
    """

    #: Packed workloads retained; oldest evicted first (insertion order).
    MAX_ENTRIES = 4

    def __init__(self) -> None:
        self._packed: dict[str, PackedJobs] = {}

    def __len__(self) -> int:
        return len(self._packed)

    def register(self, digest: str, jobs: Sequence[Job]) -> PackedJobs:
        """Pack ``jobs`` under ``digest`` (idempotent per digest)."""
        packed = self._packed.get(digest)
        if packed is None:
            packed = pack_jobs(jobs)
            while len(self._packed) >= self.MAX_ENTRIES:
                self._packed.pop(next(iter(self._packed)))
            self._packed[digest] = packed
        return packed

    def get(self, digest: str) -> PackedJobs | None:
        return self._packed.get(digest)

    def entries(self, digest: str) -> tuple[tuple[str, PackedJobs], ...]:
        """Initializer payload for a pool that will run cells of ``digest``."""
        packed = self._packed.get(digest)
        if packed is None:
            raise KeyError(f"workload {digest[:12]}... is not registered")
        return ((digest, packed),)
