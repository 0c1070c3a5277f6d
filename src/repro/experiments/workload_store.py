"""Zero-copy workload distribution for the experiment engine.

The engine's grid cells all simulate the same job stream, so pickling the
job tuple into every ``ProcessPoolExecutor`` task would serialize the
identical workload once per cell and deserialize it once per cell in the
workers.  The :class:`WorkloadStore` is the engine's only dispatch path —
register-once/reference-many:

* the parent packs the stream once (:func:`repro.core.packing.pack_jobs`)
  and registers it under its content digest — the same digest the result
  cache already computes, so registration is free of extra hashing;
* a local pool outlives the grids it runs (one pool per engine), so its
  workers cannot be seeded when they start: the driver writes the packed
  buffer once per digest into the pool's scratch directory
  (:func:`spool_workload`, ``<digest>.jobs`` next to the heartbeat
  sentinels) and a worker hydrates it on its first miss, into a bounded
  process-global cache — after checking that the bytes hash to the
  digest they are filed under (a rebuilt worker finds the same file, so
  crash recovery re-seeds automatically);
* each cell task then carries only the 64-character digest — 79 bytes
  per cell against 234,825 for the pickled tuple of a 5,000-job stream
  (``benchmarks/bench_engine_overhead.py``; decision record in
  ``docs/architecture.md``) — and workers deserialize the workload once
  per worker lifetime instead of once per cell.

The in-process serial path (and the engine's serial-degradation fallback)
bypasses the store entirely — it already holds the live job list.

Worker-side state is process-global by design: the pool initializer
(:func:`init_worker`) tells the worker where its pool's spool is, and
:func:`resolve_worker_workload` finds or hydrates the tuple without any
per-task shipping.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from pathlib import Path
from typing import Sequence

from repro.core.job import Job
from repro.core.packing import PackedJobs, fingerprint_packed, pack_jobs, unpack_jobs

__all__ = [
    "WorkloadStore",
    "init_worker",
    "resolve_worker_workload",
    "spool_workload",
    "start_worker_heartbeat",
]


#: Worker-process-global cache: digest -> hydrated job tuple.  Filled from
#: the pool's spool on a cell's first miss (:func:`resolve_worker_workload`),
#: read by cell tasks.
_WORKER_WORKLOADS: dict[str, tuple[Job, ...]] = {}

#: Hydration counter, observable from tests: how many times this process
#: actually unpacked a workload (should be once per digest per worker).
_WORKER_HYDRATIONS = 0

#: The scratch directory of the pool this process works for (set by
#: :func:`init_worker`); ``None`` outside a pool worker.
_SPOOL_DIR: str | None = None


def _spool_path(spool_dir: str, digest: str) -> str:
    return os.path.join(spool_dir, f"{digest}.jobs")


def spool_workload(spool_dir: str, digest: str, packed: PackedJobs) -> None:
    """Driver side: file ``packed`` under ``digest`` for the pool's workers.

    Written to a temporary name and renamed, so a worker never reads a
    half-written file.  No fsync: the spool lives and dies with the pool
    and is read on the machine that wrote it.
    """
    path = _spool_path(spool_dir, digest)
    scratch = f"{path}.{os.getpid()}.tmp"
    with open(scratch, "wb") as handle:
        pickle.dump(packed, handle, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(scratch, path)


def _hydrate_from_spool(digest: str) -> tuple[Job, ...]:
    """Worker side: load, validate and unpack ``<digest>.jobs``."""
    global _WORKER_HYDRATIONS
    if _SPOOL_DIR is None:
        raise RuntimeError(
            f"workload {digest[:12]}... was not seeded into this worker; "
            f"seeded: {[d[:12] for d in _WORKER_WORKLOADS]} — was the pool "
            f"built without the WorkloadStore initializer?"
        )
    try:
        with open(_spool_path(_SPOOL_DIR, digest), "rb") as handle:
            # The driver's own bytes, from a directory only it can write
            # (mkdtemp, mode 0700) — the trust the pool's pipes already get.
            packed = pickle.load(handle)
    except FileNotFoundError:
        raise RuntimeError(
            f"workload {digest[:12]}... was not spooled for this pool"
        ) from None
    if not isinstance(packed, PackedJobs) or fingerprint_packed(packed) != digest:
        raise RuntimeError(
            f"spool file {digest[:12]}....jobs does not hold the workload it "
            f"is named after; refusing to simulate it"
        )
    while len(_WORKER_WORKLOADS) >= WorkloadStore.MAX_ENTRIES:
        _WORKER_WORKLOADS.pop(next(iter(_WORKER_WORKLOADS)))
    jobs = _WORKER_WORKLOADS[digest] = unpack_jobs(packed)
    _WORKER_HYDRATIONS += 1
    return jobs


#: Worker-process heartbeat thread, stamped with the pid it was started
#: in: ``fork`` does not carry threads into children, so a pool worker
#: inheriting this module's globals must start its own thread.
_HEARTBEAT_THREAD: tuple[int, threading.Thread] | None = None


def start_worker_heartbeat(heartbeat_dir: str, interval: float) -> None:
    """Start (or adopt) this process's heartbeat thread.

    A daemon thread touches ``<heartbeat_dir>/<pid>.hb`` every
    ``interval`` seconds; the driver's watchdog reads the mtimes (see
    :meth:`repro.experiments.pool.WorkerPool.liveness`).  The thread
    heartbeats even while the worker is grinding through a simulation —
    it proves the *process* is alive and scheduled.  The watchdog reads
    only the freshest sentinel, so it catches every worker going
    unscheduled at once (all SIGSTOPped, say); one stopped or hung worker
    beside a live one is ``cell_timeout``'s business, and a SIGKILLed one
    breaks the pool outright.  Idempotent per process; fork-safe via the
    pid stamp.
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


def init_worker(spool_dir: str, heartbeat_interval: float | None) -> None:
    """Pool initializer: remember the pool's spool, start heartbeats.

    ``spool_dir`` is the pool's scratch directory: workloads are read
    from it, heartbeat sentinels written to it.  A watchdog-less engine
    passes ``heartbeat_interval=None``.  Runs once per worker process; a
    rebuilt executor re-runs it in every fresh worker, which re-arms the
    heartbeat after a crash (the spool needs no re-seeding: the files are
    still there).
    """
    global _SPOOL_DIR
    _SPOOL_DIR = spool_dir
    if heartbeat_interval is not None:
        start_worker_heartbeat(spool_dir, heartbeat_interval)


def resolve_worker_workload(digest: str) -> tuple[Job, ...]:
    """The hydrated job stream for ``digest`` inside a worker.

    A pool worker hydrates it from the pool's spool the first time it is
    asked.  Raises :class:`RuntimeError` outside a pool worker, when the
    digest was not spooled, or when the spooled bytes do not hash to it —
    surfaced loudly so the engine's retry/serial-fallback machinery
    reports it instead of simulating the wrong workload.
    """
    jobs = _WORKER_WORKLOADS.get(digest)
    return jobs if jobs is not None else _hydrate_from_spool(digest)


class WorkloadStore:
    """Parent-side registry of packed workloads, keyed by content digest.

    One instance lives on each :class:`~repro.experiments.engine.
    ExperimentEngine`; ``register`` packs at most once per digest (repeat
    runs over the same stream reuse the packed buffer) and ``get()`` is
    what a local pool spools from.  The store keeps only the most recent
    :data:`MAX_ENTRIES` workloads so long-lived engines sweeping many
    workloads do not accumulate every stream they ever saw.
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
