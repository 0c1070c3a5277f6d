"""Execution backends for the experiment engine's dispatch loop.

The engine fans grid cells out through one :class:`~repro.experiments.
backends.base.ExecutionBackend` at a time:

* :class:`~repro.experiments.backends.pool.PoolBackend` — the default
  local ``ProcessPoolExecutor`` fan-out, kept by the engine between runs;
* :class:`~repro.experiments.backends.remote.RemoteWorkerBackend` —
  cells dispatched to :mod:`~repro.experiments.backends.worker`
  processes over the length-prefixed, checksummed socket protocol of
  :mod:`~repro.experiments.backends.protocol`, with worker heartbeats,
  lease-aware zombie handling and bounded jittered reconnect;
* :mod:`~repro.experiments.backends.cache` —
  :class:`~repro.experiments.backends.cache.ResultCache` and the
  pluggable :class:`~repro.experiments.backends.cache.CacheStore`
  backends behind it (local directory + remote store over the same
  protocol), plus
  :class:`~repro.experiments.backends.objectstore.ObjectStoreCacheStore`
  speaking a minimal S3-compatible HTTP subset to any object store, and
  the deterministic fault-injecting
  :class:`~repro.experiments.backends.s3stub.S3StubServer` the chaos
  suites run it against.

Submodules are imported lazily so importing the engine never drags in
the worker/server side (which itself imports the engine for the cell
task entry point).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.backends.base import (
        BackendUnavailable,
        CellOutcome,
        CellRequest,
        CellTask,
        ExecutionBackend,
        ReleaseReport,
    )
    from repro.experiments.backends.cache import (
        CacheStore,
        CacheStoreHealth,
        LocalDirStore,
        RemoteCacheStore,
        ResultCache,
        store_from_spec,
    )
    from repro.experiments.backends.objectstore import ObjectStoreCacheStore
    from repro.experiments.backends.pool import PoolBackend
    from repro.experiments.backends.s3stub import ChaosSpec, S3StubServer
    from repro.experiments.backends.protocol import ProtocolError
    from repro.experiments.backends.remote import RemoteWorkerBackend
    from repro.experiments.backends.worker import WorkerServer, serve_worker

_EXPORTS = {
    ".base": (
        "BackendUnavailable", "CellOutcome", "CellRequest", "CellTask",
        "ExecutionBackend", "ReleaseReport",
    ),
    ".cache": (
        "CacheStore", "CacheStoreHealth", "LocalDirStore", "RemoteCacheStore",
        "ResultCache", "store_from_spec",
    ),
    ".objectstore": ("ObjectStoreCacheStore",),
    ".s3stub": ("ChaosSpec", "S3StubServer"),
    ".pool": ("PoolBackend",),
    ".protocol": ("ProtocolError",),
    ".remote": ("RemoteWorkerBackend",),
    ".worker": ("WorkerServer", "serve_worker"),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
