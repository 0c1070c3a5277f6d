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

from __future__ import annotations

from typing import TYPE_CHECKING

_EXPORTS = {
    "BackendUnavailable": "repro.experiments.backends.base",
    "CellOutcome": "repro.experiments.backends.base",
    "CellRequest": "repro.experiments.backends.base",
    "CellTask": "repro.experiments.backends.base",
    "ExecutionBackend": "repro.experiments.backends.base",
    "ReleaseReport": "repro.experiments.backends.base",
    "CacheStore": "repro.experiments.backends.cache",
    "CacheStoreHealth": "repro.experiments.backends.cache",
    "LocalDirStore": "repro.experiments.backends.cache",
    "RemoteCacheStore": "repro.experiments.backends.cache",
    "ResultCache": "repro.experiments.backends.cache",
    "store_from_spec": "repro.experiments.backends.cache",
    "ObjectStoreCacheStore": "repro.experiments.backends.objectstore",
    "ChaosSpec": "repro.experiments.backends.s3stub",
    "S3StubServer": "repro.experiments.backends.s3stub",
    "PoolBackend": "repro.experiments.backends.pool",
    "ProtocolError": "repro.experiments.backends.protocol",
    "RemoteWorkerBackend": "repro.experiments.backends.remote",
    "WorkerServer": "repro.experiments.backends.worker",
    "serve_worker": "repro.experiments.backends.worker",
}

__all__ = sorted(_EXPORTS)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.backends.base import (  # noqa: F401
        BackendUnavailable,
        CellOutcome,
        CellRequest,
        CellTask,
        ExecutionBackend,
        ReleaseReport,
    )
    from repro.experiments.backends.cache import (  # noqa: F401
        CacheStore,
        CacheStoreHealth,
        LocalDirStore,
        RemoteCacheStore,
        ResultCache,
        store_from_spec,
    )
    from repro.experiments.backends.objectstore import (  # noqa: F401
        ObjectStoreCacheStore,
    )
    from repro.experiments.backends.pool import PoolBackend  # noqa: F401
    from repro.experiments.backends.s3stub import (  # noqa: F401
        ChaosSpec,
        S3StubServer,
    )
    from repro.experiments.backends.protocol import ProtocolError  # noqa: F401
    from repro.experiments.backends.remote import RemoteWorkerBackend  # noqa: F401
    from repro.experiments.backends.worker import (  # noqa: F401
        WorkerServer,
        serve_worker,
    )


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
