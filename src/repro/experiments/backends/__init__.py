"""Execution backend and result cache for the experiment engine.

The engine fans grid cells out through one :class:`~repro.experiments.
backends.base.ExecutionBackend`:

* :class:`~repro.experiments.backends.pool.PoolBackend` — the local
  ``ProcessPoolExecutor`` fan-out, kept by the engine between runs;
* :mod:`~repro.experiments.backends.cache` —
  :class:`~repro.experiments.backends.cache.ResultCache` over the
  atomic, quarantining
  :class:`~repro.experiments.backends.cache.LocalDirStore`.

Submodules are imported lazily so importing the engine never drags in
the pool (which itself imports the engine for the cell task entry
point).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.backends.base import (
        CellOutcome,
        CellRequest,
        CellTask,
        ExecutionBackend,
        ReleaseReport,
    )
    from repro.experiments.backends.cache import LocalDirStore, ResultCache
    from repro.experiments.backends.pool import PoolBackend

_EXPORTS = {
    ".base": (
        "CellOutcome", "CellRequest", "CellTask", "ExecutionBackend",
        "ReleaseReport",
    ),
    ".cache": ("LocalDirStore", "ResultCache"),
    ".pool": ("PoolBackend",),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
