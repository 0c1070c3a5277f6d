"""The engine's result cache.

:class:`~repro.experiments.backends.cache.ResultCache` over the atomic,
quarantining :class:`~repro.experiments.backends.cache.LocalDirStore`.
The worker pool that runs cells is :mod:`repro.experiments.pool`.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.backends.cache import LocalDirStore, ResultCache

_EXPORTS = {".cache": ("LocalDirStore", "ResultCache")}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
