"""The ``ExecutionBackend`` contract behind the engine's dispatch loop.

The engine owns everything that makes a grid *correct* — fingerprints,
leases, retry/backoff budgets, duplicate-result dedup, journaling and
the serial fallback.  A backend owns only *where cells run*: it takes
:class:`CellTask`\\ s, returns :class:`CellOutcome`\\ s, and reports its
own liveness for the engine's watchdog.

The lease state machine (see docs/architecture.md, "Execution
backends"):

* the engine stamps a lease deadline on every submitted cell;
* a lease that expires triggers :meth:`ExecutionBackend.release` — the
  backend gives the cell up (the local pool tears its workers down),
  the engine charges the cell a retry, and any collateral cells the
  backend had to abandon with it are requeued uncharged;
* a late result for a released cell may still arrive; the backend
  delivers it normally and the engine dedupes it idempotently by
  fingerprint — a cell counts exactly once no matter how many workers
  eventually answered for it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.simulator import ScenarioInputs
    from repro.schedulers.registry import SchedulerConfig


class CellRequest(NamedTuple):
    """Everything a worker needs to simulate one cell, by name.

    The picklable task payload.  ``digest`` names the packed workload
    the worker hydrates from its pool's spool; ``scenario`` is the
    *compiled* disturbance bundle (``None``: healthy baseline) and
    ``cancel_over_limit`` its estimate-limit kill flag; ``backend``
    selects the worker's queue walks (bit-identical results, so
    it never enters a fingerprint).  The worker rebuilds the scheduler
    from its own registry by ``config``'s row/column keys.
    """

    config: "SchedulerConfig"
    digest: str
    total_nodes: int
    weighted: bool
    recompute_threshold: float
    scenario: "ScenarioInputs | None"
    cancel_over_limit: bool
    backend: str | None


class CellTask(NamedTuple):
    """One grid cell, ready to dispatch — a backend never needs to
    understand ``request``, only move it to
    :func:`repro.experiments.engine._run_cell_task`."""

    fingerprint: str
    request: CellRequest


class CellOutcome(NamedTuple):
    """One collected result.

    ``kind`` is ``"done"`` (``value`` holds the worker's
    ``(key, cell, wall)`` tuple), ``"failed"`` (the cell raised or its
    worker/connection died; the engine charges a retry) or ``"broken"``
    (like ``"failed"``, but the failure also broke the backend —
    the engine must requeue :meth:`ExecutionBackend.drain_broken` and
    spend a reset from its budget before submitting again).
    """

    fingerprint: str
    kind: str
    value: tuple | None = None
    detail: str = ""


class ReleaseReport(NamedTuple):
    """What :meth:`ExecutionBackend.release` had to do.

    ``requeue`` lists collateral cells the backend abandoned alongside
    the charged ones (a torn-down pool dooms every cell it was
    running); the engine resubmits them uncharged.  ``broke`` is true
    when the release damaged the backend itself — the engine then spends
    a reset from its rebuild budget before dispatching again.
    """

    requeue: tuple[str, ...] = ()
    broke: bool = False


class ExecutionBackend(ABC):
    """Where grid cells run; the engine drives one per parallel run.

    Lifecycle: :meth:`start` once, then repeated
    :meth:`submit`/:meth:`collect` rounds, with :meth:`release`,
    :meth:`drain_broken` and :meth:`reset` on the failure paths, and
    :meth:`close` exactly once at the end (also after a failed start).
    Implementations are driven from a single thread.
    """

    #: Human-readable backend identity, reported as ``RunStats.backend``.
    name: str = "backend"

    @abstractmethod
    def start(self) -> None:
        """Acquire workers."""

    @abstractmethod
    def can_accept(self) -> bool:
        """True when :meth:`submit` would find a free worker right now."""

    @abstractmethod
    def submit(self, task: CellTask) -> bool:
        """Dispatch one cell; False when no worker could take it."""

    @abstractmethod
    def collect(self, timeout: float | None) -> list[CellOutcome]:
        """Block up to ``timeout`` seconds for outcomes (may be empty)."""

    @abstractmethod
    def in_flight(self) -> set[str]:
        """Fingerprints currently leased out (released cells excluded)."""

    def liveness(self) -> float | None:
        """Wall-clock time of the freshest proof of life, or ``None``.

        ``None`` disables the engine's stall watchdog for this backend.
        """
        return None

    @abstractmethod
    def release(self, fingerprints: set[str], reason: str) -> ReleaseReport:
        """Revoke the leases on ``fingerprints`` (expired or stalled)."""

    def drain_broken(self) -> list[str]:
        """Fingerprints stranded by broken workers, cleared; uncharged."""
        return []

    @abstractmethod
    def reset(self) -> bool:
        """Heal after breakage; False means the backend is beyond repair."""

    @abstractmethod
    def close(self) -> None:
        """Tear everything down; never raises."""
