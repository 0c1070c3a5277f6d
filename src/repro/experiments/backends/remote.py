"""Remote execution backend: cells dispatched to socket workers.

One :class:`RemoteWorkerBackend` drives a set of
:mod:`~repro.experiments.backends.worker` processes.  Each connection
is seeded once with the packed workload (the WorkloadStore path: cells
then carry only the 64-char digest), runs one cell at a time, and
heartbeats at the driver's interval so the engine's existing watchdog
deadline math applies unchanged.

Failure handling, by symptom:

* **connection lost** (worker SIGKILLed, socket severed, frame
  corrupt): the in-flight cell comes back as a ``failed`` outcome — the
  engine's retry/backoff ladder re-dispatches it — and the worker
  enters bounded reconnect with jittered exponential backoff.  Workers
  that exhaust their reconnect budget are abandoned.
* **lease expired** (the worker is alive but too slow, or silently
  stopped): the engine revokes the lease and this backend marks the
  worker a *zombie* — it gets no new cells, but its socket stays open,
  so a late RESULT is still delivered and the engine dedupes it
  idempotently by fingerprint.  A result (or error) returns a zombie to
  service; a lost connection sends it through reconnect like any other.
* **every worker gone**: the engine sees an empty in-flight set with a
  non-empty queue, spends one reset — a full blocking reconnect sweep —
  and steps down the degradation ladder (local pool -> serial) if that
  fails, so the grid completes regardless.
"""

from __future__ import annotations

import random
import select
import socket
import time
from typing import TYPE_CHECKING, Callable, Sequence

from repro.experiments.backends import protocol as proto
from repro.experiments.backends.base import (
    BackendUnavailable,
    CellOutcome,
    CellTask,
    ExecutionBackend,
    ReleaseReport,
)
from repro.resilience import RetryPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.packing import PackedJobs

__all__ = ["RemoteWorkerBackend"]


class _Worker:
    """Driver-side state for one remote worker connection."""

    __slots__ = (
        "addr", "sock", "state", "task_fp", "last_seen", "attempts",
        "next_attempt_at",
    )

    def __init__(self, addr: tuple[str, int]) -> None:
        self.addr = addr
        self.sock: socket.socket | None = None
        #: "idle" | "busy" | "zombie" | "down" | "dead"
        self.state = "down"
        self.task_fp: str | None = None
        self.last_seen = 0.0
        self.attempts = 0
        self.next_attempt_at = 0.0

    @property
    def label(self) -> str:
        return f"{self.addr[0]}:{self.addr[1]}"


class RemoteWorkerBackend(ExecutionBackend):
    """Cells over the frame protocol; one in-flight cell per worker."""

    name = "remote"

    def __init__(
        self,
        addresses: Sequence[str | tuple[str, int]],
        *,
        store_entries: "tuple[tuple[str, PackedJobs], ...]" = (),
        heartbeat_interval: float | None = None,
        connect_timeout: float = 5.0,
        io_timeout: float = 600.0,
        max_reconnects: int = 4,
        reconnect_backoff: float = 0.5,
    ) -> None:
        if not addresses:
            raise ValueError("RemoteWorkerBackend needs at least one address")
        self._workers = [
            _Worker(proto.parse_address(address)) for address in addresses
        ]
        self._store_entries = store_entries
        self._heartbeat_interval = heartbeat_interval
        self._connect_timeout = connect_timeout
        self._io_timeout = io_timeout
        self._max_reconnects = max_reconnects
        self._reconnect_backoff = reconnect_backoff
        self._reconnect_policy = RetryPolicy(
            max_attempts=max_reconnects + 1,
            backoff=reconnect_backoff,
            jitter=(0.5, 1.5),
        )
        self._rng = random.Random()
        self._epoch = time.time()

    # -- connection management ---------------------------------------------

    def _connect(self, worker: _Worker) -> bool:
        """Dial, handshake, seed.  On failure: schedule the next attempt."""
        try:
            sock = socket.create_connection(
                worker.addr, timeout=self._connect_timeout
            )
            sock.settimeout(self._io_timeout)
            proto.send_frame(sock, proto.Kind.HELLO, {
                "version": proto.PROTOCOL_VERSION,
                "heartbeat_interval": self._heartbeat_interval,
            })
            frame = self._recv_meaningful(sock, worker)
            if frame.kind is not proto.Kind.WELCOME:
                raise proto.ProtocolError(
                    f"expected WELCOME, got {frame.kind.name}"
                )
            for digest, packed in self._store_entries:
                proto.send_frame(sock, proto.Kind.SEED, (digest, packed))
                frame = self._recv_meaningful(sock, worker)
                if frame.kind is not proto.Kind.SEEDED:
                    raise proto.ProtocolError(
                        f"expected SEEDED, got {frame.kind.name}"
                    )
        except (OSError, proto.ProtocolError):
            self._schedule_retry(worker)
            return False
        worker.sock = sock
        worker.state = "idle"
        worker.task_fp = None
        worker.last_seen = time.time()
        worker.attempts = 0
        return True

    def _recv_meaningful(self, sock: socket.socket, worker: _Worker):
        """Next non-PING frame; PINGs refresh liveness even mid-handshake."""
        while True:
            frame = proto.recv_frame(sock)
            if frame.kind is not proto.Kind.PING:
                return frame
            worker.last_seen = time.time()

    def _schedule_retry(self, worker: _Worker) -> None:
        self._close_worker(worker)
        worker.attempts += 1
        if worker.attempts > self._max_reconnects:
            worker.state = "dead"
            return
        worker.state = "down"
        pause = self._reconnect_policy.backoff_for(worker.attempts, self._rng)
        worker.next_attempt_at = time.monotonic() + pause

    @staticmethod
    def _close_worker(worker: _Worker) -> None:
        if worker.sock is not None:
            try:
                worker.sock.close()
            except OSError:  # pragma: no cover - already dead
                pass
            worker.sock = None

    def _on_conn_lost(
        self, worker: _Worker, outcomes: list[CellOutcome], detail: str
    ) -> None:
        fp, was = worker.task_fp, worker.state
        worker.task_fp = None
        self._schedule_retry(worker)
        if was == "busy" and fp is not None:
            outcomes.append(
                CellOutcome(
                    fp,
                    "failed",
                    detail=f"lost connection to worker {worker.label}: {detail}",
                )
            )
        # A zombie's cell was already revoked and requeued by the engine:
        # losing the zombie costs nothing further.

    def _try_reconnects(self) -> None:
        now = time.monotonic()
        for worker in self._workers:
            if worker.state == "down" and worker.next_attempt_at <= now:
                self._connect(worker)

    def _next_reconnect_at(self) -> float | None:
        pending = [
            w.next_attempt_at for w in self._workers if w.state == "down"
        ]
        return min(pending) if pending else None

    # -- the backend interface ---------------------------------------------

    def start(self) -> None:
        connected = sum(1 for worker in self._workers if self._connect(worker))
        if not connected:
            raise BackendUnavailable(
                "no remote worker reachable at "
                + ", ".join(w.label for w in self._workers)
            )
        self._epoch = time.time()

    def can_accept(self) -> bool:
        return any(w.state == "idle" for w in self._workers)

    def submit(self, task: CellTask) -> bool:
        for worker in self._workers:
            if worker.state != "idle":
                continue
            try:
                proto.send_frame(worker.sock, proto.Kind.TASK, task.request)
            except (OSError, proto.ProtocolError):
                self._schedule_retry(worker)
                continue
            worker.task_fp = task.fingerprint
            worker.state = "busy"
            return True
        return False

    def collect(self, timeout: float | None) -> list[CellOutcome]:
        deadline = None if timeout is None else time.monotonic() + timeout
        outcomes: list[CellOutcome] = []
        while True:
            self._try_reconnects()
            sock_map = {
                w.sock: w for w in self._workers if w.sock is not None
            }
            now = time.monotonic()
            waits: list[float] = []
            if deadline is not None:
                waits.append(deadline - now)
            next_retry = self._next_reconnect_at()
            if next_retry is not None:
                waits.append(next_retry - now)
            if not sock_map:
                # Nothing to read from: sleep toward the next reconnect
                # attempt (or the caller's deadline) in short slices.
                if deadline is not None and now >= deadline:
                    return outcomes
                if not waits:
                    return outcomes
                time.sleep(min(0.25, max(0.01, min(waits))))
                continue
            select_timeout = max(0.0, min(waits)) if waits else None
            try:
                readable, _, _ = select.select(
                    list(sock_map), [], [], select_timeout
                )
            except OSError:
                readable = []
            for sock in readable:
                worker = sock_map[sock]
                try:
                    frame = proto.recv_frame(sock)
                except (OSError, proto.ProtocolError) as exc:
                    self._on_conn_lost(worker, outcomes, repr(exc))
                    continue
                worker.last_seen = time.time()
                if frame.kind is proto.Kind.PING:
                    continue
                if frame.kind in (proto.Kind.RESULT, proto.Kind.TASK_ERROR):
                    fp = worker.task_fp
                    worker.task_fp = None
                    worker.state = "idle"
                    if fp is None:  # pragma: no cover - defensive
                        continue
                    if frame.kind is proto.Kind.RESULT:
                        outcomes.append(
                            CellOutcome(fp, "done", value=frame.payload)
                        )
                    else:
                        outcomes.append(
                            CellOutcome(
                                fp,
                                "failed",
                                detail=(
                                    f"cell raised on worker "
                                    f"{worker.label}: {frame.payload}"
                                ),
                            )
                        )
                else:
                    self._on_conn_lost(
                        worker,
                        outcomes,
                        f"unexpected {frame.kind.name} frame",
                    )
            if outcomes:
                return outcomes
            if deadline is not None and time.monotonic() >= deadline:
                return outcomes
            # Otherwise: woke for a reconnect attempt or spurious
            # readiness — loop and keep waiting out the caller's budget.

    def in_flight(self) -> set[str]:
        return {
            w.task_fp
            for w in self._workers
            if w.state == "busy" and w.task_fp is not None
        }

    def liveness(self) -> float | None:
        if self._heartbeat_interval is None:
            return None
        seen = [w.last_seen for w in self._workers if w.sock is not None]
        return max([self._epoch, *seen])

    def release(self, fingerprints: set[str], reason: str) -> ReleaseReport:
        for worker in self._workers:
            if worker.state == "busy" and worker.task_fp in fingerprints:
                # Keep the socket: a slow worker's late RESULT still
                # arrives and the engine dedupes it by fingerprint.
                worker.state = "zombie"
        return ReleaseReport()

    def reset(
        self, should_abort: Callable[[], bool] | None = None
    ) -> bool:
        """Blocking reconnect sweep over every address; the last resort."""
        for worker in self._workers:
            self._close_worker(worker)
            worker.state = "down"
            worker.task_fp = None
            worker.attempts = 0
            worker.next_attempt_at = 0.0
        for round_index in range(max(1, self._max_reconnects)):
            for worker in self._workers:
                if worker.sock is None and worker.state != "dead":
                    self._connect(worker)
            if any(w.sock is not None for w in self._workers):
                self._epoch = time.time()
                return True
            if should_abort is not None and should_abort():
                return False
            if all(w.state == "dead" for w in self._workers):
                return False
            time.sleep(
                self._reconnect_policy.backoff_for(round_index + 1, self._rng)
            )
        return False

    def close(self) -> None:
        for worker in self._workers:
            if worker.sock is not None:
                try:
                    proto.send_frame(worker.sock, proto.Kind.BYE, None)
                except (OSError, proto.ProtocolError):
                    pass
            self._close_worker(worker)
            worker.state = "down"
            worker.task_fp = None
